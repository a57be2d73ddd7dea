"""Signed rotation systems (ribbon graphs) and their subgraph topology.

A ribbon graph is stored as a rotation system with twists: every vertex
carries a cyclic sequence of half-edge labels, every edge pairs two half
edges and carries a sign, + for an untwisted ribbon and - for a twisted
one.  This single structure supports all the topology we need: boundary
component counts, orientability, Poincare duals and partial duals.
Deletion is restriction to the other edges, and contraction is
G/e = G^{e} - e, the partial dual on e with e deleted.

Boundary walks are traced on *corner points*.  Every half-edge h has two
corners (h, 0) and (h, 1), placed so that walking the vertex disc boundary
along the rotation visits h's attachment interval from (h, 0) to (h, 1)
and then follows a disc arc from (h, 1) to the next half-edge's (·, 0)
corner.  An edge ribbon with halves h, h' contributes its two free sides:
untwisted they join (h, 0)-(h', 1) and (h, 1)-(h', 0), twisted they join
(h, 0)-(h', 0) and (h, 1)-(h', 1).  The disc arcs, the attachment
intervals and the ribbon sides do not depend on any subset, so each graph
builds their tables once.  For a subset H, pair the corners of the edges
in H along their ribbon sides and those of the other edges along their
attachment intervals; together with the disc arcs this is a 2-regular
graph on the corners whose cycles are exactly the boundary circles of the
spanning subgraph on H that touch a half-edge.  Vertices without
half-edges add one circle each.  One walk over these cycles gives the
boundary count bc(H), the vertices of the partial dual G^H (one per
circle, its rotation the half-edges crossed), and so the vertex word of
G^Q for a quasi-tree Q.  The walk writes those rotations itself, reading
the half-edge crossed at each corner from a table built with the
pairing, so partial_dual indexes its walks as they come.  Moving one
edge into H changes the pairing at its four corners only, so _splice
finds the new bc by walking the one circle through them.

Orientability, and the vertex flips and component labels of _flips,
come from one parity union-find (_parity): each vertex keeps its flip
relative to its parent, and an edge whose ends are one class already is
cleared or not by the product of the flips on the way to the root.

_sweep is the one enumeration of the 2^e spanning subgraphs, read by
subgraph_profile and so by the per-subset identities of the check
battery, by the battery's partial-duality-connectivity (over the subsets
of E - A, against G^A), by quasi_tree_masks, and by the brute-force sums
(invariants._tally) up to nine marked edges; above that the sums count
the same tally by _frontier, which merges the subsets that the
undecided edges cannot tell apart.  It decides the edges depth first, highest
first and each left out before taken in, so the subsets F come
ascending.  Left out of F, an edge joins
its ends in a rollback union-find of the dual cellulation G* (where the
unmarked edges are joined first); taken in, it joins them in a rollback
union-find of G, and _splice moves it into the corner pairing.
Returning restores the roots and the pairing, so a step costs a few
finds and the walk of one circle.  Each step runs its finds inline
rather than through graphs._join, and reads its edge's end pairs, corner
slice and attachment intervals from its level, fixed before the sweep
starts; only _splice, bound once per sweep, is still a call.
boundary_components, genus_s and the partial duals keep the full walk,
which the battery and the tests compare with the sweep.

_frontier is a frontier dynamic program after Sekine, Imai and Tani: it
decides the marked edges in a given order and keeps, per state, the
counts of the subsets of the decided edges that reach it.  A state is
the class labels of the frontier vertices of G and of G*, and those of
the frontier corners, where a class is one open path of the corner walk;
each of the three parts changes by _move, which joins pairs of
positions and counts the unions and the pairs already one class (a
closed circle).  Its cost follows the number of states, which the
frontier's width bounds, not 2^e.

Subsets of edges are bitmasks in edge-declaration order throughout, and
graphs are capped at 64 edges.  All values are immutable once built;
operations are pure functions, so everything here is safe to share.
"""

from __future__ import annotations

from itertools import chain

from .graphs import MultiGraph, _forest, _join

__all__ = [
    "RibbonError",
    "RibbonGraph",
    "EmbeddedGraph",
]


class RibbonError(Exception):
    """A structurally invalid ribbon graph or an unsupported operation."""


_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}

# corner c's partner along its attachment interval, and the half-edge
# that the interval holding c belongs to, for up to 64 edges
_INTERVALS = tuple(c ^ 1 for c in range(4 * 64))
_HALVES = tuple(c >> 1 for c in range(4 * 64))


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cyclic_min(seq):
    """Lexicographically least rotation of a tuple (cyclic normal form).
    Only the rotations that start at the least element are candidates."""
    seq = tuple(seq)
    if len(seq) < 2:
        return seq
    least = min(seq)
    return min(seq[i:] + seq[:i] for i, x in enumerate(seq) if x == least)


def _sweep(g, marked, d, leaf):
    """Call leaf(f, |F|, c_g(F), c_d(E-F), bc_g(F)) at each submask F of
    marked, ascending; d is a graph on the same edges (c_d is 0 without
    it), and bc is 0 unless g is a RibbonGraph.  One step per marked edge
    decides it and calls the next lower edge's step; the lowest, leaf.
    Of g and d it reads n_vertices and _ends, and g's full_mask when d is
    given; so any record with those fields will do, and only a
    RibbonGraph g adds its corner tables for bc."""
    parent = list(range(g.n_vertices))
    link = splice = d_parent = None
    if isinstance(g, RibbonGraph):
        link, splice = g._link(0)[0], g._splice
    c_d = 0
    if d is not None:
        d_parent = list(range(d.n_vertices))
        c_d = d.n_vertices - sum(_join(d_parent, d._ends[ei]) >= 0
                                 for ei in _iter_bits(g.full_mask ^ marked))

    def level(ei, down):
        bit, (ga, gb) = 1 << ei, g._ends[ei]
        da, db = (0, 0) if d is None else d._ends[ei]
        corners = slice(4 * ei, 4 * ei + 4)
        intervals = None if link is None else g._intervals[corners]

        # the finds are inlined, as in graphs._join: each union links one
        # root under the other and resetting that root undoes it
        def step(f, k, c, c_d, bc):
            if d_parent is None:
                down(f, k, c, c_d, bc)
            else:
                a, b = da, db
                while d_parent[a] != a:
                    a = d_parent[a]
                while d_parent[b] != b:
                    b = d_parent[b]
                if a == b:
                    down(f, k, c, c_d, bc)
                else:
                    d_parent[a] = b
                    down(f, k, c, c_d - 1, bc)
                    d_parent[a] = a
            a, b = ga, gb
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if link is not None:
                bc += splice(link, ei)
            if a == b:
                down(f | bit, k + 1, c, c_d, bc)
            else:
                parent[a] = b
                down(f | bit, k + 1, c - 1, c_d, bc)
                parent[a] = a
            if link is not None:
                link[corners] = intervals
        return step

    step = leaf
    for ei in _iter_bits(marked):
        step = level(ei, step)
    # bc of the empty subset: one circle per vertex disc
    step(0, 0, g.n_vertices, c_d, 0 if link is None else g.n_vertices)


class _Moves(dict):
    """One part's moves at one step of _frontier, memoised by its state:
    state -> (state with the edge left out, its key shift, state with it
    taken in, its key shift)."""

    __slots__ = ("move",)

    def __init__(self, move):
        self.move = move

    def __missing__(self, state):
        moves = self[state] = self.move(state)
        return moves


# a part that no step changes: G* without d, the corners of a MultiGraph
_STILL = {(): ((), 0, (), 0)}


def _move(fresh, keep, out, into, union, closure):
    """A part's move: the state labels the classes of its frontier, the
    items entering it at this step are appended with labels len(state) +
    fresh, and each branch (out: the edge left out, into: taken in) joins
    the pairs of positions it lists, shifting the key by union where two
    classes merge and by closure where a pair is one class already; then
    the positions in keep stay, their labels renumbered by first
    occurrence."""
    def move(state):
        n = len(state)
        labels = [*state, *[n + f for f in fresh]]
        moves = ()
        for pairs in (out, into):
            joined, shift = labels, 0
            for a, b in pairs:
                la, lb = joined[a], joined[b]
                if la == lb:
                    shift += closure
                else:
                    shift += union
                    joined = [la if x == lb else x for x in joined]
            first = {}
            moves += (tuple([first.setdefault(joined[j], len(first))
                             for j in keep]), shift)
        return moves
    return move


def _vertex_moves(ends, joined_in, shift):
    """The moves of a graph's vertex classes when step i decides the edge
    with ends[i]: its ends are joined when it is taken in (joined_in) or
    left out.  A vertex is on the frontier from its first step to its
    last."""
    last = {v: i for i, pair in enumerate(ends) for v in pair}
    steps, front = [], []
    for i, pair in enumerate(ends):
        enter = [v for v in dict.fromkeys(pair) if v not in front]
        work = front + enter
        join = [tuple(map(work.index, pair))]
        keep = [j for j, v in enumerate(work) if last[v] > i]
        out, into = ((), join) if joined_in else (join, ())
        steps.append(_Moves(_move(range(len(enter)), keep, out, into,
                                  shift, 0)))
        front = [work[j] for j in keep]
    return steps


def _corner_moves(g, marked, order):
    """The moves of the corner walk's open paths.  With the unmarked edges
    along their attachment intervals, each corner of a marked edge has a
    fixed partner: the corner its disc arc reaches past the intervals.
    Before step i the frontier holds the corners of the undecided edges
    whose partner is decided, and a path's class its two ends.  A step
    brings in each corner of its edge not on the frontier, with its
    partner, as one class, joins its corners by their intervals or their
    ribbon sides, and counts each pair already one class as a closed
    circle."""
    arc, sides = g._arc, g._sides
    partner = {}
    for ei in order:
        for c in range(4 * ei, 4 * ei + 4):
            p = arc[c]
            while not marked >> (p >> 2) & 1:
                p = arc[p ^ 1]
            partner[c] = p
    steps, front = [], []
    for ei in order:
        c = 4 * ei
        enter = {}
        for x in range(c, c + 4):
            if x not in front and x not in enter:
                enter[x] = enter[partner[x]] = len(enter) // 2
        work = front + list(enter)
        s = sides[ei]
        out, into = ((c, c + 1), (c + 2, c + 3)), ((c, s[0]), (c + 1, s[1]))
        keep = [j for j, x in enumerate(work) if x >> 2 != ei]
        steps.append(_Moves(_move(
            tuple(enter.values()), keep,
            [tuple(map(work.index, pair)) for pair in out],
            [tuple(map(work.index, pair)) for pair in into], 0, 1 << 24)))
        front = [work[j] for j in keep]
    return steps


def _frontier(g, marked, d, order):
    """{(|F|, c_g(F), c_d(E-F), bc_g(F)): count} over the submasks F of
    marked, as _sweep's leaves tally them, with order listing the marked
    edges: a frontier dynamic program after Sekine, Imai and Tani
    ("Computing the Tutte polynomial of a graph of moderate size", ISAAC
    1995), with the corner walk in its state.

    It decides the edges in order and merges the subsets of the decided
    edges that agree on what the undecided ones can still change: the
    classes of G's frontier vertices, those of G*'s (where the unmarked
    edges are joined first), and how the open paths of the corner walk
    pair the frontier corners.  Each state keeps {packed (|F|, unions in
    G, unions in G*, closed circles): count}; a step looks up the three
    parts' moves, memoised apart, and shifts the packed keys of each
    branch by one constant.  Each field stays below 2^8, as a graph has
    at most 64 edges.  bc(F) is bc(empty) = v(G), less the circles closed
    at F = empty, plus those closed at F.  Reads the fields that _sweep
    reads, and _arc and _sides of a RibbonGraph g."""
    still = [_STILL] * len(order)
    g_moves = _vertex_moves([g._ends[ei] for ei in order], True, 1 << 8)
    d_moves, c_moves, c_d = still, still, 0
    if d is not None:
        root = list(range(d.n_vertices))
        c_d = d.n_vertices - sum(_join(root, d._ends[ei]) >= 0
                                 for ei in _iter_bits(g.full_mask ^ marked))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v
        ends = [tuple(map(find, d._ends[ei])) for ei in order]
        d_moves = _vertex_moves(ends, False, 1 << 16)
    ribbon = isinstance(g, RibbonGraph)
    if ribbon:
        c_moves = _corner_moves(g, marked, order)
    states = {((), (), ()): {0: 1}}
    for gm, dm, cm in zip(g_moves, d_moves, c_moves):
        nxt = {}
        for (sg, sd, sc), acc in states.items():
            g_out, g_o, g_in, g_i = gm[sg]
            d_out, d_o, d_in, d_i = dm[sd]
            c_out, c_o, c_in, c_i = cm[sc]
            for state, shift in (((g_out, d_out, c_out), g_o + d_o + c_o),
                                 ((g_in, d_in, c_in), 1 + g_i + d_i + c_i)):
                merged = nxt.get(state)
                if merged is None:
                    nxt[state] = {key + shift: n for key, n in acc.items()}
                else:
                    for key, n in acc.items():
                        key += shift
                        merged[key] = merged.get(key, 0) + n
        states = nxt
    tally = states[(), (), ()]
    nv = g.n_vertices
    empty = next(key for key in tally if not key & 255)
    bc = nv - (empty >> 24) if ribbon else 0
    return {(key & 255, nv - (key >> 8 & 255), c_d - (key >> 16 & 255),
             bc + (key >> 24)): n for key, n in tally.items()}


class RibbonGraph:
    """An immutable signed rotation system.

    vertices: iterable of (name, rotation) pairs, rotation being the cyclic
    sequence of half-edge labels around the vertex (as written).
    edges: iterable of (label, (h1, h2), sign) triples with sign '+', '-',
    +1 or -1.

    All labels are strings.  Every half-edge must occur in exactly one
    rotation and exactly one edge.  Equality compares the rotation system
    itself: rotations match up to cyclic shifts (never reversal), edges
    must pair the same half-edges with the same twists, and vertex display
    names are ignored.
    """

    def __init__(self, vertices, edges):
        verts = []
        for name, rot in vertices:
            verts.append((name, tuple(rot)))
        self._vertices = tuple(verts)
        eds = []
        for label, pair, sign in edges:
            h1, h2 = pair
            if sign not in _SIGNS:
                raise RibbonError("edge %r has invalid sign %r" % (label, sign))
            eds.append((label, (h1, h2), _SIGNS[sign]))
        self.edges = tuple(eds)
        if len(self.edges) > 64:
            raise RibbonError("ribbon graphs are capped at 64 edges")

        for name, _ in self._vertices:
            if not isinstance(name, str):
                raise RibbonError("vertex names must be strings, got %r" % (name,))
        names = set()
        for name, _ in self._vertices:
            if name in names:
                raise RibbonError("duplicate vertex %r" % name)
            names.add(name)

        # half-edges are indexed in edge-declaration order: edge i owns
        # half indexes 2i and 2i + 1
        self._edge_index = {}
        self._half_index = {}
        half_labels = []
        for ei, (label, (h1, h2), _) in enumerate(self.edges):
            if not isinstance(label, str):
                raise RibbonError("edge labels must be strings, got %r" % (label,))
            if label in self._edge_index:
                raise RibbonError("duplicate edge label %r" % label)
            self._edge_index[label] = ei
            for h in (h1, h2):
                if not isinstance(h, str):
                    raise RibbonError("half-edge labels must be strings, got %r" % (h,))
                if h in self._half_index:
                    raise RibbonError("half-edge %r appears in more than one edge" % h)
                self._half_index[h] = len(half_labels)
                half_labels.append(h)
        self.half_labels = tuple(half_labels)
        self.edge_labels = tuple(e[0] for e in self.edges)

        rot_idx = []
        seen = set()
        for name, rot in self._vertices:
            for h in rot:
                if h not in self._half_index:
                    raise RibbonError("half-edge %r is not on any edge" % h)
                if h in seen:
                    raise RibbonError("half-edge %r appears twice in the rotations" % h)
                seen.add(h)
            rot_idx.append(tuple(map(self._half_index.__getitem__, rot)))
        if len(seen) != len(half_labels):
            missing = next(h for h in half_labels if h not in seen)
            raise RibbonError("half-edge %r is missing from the vertex rotations" % missing)
        self._index(rot_idx)

    def _index(self, rot_idx):
        """Build the index tables from the rotations as tuples of half-edge
        indexes, which hold every half-edge index exactly once; vertices,
        edges and the label indexes are set already."""
        nh = 2 * len(self.edges)
        self._sign = tuple(e[2] for e in self.edges)
        self._rot_idx = rot_idx = tuple(rot_idx)
        # the mask-independent corner tables of the walk: half-edge h owns
        # corners 2h and 2h + 1, so edge i owns 4i .. 4i + 3.  _arc pairs
        # the ends of each disc arc and _intervals those of each attachment
        # interval; _sides[i] holds the partners of edge i's four corners
        # along its ribbon sides.  One pass over each rotation places its
        # half-edges and writes its arcs
        vertex_of = [-1] * nh
        arc = [0] * (2 * nh)
        for vi, rot in enumerate(rot_idx):
            a = rot[-1] if rot else None
            for b in rot:
                vertex_of[b] = vi
                arc[2 * a + 1] = 2 * b
                arc[2 * b] = 2 * a + 1
                a = b
        self._vertex_of = tuple(vertex_of)
        self._ends = tuple(zip(vertex_of[0::2], vertex_of[1::2]))
        self._bare = rot_idx.count(())
        self._arc = tuple(arc)
        self._intervals = _INTERVALS[:2 * nh]
        self._sides = tuple(
            (c + 3, c + 2, c + 1, c) if s > 0 else (c + 2, c + 3, c, c + 1)
            for c, s in zip(range(0, 2 * nh, 4), self._sign))

        # the tables that == and hash compare are built on first use by
        # _equality_tables: most graphs, partial duals above all, are never
        # compared

    # ------------------------------------------------------------------
    # basics

    _error = RibbonError
    n_edges = MultiGraph.n_edges
    full_mask = MultiGraph.full_mask
    edge_mask = MultiGraph.edge_mask
    _norm_mask = MultiGraph._norm_mask

    @property
    def vertices(self):
        """The (name, rotation) pairs, rotations as half-edge labels.  A
        partial dual leaves them unbuilt until they are first read, then
        names its vertices v1, v2, ... in the order of _rot_idx: the walks,
        then the bare vertices."""
        if self._vertices is None:
            labels = self.half_labels
            self._vertices = tuple(
                ("v%d" % (i + 1), tuple(labels[h] for h in rot))
                for i, rot in enumerate(self._rot_idx))
        return self._vertices

    @property
    def n_vertices(self):
        return len(self._rot_idx)

    def twist(self, label):
        """The sign of an edge, +1 or -1."""
        return self._sign[self.edge_mask((label,)).bit_length() - 1]

    def mask_labels(self, mask):
        """Edge labels of a bitmask, in declaration order."""
        return tuple(self.edge_labels[i] for i in _iter_bits(mask))

    def underlying_graph(self, edges=None):
        """The ordinary multigraph on the same vertices and the given edges."""
        mask = self._norm_mask(edges)
        vnames = [name for name, _ in self.vertices]
        eds = []
        for ei in _iter_bits(mask):
            a, b = self._ends[ei]
            eds.append((self.edge_labels[ei], vnames[a], vnames[b]))
        return MultiGraph(vnames, eds)

    def _equality_tables(self):
        """(edge map, rotation forms): each edge label's half-edge pair
        and twist, and the sorted cyclic minima of the rotations; computed
        once and cached on the instance."""
        if "_rot_forms" not in self.__dict__:
            self._edge_map = {label: (frozenset(pair), sign)
                              for label, pair, sign in self.edges}
            self._rot_forms = tuple(sorted(_cyclic_min(r) for _, r in self.vertices))
        return self._edge_map, self._rot_forms

    def __eq__(self, other):
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        return self._equality_tables() == other._equality_tables()

    def __hash__(self):
        edge_map, rot_forms = self._equality_tables()
        return hash((rot_forms, frozenset(edge_map.items())))

    def __repr__(self):
        return "<RibbonGraph v=%d e=%d>" % (self.n_vertices, self.n_edges)

    # ------------------------------------------------------------------
    # subgraph invariants

    components = MultiGraph.components
    nullity = MultiGraph.nullity

    def _walk(self, mask):
        """Trace every circle of the corner walk for F_mask.

        Returns (role, walks).  The walk follows the disc arcs and the
        pairing link of _link(mask), which pairs the corners of the edges
        in mask along their ribbon sides and the others along their
        attachment intervals.  From the least corner of its circle on,
        each walk is the tuple of the half-edges that _link's second table
        gives at the corners where the circle leaves along link: the
        rotation of that circle's vertex in the partial dual on mask.
        role[c] is 1 at those corners and 2 where a circle enters along
        link.
        """
        link, half = self._link(mask)
        arc = self._arc
        role = bytearray(len(arc))
        walks = []
        for c0 in range(len(arc)):
            if role[c0]:
                continue
            walk = []
            c = c0
            while not role[c]:
                role[c] = 1
                walk.append(half[c])
                c = link[c]
                role[c] = 2
                c = arc[c]
            walks.append(tuple(walk))
        return role, walks

    def _link(self, mask):
        """The corner pairing of F_mask, and the half-edge that a circle
        of its walk crosses as it leaves each corner along the pairing.

        The corners of the edges in mask pair along their ribbon sides,
        the others along their attachment intervals.  The ribbon side or
        interval holding (h1, 0) keeps h1 in the partial dual on mask, the
        other one becomes h2: corner c gives c >> 1 where c's edge pairs
        along its intervals, and for the edges of mask h1 h2 h2 h1 on the
        four corners of an untwisted edge and h1 h2 h1 h2 on those of a
        twisted one."""
        link = list(self._intervals)
        half = list(_HALVES[:len(link)])
        sides, sign = self._sides, self._sign
        m = mask
        while m:
            ei = (m & -m).bit_length() - 1
            m &= m - 1
            c, h = 4 * ei, 2 * ei
            link[c:c + 4] = sides[ei]
            half[c:c + 4] = ((h, h + 1, h + 1, h) if sign[ei] > 0
                             else (h, h + 1, h, h + 1))
        return link, half

    def _splice(self, link, ei):
        """Move edge ei into the subset that link pairs, and return the
        change of bc.

        link pairs ei along its attachment intervals on entry and along
        its ribbon sides on return.  The walk from corner 4ei + 1 along
        its disc arc meets a corner of ei first at 4ei when the two
        intervals lay on different circles, which the sides join (-1); at
        the side partner of 4ei + 1 when they lay on one circle that the
        sides split in two (+1); and elsewhere when that circle stays one.
        """
        arc = self._arc
        c = arc[4 * ei + 1]
        while c >> 2 != ei:
            c = arc[link[c]]
        sides = self._sides[ei]
        link[4 * ei:4 * ei + 4] = sides
        return -1 if c == 4 * ei else int(c == sides[1])

    def boundary_components(self, edges=None):
        """Boundary circles of the ribbon neighbourhood of the subgraph.

        The circles of the corner walk described in the module docstring,
        plus one for each vertex without half-edges.
        """
        return len(self._walk(self._norm_mask(edges))[1]) + self._bare

    def genus_s(self, edges=None):
        """s(F) = 2c(F) - v + e(F) - bc(F); twice the orientable genus of
        the filled-in surface, or its non-orientable genus."""
        mask = self._norm_mask(edges)
        return (2 * self.components(mask) - self.n_vertices
                + mask.bit_count() - self.boundary_components(mask))

    def is_orientable(self, edges=None):
        """Whether some vertex-flip assignment clears every twist of the
        subgraph; a twisted loop is never cleared.  One pass of the
        parity union-find of _parity."""
        return self._parity(self._norm_mask(edges))[2]

    def _flips(self, mask):
        """A flip sign per vertex, +1 or -1, that clears the twist of every
        edge of a spanning forest of the subgraph, and the component index
        of every vertex: the first vertex of each component keeps +1, and
        the components are numbered in the order of their first vertex.
        Read off the parity union-find of _parity, so on a forest the
        flips are the only ones that clear its twists with those +1s."""
        parent, rel, _ = self._parity(mask)
        nv = len(parent)
        flip = [0] * nv
        comp = [0] * nv
        # the flip of the first vertex, and the index, of each component,
        # stored at its root
        first = [0] * nv
        index = [0] * nv
        n = 0
        for v in range(nv):
            x, f = v, 1
            while parent[x] != x:
                f *= rel[x]
                x = parent[x]
            if not first[x]:
                first[x], index[x] = f, n
                n += 1
            flip[v], comp[v] = f * first[x], index[x]
        return flip, comp

    def _parity(self, mask):
        """(parent, rel, cleared): a union-find of the subgraph's vertices
        in which rel[x] is the flip of x relative to parent[x], as the
        edges that linked the classes ask, and whether every edge of the
        subgraph is cleared by those flips.  Edge e = (a, b) of twist s
        asks flip(a) flip(b) = s; when a and b are one class already, it
        is cleared exactly when their flips relative to the root agree
        with s.  Roots are linked without path compression, as in
        graphs._join."""
        parent = list(range(self.n_vertices))
        rel = [1] * len(parent)
        ends, sign = self._ends, self._sign
        cleared = True
        m = mask
        while m:
            ei = (m & -m).bit_length() - 1
            m &= m - 1
            a, b = ends[ei]
            s = sign[ei]
            while parent[a] != a:
                s *= rel[a]
                a = parent[a]
            while parent[b] != b:
                s *= rel[b]
                b = parent[b]
            if a != b:
                parent[a], rel[a] = b, s
            elif s < 0:
                cleared = False
        return parent, rel, cleared

    def subgraph_profile(self):
        """The (c, bc, s, n) vector of every edge subset, indexed by mask.

        Exponential in the edge count; refused above 16 edges.
        """
        if len(self.edges) > 16:
            raise RibbonError("subgraph profile is exponential; refusing e > 16")
        nv = self.n_vertices
        out = []
        _sweep(self, self.full_mask, None, lambda f, k, c, _, bc:
               out.append((c, bc, 2 * c - nv + k - bc, k - nv + c)))
        return tuple(out)

    def switching_form(self):
        """A canonical form of the ribbon graph up to vertex flips.

        Two graphs have equal forms exactly when one becomes the other by
        flipping vertices (reversing a rotation and toggling the twist of
        every non-loop edge with one end there), renaming vertices,
        rotating a rotation cyclically and swapping the two half-edge
        labels of an edge.  Only edge labels are read, because
        partial_dual may swap half-edge labels.  Per component: flip
        vertices until the spanning forest that is least by sorted edge
        label is untwisted, which fixes the flips up to flipping every
        vertex; write each vertex as the cyclic minimum of its word of
        edge labels, reversed at a flipped vertex; and keep the smaller of
        the two global flips.  The twisted edges, which a global flip
        keeps, are recorded once for the whole graph.
        """
        labels = self.edge_labels
        forest = _forest(self, sorted(range(len(labels)), key=labels.__getitem__))
        flip, comp = self._flips(forest)
        sides = [([], []) for _ in range(max(comp, default=-1) + 1)]
        for v, rot in enumerate(self._rot_idx):
            word = tuple(labels[h >> 1] for h in rot)
            if flip[v] < 0:
                word = word[::-1]
            kept, flipped = sides[comp[v]]
            kept.append(_cyclic_min(word))
            flipped.append(_cyclic_min(word[::-1]))
        twisted = sorted(labels[ei] for ei, (a, b) in enumerate(self._ends)
                         if self._sign[ei] * flip[a] * flip[b] < 0)
        return (tuple(sorted(min(tuple(sorted(kept)), tuple(sorted(flipped)))
                             for kept, flipped in sides)),
                tuple(twisted))

    # ------------------------------------------------------------------
    # duality

    def partial_dual(self, edges):
        """The partial dual with respect to an edge subset H.

        Edges keep their labels and half-edge labels; the empty subset
        returns a graph equal to this one, the full subset the Poincare
        dual.  New vertices are the boundary circles of the spanning
        subgraph on H, read off the corner walk: edges in H contribute
        their ribbon sides to the walk, edges outside H their attachment
        intervals, and the two walk directions of each crossed interval
        become the corners of the re-attached half-edge, which determines
        the new twists.  The labels are this graph's, so only the index
        tables are built anew, after a check that the walks hold the
        half-edge indexes 0 .. 2e - 1 exactly once.  The labelled
        vertices view is built only when it is first read; every count
        reads the index tables.
        """
        mask = self._norm_mask(edges)
        if not self.edges:
            return RibbonGraph(self.vertices, ())
        walks, signs = self._dual_walks(mask)
        if sorted(chain.from_iterable(walks)) != \
                list(range(len(self.half_labels))):
            raise RibbonError("the walks of the partial dual do not hold "
                              "every half-edge once")
        rot_idx = walks + [()] * self._bare
        dual = RibbonGraph.__new__(RibbonGraph)
        dual._vertices = None
        dual.edges = tuple((label, pair, sign)
                           for (label, pair, _), sign in zip(self.edges, signs))
        dual._edge_index = self._edge_index
        dual._half_index = self._half_index
        dual.half_labels = self.half_labels
        dual.edge_labels = self.edge_labels
        dual._index(rot_idx)
        return dual

    def _dual_walks(self, mask):
        """The rotations of the walk vertices of the partial dual on mask,
        as tuples of half-edge indexes, and the twists of its edges.

        _walk gives the rotations; the twists are read off its roles.  An
        edge is untwisted exactly when the corners paired by its other
        pairing (intervals for edges in mask, ribbon sides for the rest)
        have opposite roles.
        """
        role, walks = self._walk(mask)
        signs = []
        for ei in range(len(self.edges)):
            c = 4 * ei
            other = c + 1 if (mask >> ei) & 1 else self._sides[ei][0]
            signs.append(1 if role[c] != role[other] else -1)
        return walks, signs

    def dual(self):
        """The Poincare dual: one vertex per boundary circle, same edges;
        built once and cached on the instance."""
        if "_dual" not in self.__dict__:
            self._dual = self.partial_dual(self.full_mask)
        return self._dual

    # ------------------------------------------------------------------
    # minors

    def delete(self, label):
        """Remove one edge ribbon, keeping all vertices."""
        return self.restrict(self.full_mask ^ self.edge_mask((label,)))

    def contract(self, label):
        """Contract a non-loop edge e: G/e = G^{e} - e, the partial dual on
        e with e deleted (Ellis-Monaghan and Moffatt, "Twisted duality for
        embedded graphs", Trans. AMS 2012).  The vertices are renamed as
        partial_dual names them.  Contracting a loop is an error.
        """
        bit = self.edge_mask((label,))
        u, w = self._ends[bit.bit_length() - 1]
        if u == w:
            raise RibbonError("cannot contract the loop %r" % label)
        return self.partial_dual(bit).delete(label)

    def restrict(self, edges):
        """The spanning ribbon subgraph on an edge subset, as a graph of
        its own (all vertices kept, rotations filtered)."""
        mask = self._norm_mask(edges)
        keep = set()
        for ei in _iter_bits(mask):
            keep.add(self.edges[ei][1][0])
            keep.add(self.edges[ei][1][1])
        new_vertices = [(name, tuple(h for h in rot if h in keep))
                        for name, rot in self.vertices]
        new_edges = [self.edges[ei] for ei in _iter_bits(mask)]
        return RibbonGraph(new_vertices, new_edges)

    def split_components(self):
        """The connected components, each as its own RibbonGraph, ordered
        by first vertex."""
        _, comp = self._flips(self.full_mask)
        n = max(comp, default=-1) + 1
        verts = [[] for _ in range(n)]
        eds = [[] for _ in range(n)]
        for vertex, c in zip(self.vertices, comp):
            verts[c].append(vertex)
        for edge, (a, _) in zip(self.edges, self._ends):
            eds[comp[a]].append(edge)
        return [RibbonGraph(v, e) for v, e in zip(verts, eds)]


class EmbeddedGraph:
    """A graph embedded in a surface: a cellulation plus marked edges.

    The cellulation carries the surface; the marked subset is the embedded
    graph itself.  With marked == all edges the embedding is cellular.
    """

    def __init__(self, cellulation, marked=None):
        if not isinstance(cellulation, RibbonGraph):
            raise TypeError("cellulation must be a RibbonGraph")
        self.cellulation = cellulation
        if marked is None:
            self.marked_mask = cellulation.full_mask
        else:
            self.marked_mask = cellulation._norm_mask(marked)
        self.marked = frozenset(cellulation.mask_labels(self.marked_mask))

    @property
    def is_cellular(self):
        return self.marked_mask == self.cellulation.full_mask

    @property
    def dual_cellulation(self):
        """dual(G~), the cellulation's cached Poincare dual."""
        return self.cellulation.dual()

    def surface_invariants(self):
        """(c(Sigma), chi(Sigma), delta) of the ambient surface."""
        g = self.cellulation
        c = g.components()
        chi = g.n_vertices - g.n_edges + g.boundary_components()
        return (c, chi, 2 * c - chi)

    def complement_invariants(self, edges):
        """(c(Sigma minus F), s_perp(F), kernel dimension) for marked F.

        Computed on the complementary spanning subgraph of the dual
        cellulation, which carries the regular neighbourhood of the
        complement.
        """
        g = self.cellulation
        fmask = g._norm_mask(edges)
        if fmask & ~self.marked_mask:
            raise RibbonError("subset is not contained in the marked edges")
        d = self.dual_cellulation
        co = g.full_mask ^ fmask
        c_minus = d.components(co)
        s_perp = d.genus_s(co)
        return (c_minus, s_perp, c_minus - g.components())

    def ribbon_subgraph(self):
        """The marked edges as a ribbon graph of their own."""
        return self.cellulation.restrict(self.marked_mask)

    def underlying_marked_graph(self):
        return self.cellulation.underlying_graph(self.marked_mask)

    def __eq__(self, other):
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (self.cellulation == other.cellulation
                and self.marked == other.marked)

    __hash__ = None

    def __repr__(self):
        tag = "cellular" if self.is_cellular else "%d marked" % len(self.marked)
        return "<EmbeddedGraph v=%d e=%d (%s)>" % (
            self.cellulation.n_vertices, self.cellulation.n_edges, tag)
