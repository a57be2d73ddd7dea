"""Exact multivariate Laurent polynomials in the variables X, Y, A, B, Z.

Exponents live on the half-integer grid and every exponent is stored as a
doubled integer, so the monomial A^(1/2) carries doubled A-exponent 1 and
A^-2 carries -4.  Coefficients are plain python ints, hence exact at any
size.  Polynomials are immutable by convention: no method mutates ``self``
and results are always fresh objects, so values can be shared freely.

The canonical text form sorts terms by descending exponent vector in the
fixed variable order X, Y, A, B, Z; integer exponents print bare and half
exponents print as reduced fractions in parentheses (``A^(3/2)``).  The
same grammar is read back by :func:`parse_poly`.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "VARIABLES",
    "HalfExp",
    "LaurentPoly",
    "SubstitutionError",
    "parse_poly",
]

VARIABLES = ("X", "Y", "A", "B", "Z")
_VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_VEC = (0,) * _NVARS


class SubstitutionError(ValueError):
    """An impossible substitution: a non-monomial bound into a half or
    negative exponent, or a result off the half-integer grid."""


def _fmt_half(doubled):
    """Render a doubled exponent: bare integer, or '(p/2)' when odd."""
    if doubled % 2 == 0:
        return str(doubled // 2)
    return "(%s)" % Fraction(doubled, 2)


def _to_doubled(value):
    """Coerce an exponent given in natural units to its doubled int."""
    if isinstance(value, HalfExp):
        return value.doubled
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        d = value * 2
        if d.denominator != 1:
            raise ValueError("exponent %s is off the half-integer grid" % value)
        return int(d)
    raise TypeError("exponent must be an int, Fraction or HalfExp, not %r" % (value,))


class HalfExp:
    """A half-integer exponent, stored as its doubled integer value."""

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        if not isinstance(doubled, int):
            raise TypeError("doubled part must be an int")
        self.doubled = doubled

    @classmethod
    def of(cls, value):
        """Build from a value in natural units (int or Fraction)."""
        return cls(_to_doubled(value))

    @property
    def value(self):
        """The exponent as an int when integral, else a Fraction."""
        if self.doubled % 2 == 0:
            return self.doubled // 2
        return Fraction(self.doubled, 2)

    @property
    def is_integer(self):
        return self.doubled % 2 == 0

    def __eq__(self, other):
        if isinstance(other, HalfExp):
            return self.doubled == other.doubled
        if isinstance(other, (int, Fraction)):
            return Fraction(self.doubled, 2) == other
        return NotImplemented

    def __hash__(self):
        return hash(Fraction(self.doubled, 2))

    def __str__(self):
        return str(Fraction(self.doubled, 2))

    def __repr__(self):
        return "HalfExp(%d)" % self.doubled


class LaurentPoly:
    """A Laurent polynomial over X, Y, A, B, Z with doubled-int exponents.

    The underlying storage is a dict mapping 5-tuples of doubled exponents
    (in the order of :data:`VARIABLES`) to nonzero integer coefficients.
    The plain constructor takes such a dict; use :meth:`term`,
    :meth:`constant` or :func:`parse_poly` to build values in natural
    units.
    """

    def __init__(self, terms=None):
        data = {}
        if terms:
            for vec, coeff in terms.items():
                vec = tuple(vec)
                if len(vec) != _NVARS or not all(isinstance(d, int) for d in vec):
                    raise ValueError("exponent vector must be 5 doubled ints, got %r" % (vec,))
                if not isinstance(coeff, int):
                    raise TypeError("coefficient must be an int, got %r" % (coeff,))
                if coeff:
                    data[vec] = data.get(vec, 0) + coeff
                    if not data[vec]:
                        del data[vec]
        self._terms = data

    @classmethod
    def _raw(cls, terms):
        # Internal fast path: terms is a dict keyed by 5-tuples; ownership
        # passes to the new polynomial, zero coefficients are dropped here.
        p = object.__new__(cls)
        p._terms = {v: c for v, c in terms.items() if c}
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({_ZERO_VEC: 1})

    @classmethod
    def constant(cls, c):
        return cls._raw({_ZERO_VEC: c} if c else {})

    @classmethod
    def term(cls, coeff=1, **exponents):
        """A single term with exponents in natural units.

        ``LaurentPoly.term(3, X=2, A=Fraction(3, 2))`` is 3*X^2*A^(3/2).
        """
        vec = [0] * _NVARS
        for var, value in exponents.items():
            if var not in _VAR_INDEX:
                raise ValueError("unknown variable %r" % var)
            vec[_VAR_INDEX[var]] = _to_doubled(value)
        return cls._raw({tuple(vec): coeff} if coeff else {})

    @classmethod
    def variable(cls, name):
        return cls.term(1, **{name: 1})

    # ------------------------------------------------------------------
    # structure

    def terms(self):
        """Yield (exponents, coefficient) pairs in canonical order, where
        exponents is a tuple of :class:`HalfExp`, one per variable."""
        for vec in sorted(self._terms, reverse=True):
            yield tuple(HalfExp(d) for d in vec), self._terms[vec]

    def items_doubled(self):
        """The raw (doubled exponent vector, coefficient) pairs."""
        return self._terms.items()

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({_ZERO_VEC: other} if other else {})
        return NotImplemented

    __hash__ = None

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for vec, c in other._terms.items():
            out[vec] = out.get(vec, 0) + c
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({v: -c for v, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for vec, c in other._terms.items():
            out[vec] = out.get(vec, 0) - c
        return LaurentPoly._raw(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly._raw({v: c * other for v, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for v1, c1 in a.items():
            for v2, c2 in b.items():
                key = (v1[0] + v2[0], v1[1] + v2[1], v1[2] + v2[2],
                       v1[3] + v2[3], v1[4] + v2[4])
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative ints")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # substitution

    def substitute(self, bindings):
        """Simultaneously substitute polynomials for variables.

        ``bindings`` maps variable names to LaurentPoly values (plain ints
        are accepted and treated as constants).  Unbound variables pass
        through.  A variable bound to a monomial with unit coefficient may
        carry any exponents, as long as the scaled exponents stay on the
        half-integer grid; a non-monomial (or non-unit) binding requires
        every exponent of that variable to be a nonnegative integer.
        """
        subs = {}
        for var, val in bindings.items():
            if var not in _VAR_INDEX:
                raise SubstitutionError("unknown variable %r" % var)
            if isinstance(val, int):
                val = LaurentPoly.constant(val)
            elif not isinstance(val, LaurentPoly):
                raise TypeError("binding for %s must be a LaurentPoly or int" % var)
            subs[_VAR_INDEX[var]] = val
        if not subs:
            return self

        pow_cache = {i: {} for i in subs}
        total = {}
        for vec, coeff in self._terms.items():
            new_vec = list(vec)
            # clear every bound slot before accumulating: a binding may
            # write into the slot of another bound variable (X <-> Y swap)
            for i in subs:
                new_vec[i] = 0
            mult = coeff
            factors = []
            for i, bound in subs.items():
                d = vec[i]
                if d == 0:
                    continue
                bt = bound._terms
                if len(bt) == 1:
                    ((bvec, bcoeff),) = bt.items()
                    if bcoeff == 1:
                        pass
                    elif bcoeff == -1:
                        if d % 2:
                            raise SubstitutionError(
                                "cannot raise coefficient -1 to the power %s"
                                % _fmt_half(d))
                        if (d // 2) % 2:
                            mult = -mult
                    else:
                        if d % 2 or d < 0:
                            raise SubstitutionError(
                                "monomial with coefficient %d cannot take exponent %s"
                                % (bcoeff, _fmt_half(d)))
                        mult *= bcoeff ** (d // 2)
                    for j, bd in enumerate(bvec):
                        if bd:
                            prod = d * bd
                            if prod % 2:
                                raise SubstitutionError(
                                    "substituting %s for %s leaves the half-integer grid"
                                    % (bound, VARIABLES[i]))
                            new_vec[j] += prod // 2
                else:
                    if d % 2 or d < 0:
                        raise SubstitutionError(
                            "variable %s has exponent %s but is bound to a non-monomial"
                            % (VARIABLES[i], _fmt_half(d)))
                    q = d // 2
                    cache = pow_cache[i]
                    if q not in cache:
                        cache[q] = bound ** q
                    factors.append(cache[q])
            part = LaurentPoly._raw({tuple(new_vec): mult})
            for f in factors:
                part = part * f
            for v2, c2 in part._terms.items():
                total[v2] = total.get(v2, 0) + c2
        return LaurentPoly._raw(total)

    # ------------------------------------------------------------------
    # printing

    def canonical_text(self):
        """The canonical string form; ``parse_poly`` round-trips it."""
        if not self._terms:
            return "0"
        chunks = []
        for vec in sorted(self._terms, reverse=True):
            coeff = self._terms[vec]
            parts = []
            for var, d in zip(VARIABLES, vec):
                if not d:
                    continue
                if d == 2:
                    parts.append(var)
                else:
                    parts.append("%s^%s" % (var, _fmt_half(d)))
            mag = abs(coeff)
            if not parts:
                body = str(mag)
            elif mag == 1:
                body = "*".join(parts)
            else:
                body = "%d*%s" % (mag, "*".join(parts))
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self):
        return self.canonical_text()

    def __repr__(self):
        return "<LaurentPoly %s>" % self.canonical_text()


# ----------------------------------------------------------------------
# parsing

def _lex_poly(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif ch in "XYABZ":
            tokens.append(("var", ch))
            i += 1
        elif ch in "+-*^()/":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError("unexpected character %r at position %d in polynomial" % (ch, i))
    return tokens


def parse_poly(text):
    """Parse the canonical polynomial grammar back into a LaurentPoly."""
    tokens = _lex_poly(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %s but found %r in polynomial" % (kind, tok[1]))
        pos += 1
        return tok

    def parse_exponent():
        # bare (optionally negative) integer, or a parenthesised reduced
        # fraction with denominator 1 or 2
        if peek() == "(":
            take("(")
            neg = False
            if peek() == "-":
                take("-")
                neg = True
            num = int(take("num")[1])
            den = 1
            if peek() == "/":
                take("/")
                den = int(take("num")[1])
            take(")")
            if den == 1:
                doubled = 2 * num
            elif den == 2:
                doubled = num
                if doubled % 2 == 0:
                    raise ValueError("exponent %d/2 is not reduced" % num)
            else:
                raise ValueError("exponent denominator must be 1 or 2, got %d" % den)
            return -doubled if neg else doubled
        neg = False
        if peek() == "-":
            take("-")
            neg = True
        num = int(take("num")[1])
        return -2 * num if neg else 2 * num

    def parse_term():
        coeff = 1
        vec = [0] * _NVARS
        saw_factor = False
        while True:
            kind = peek()
            if kind == "num":
                coeff *= int(take("num")[1])
            elif kind == "var":
                var = take("var")[1]
                d = 2
                if peek() == "^":
                    take("^")
                    d = parse_exponent()
                vec[_VAR_INDEX[var]] += d
            else:
                raise ValueError("expected a number or variable in polynomial term")
            saw_factor = True
            if peek() == "*":
                take("*")
                continue
            break
        if not saw_factor:
            raise ValueError("empty polynomial term")
        return tuple(vec), coeff

    result = {}
    sign = 1
    if peek() == "-":
        take("-")
        sign = -1
    while True:
        vec, coeff = parse_term()
        coeff *= sign
        result[vec] = result.get(vec, 0) + coeff
        kind = peek()
        if kind is None:
            break
        if kind == "+":
            take("+")
            sign = 1
        elif kind == "-":
            take("-")
            sign = -1
        else:
            raise ValueError("expected + or - between polynomial terms, found %r" % tokens[pos][1])
    return LaurentPoly._raw(result)
