"""Exact multivariate Laurent polynomials in the variables X, Y, A, B, Z.

Exponents live on the half-integer grid and every exponent is stored as a
doubled integer, so the monomial A^(1/2) carries doubled A-exponent 1 and
A^-2 carries -4.  Exponents go in as ints or Fractions in natural units
(:meth:`LaurentPoly.term`) and come out doubled
(:meth:`LaurentPoly.items_doubled`).  Coefficients are plain python ints,
hence exact at any size.  Polynomials are immutable by convention: no method mutates ``self``
and results are always fresh objects, so values can be shared freely.

The canonical text form sorts terms by descending exponent vector in the
fixed variable order X, Y, A, B, Z; integer exponents print bare and half
exponents print as reduced fractions in parentheses (``A^(3/2)``).  The
same grammar is read back by :func:`parse_poly`.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "VARIABLES",
    "LaurentPoly",
    "SubstitutionError",
    "parse_poly",
]

VARIABLES = ("X", "Y", "A", "B", "Z")
_VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_VEC = (0,) * _NVARS
_TOKEN = re.compile(r"\s*(\d+|[XYABZ+*^()/-])")


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
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        d = value * 2
        if d.denominator != 1:
            raise ValueError("exponent %s is off the half-integer grid" % value)
        return int(d)
    raise TypeError("exponent must be an int or Fraction, not %r" % (value,))


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

    def _merge(self, other, sign):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for vec, c in other._terms.items():
            out[vec] = out.get(vec, 0) + sign * c
        return LaurentPoly._raw(out)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({v: -c for v, c in self._terms.items()})

    def __sub__(self, other):
        return self._merge(other, -1)

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
        through.  A variable bound to a single term c*m may carry any
        exponent d for which d times the exponents of m stays on the
        half-integer grid; unless c is 1, d must also be an integer, and
        nonnegative unless c is -1.  A variable bound to anything else,
        the zero polynomial included, must carry nonnegative integer
        exponents only.
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

        powers = {}
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
                    ((bvec, c),) = bt.items()
                    if c != 1:
                        if d % 2 or (d < 0 and c != -1):
                            raise SubstitutionError(
                                "cannot raise coefficient %d to the power %s"
                                % (c, _fmt_half(d)))
                        mult *= c ** abs(d // 2)
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
                    if (i, d) not in powers:
                        powers[i, d] = bound ** (d // 2)
                    factors.append(powers[i, d])
            part = {tuple(new_vec): mult}
            if factors:
                product = LaurentPoly._raw(part)
                for f in factors:
                    product = product * f
                part = product._terms
            for v2, c2 in part.items():
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
            parts = [var if d == 2 else "%s^%s" % (var, _fmt_half(d))
                     for var, d in zip(VARIABLES, vec) if d]
            if abs(coeff) != 1 or not parts:
                parts.insert(0, str(abs(coeff)))
            chunks.append(("- " if coeff < 0 else "+ ") + "*".join(parts))
        text = " ".join(chunks)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __str__(self):
        return self.canonical_text()

    def __repr__(self):
        return "<LaurentPoly %s>" % self.canonical_text()


# ----------------------------------------------------------------------
# parsing

def parse_poly(text):
    """Parse the canonical polynomial grammar back into a LaurentPoly.

    The grammar: poly = ['-'] term {('+' | '-') term}, term = factor
    {'*' factor}, factor = number | variable ['^' exponent], and exponent
    = ['-'] number | '(' ['-'] number ['/' number] ')', where a fraction
    must reduce to denominator 1 or 2.  Spaces may stand between tokens;
    like terms add up.
    """
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            pos = len(text) - len(text[pos:].lstrip())
            raise ValueError("unexpected character %r at position %d in polynomial"
                             % (text[pos], pos))
        tokens.append(m[1])
        pos = m.end()
    tokens.append("")  # the end, which no take() consumes
    pos = 0

    def unexpected(wanted):
        found = repr(tokens[pos]) if tokens[pos] else "the end"
        return ValueError("expected %s but found %s in polynomial" % (wanted, found))

    def take(token, needed=False):
        nonlocal pos
        if tokens[pos] == token:
            pos += 1
            return True
        if needed:
            raise unexpected(repr(token))
        return False

    def number():
        nonlocal pos
        if not tokens[pos].isdecimal():
            raise unexpected("a number")
        pos += 1
        return int(tokens[pos - 1])

    def exponent():
        """The doubled exponent that follows a '^'."""
        if not take("("):
            return -2 * number() if take("-") else 2 * number()
        sign = -1 if take("-") else 1
        num = number()
        den = number() if take("/") else 1
        take(")", needed=True)
        if den not in (1, 2) or (den == 2 and num % 2 == 0):
            raise ValueError("exponent %d/%d is not a reduced fraction with "
                             "denominator 1 or 2" % (num, den))
        return sign * num * (2 // den)

    result = {}
    coeff, vec = (-1 if take("-") else 1), [0] * _NVARS
    while True:
        var = tokens[pos]
        if var in _VAR_INDEX:
            pos += 1
            vec[_VAR_INDEX[var]] += exponent() if take("^") else 2
        else:
            coeff *= number()
        if take("*"):
            continue
        key = tuple(vec)
        result[key] = result.get(key, 0) + coeff
        if not tokens[pos]:
            return LaurentPoly._raw(result)
        sign = tokens[pos]
        if sign not in ("+", "-"):
            raise unexpected("+ or - between terms")
        pos += 1
        coeff, vec = (-1 if sign == "-" else 1), [0] * _NVARS
