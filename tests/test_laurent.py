"""Laurent polynomial arithmetic, substitution and the canonical text form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qpoly.laurent import (
    VARIABLES,
    LaurentPoly,
    SubstitutionError,
    parse_poly,
)


A_half = LaurentPoly.term(1, A=Fraction(1, 2))
B_half = LaurentPoly.term(1, B=Fraction(1, 2))
Y = LaurentPoly.variable("Y")
X = LaurentPoly.variable("X")


def test_half_times_half_is_whole():
    assert A_half * A_half == LaurentPoly.variable("A")
    assert LaurentPoly.term(A=Fraction(4, 2)) == A_half ** 4
    with pytest.raises(ValueError):
        LaurentPoly.term(A=Fraction(1, 4))


def test_add_zero_is_identity():
    p = X + 2 * Y - 3
    assert p + LaurentPoly.zero() == p
    assert p + 0 == p


def test_one_plus_y_squared():
    p = (1 + Y) * (1 + Y)
    assert p == 1 + 2 * Y + Y ** 2
    assert p.canonical_text() == "Y^2 + 2*Y + 1"


def test_constant_and_zero_text():
    assert LaurentPoly.one().canonical_text() == "1"
    assert LaurentPoly.zero().canonical_text() == "0"
    assert LaurentPoly.constant(-7).canonical_text() == "-7"


def test_canonical_order_and_halves():
    p = A_half + B_half
    assert p.canonical_text() == "A^(1/2) + B^(1/2)"
    q = LaurentPoly.variable("A") + 2 + LaurentPoly.variable("B")
    assert q.canonical_text() == "A + B + 2"


def test_canonical_mixed_term():
    t = LaurentPoly.term(3, X=2, A=Fraction(3, 2))
    assert t.canonical_text() == "3*X^2*A^(3/2)"
    assert LaurentPoly.term(1, Y=-1).canonical_text() == "Y^-1"
    assert LaurentPoly.term(-1, Z=Fraction(-1, 2)).canonical_text() == "-Z^(-1/2)"


def test_substitute_monomials():
    p = A_half + B_half
    out = p.substitute({
        "A": LaurentPoly.term(1, Y=1, Z=2),
        "B": LaurentPoly.term(1, Y=-1),
    })
    expected = LaurentPoly.term(1, Y=Fraction(1, 2), Z=1) + LaurentPoly.term(1, Y=Fraction(-1, 2))
    assert out == expected


def test_substitute_shift():
    p = X + 1
    assert p.substitute({"X": X - 1}) == X


def test_substitute_nonmonomial_into_half_exponent_fails():
    with pytest.raises(SubstitutionError):
        A_half.substitute({"A": 1 + Y})


def test_substitute_nonmonomial_into_negative_exponent_fails():
    p = LaurentPoly.term(1, X=-1)
    with pytest.raises(SubstitutionError):
        p.substitute({"X": 1 + Y})


def test_substitute_off_grid_fails():
    # A^(1/2) with A -> Y^(1/2) would need a quarter exponent
    with pytest.raises(SubstitutionError):
        A_half.substitute({"A": LaurentPoly.term(1, Y=Fraction(1, 2))})


def test_substitute_scaled_coefficient():
    p = LaurentPoly.term(1, X=3)
    assert p.substitute({"X": LaurentPoly.constant(2)}) == 8
    with pytest.raises(SubstitutionError):
        LaurentPoly.term(1, X=-1).substitute({"X": LaurentPoly.constant(2)})
    # but unit coefficients invert fine
    assert LaurentPoly.term(1, X=-1).substitute({"X": LaurentPoly.term(-1)}) == -1
    assert LaurentPoly.term(1, X=-2).substitute({"X": LaurentPoly.term(-1)}) == 1
    # -1 takes only integer powers, other coefficients only nonnegative ones
    with pytest.raises(SubstitutionError):
        A_half.substitute({"A": LaurentPoly.term(-1)})
    for power in (-1, Fraction(1, 2)):
        with pytest.raises(SubstitutionError):
            LaurentPoly.term(1, X=power).substitute({"X": LaurentPoly.constant(3)})
    assert LaurentPoly.term(1, X=2).substitute({"X": LaurentPoly.zero()}) == 0


def test_substitute_variable_swap():
    swap = {
        "X": LaurentPoly.variable("Y"),
        "Y": LaurentPoly.variable("X"),
        "A": LaurentPoly.variable("B"),
        "B": LaurentPoly.variable("A"),
    }
    p = parse_poly("X^2*Y + A + B^(1/2) + 3")
    q = p.substitute(swap)
    assert q == parse_poly("Y^2*X + B + A^(1/2) + 3")
    assert q.substitute(swap) == p


def test_substitute_zero_binding():
    p = X ** 2 + X + 1
    assert p.substitute({"X": LaurentPoly.zero()}) == 1


def test_pow_and_neg():
    p = X - 1
    assert p ** 0 == 1
    assert p ** 3 == X ** 3 - 3 * X ** 2 + 3 * X - 1
    assert -(X - 1) == 1 - X


def test_parse_examples():
    assert parse_poly("A^(1/2) + B^(1/2)") == A_half + B_half
    assert parse_poly("0") == LaurentPoly.zero()
    assert parse_poly("A + B + 2") == LaurentPoly.variable("A") + LaurentPoly.variable("B") + 2
    assert parse_poly("-3*X^2*A^(3/2) - 1") == LaurentPoly.term(-3, X=2, A=Fraction(3, 2)) - 1
    assert parse_poly("Y^-1") == LaurentPoly.term(1, Y=-1)


def test_parse_rejects_garbage():
    for bad in ["", "A +", "A^(1/3)", "W", "2**X", "A^"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


# ----------------------------------------------------------------------
# property tests

def reference_parse_poly(text):
    """A hand lexer and recursive-descent parser of the canonical grammar,
    kept as the reference that parse_poly must agree with."""
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
            raise ValueError("unexpected character %r at position %d" % (ch, i))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %s but found %r" % (kind, tok[1]))
        pos += 1
        return tok

    def parse_exponent():
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
        vec = [0] * len(VARIABLES)
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
                vec[VARIABLES.index(var)] += d
            else:
                raise ValueError("expected a number or variable")
            if peek() == "*":
                take("*")
                continue
            return tuple(vec), coeff

    result = {}
    sign = 1
    if peek() == "-":
        take("-")
        sign = -1
    while True:
        vec, coeff = parse_term()
        result[vec] = result.get(vec, 0) + sign * coeff
        kind = peek()
        if kind is None:
            return LaurentPoly(result)
        if kind == "+":
            take("+")
            sign = 1
        elif kind == "-":
            take("-")
            sign = -1
        else:
            raise ValueError("expected + or - between terms, found %r" % tokens[pos][1])


def parsed(parser, text):
    try:
        return parser(text)
    except ValueError:
        return ValueError


# W stands for every character outside the grammar; the pieces make
# exponents and whole terms likely
POLY_CHARS = "0123456789XYABZ+-*^()/ W"
POLY_PIECES = list(POLY_CHARS) + ["^(", "^-", "(-", "/2)", "/1)", "10", " + ", " - ",
                                   "^(1/2)", "^(2/2)", "^(-3/2)", "^(4/1)", "^(3/0)"]


@settings(max_examples=400, deadline=None)
@example("A^(2/2)")
@example("X*Y^2*X^-1*2*3 + Y^2")
@example("-2*X^(-3/2) * Y - 3*B^(4/1)  ")
@given(st.one_of(st.text(alphabet=POLY_CHARS, max_size=16),
                 st.lists(st.sampled_from(POLY_PIECES), max_size=12).map("".join)))
def test_parse_poly_agrees_with_the_reference_parser(text):
    assert parsed(parse_poly, text) == parsed(reference_parse_poly, text)


exponents = st.integers(min_value=-4, max_value=4)
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        vec = tuple(draw(exponents) for _ in VARIABLES)
        terms[vec] = terms.get(vec, 0) + draw(coeffs)
    return LaurentPoly({v: c for v, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys())
def test_canonical_round_trip(p):
    assert parse_poly(p.canonical_text()) == p


@st.composite
def unit_monomial_bindings(draw):
    # integer-exponent monomials with coefficient 1 are valid bindings for
    # any polynomial whatsoever
    out = {}
    for var in draw(st.sets(st.sampled_from(VARIABLES), max_size=2)):
        out[var] = LaurentPoly.term(
            1, **{w: draw(st.integers(min_value=-2, max_value=2)) for w in VARIABLES})
    return out


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), unit_monomial_bindings())
def test_substitution_is_a_ring_map(p, q, bindings):
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)


@st.composite
def nonneg_Y_polys(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    iY = VARIABLES.index("Y")
    for _ in range(n):
        vec = [draw(exponents) for _ in VARIABLES]
        vec[iY] = 2 * draw(st.integers(min_value=0, max_value=3))
        vec = tuple(vec)
        terms[vec] = terms.get(vec, 0) + draw(coeffs)
    return LaurentPoly({v: c for v, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(nonneg_Y_polys(), nonneg_Y_polys(), polys(max_terms=2))
def test_polynomial_substitution_is_a_ring_map(p, q, b):
    bindings = {"Y": b}
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
