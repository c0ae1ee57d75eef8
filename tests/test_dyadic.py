"""Property tests of the dyadic rounding behind the initial-value system:
n / 2**e to a double, directly and through the 160-bit stored mantissa,
one value and whole rows over one power of two."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from ruinwalk.initial_values import (  # noqa: E402
    _align, _doubles, _rounded, _to_double)

BIG = 2 ** 1100

# a 54-bit odd numerator sits exactly halfway between two doubles
ties = st.tuples(st.integers(2 ** 53, 2 ** 54 - 1).map(lambda k: k | 1),
                 st.integers(0, 1100), st.integers(-1020, 1070)).map(
    lambda t: (t[0] << t[1], t[1] + t[2]))


@st.composite
def near_ties(draw):
    """Just above or below a tie, off by less than the 160th bit: a
    mantissa that dropped those bits would land on the tie and round to
    even, the wrong way half of the time."""
    odd = draw(st.integers(2 ** 53, 2 ** 54 - 1)) | 1
    shift = draw(st.integers(107, 400))
    hair = draw(st.integers(1, 2 ** (shift - 106) - 1))
    n = (odd << shift) + draw(st.sampled_from((hair, -hair)))
    return draw(st.sampled_from((n, -n))), draw(st.integers(0, 1400))


# results below 2**-1022, halfway points of the subnormal grid included
subnormal = st.one_of(
    st.tuples(st.integers(-2 ** 60, 2 ** 60), st.integers(1075, 1140)),
    st.tuples(st.integers(0, 2 ** 52).map(lambda k: 2 * k + 1),
              st.just(1075)))
# numerators over 1024 bits, so float(n) alone would overflow
wide = st.tuples(st.integers(-BIG, BIG).filter(lambda n: abs(n) > 2 ** 1024),
                 st.integers(1000, 2200))
anything = st.tuples(st.integers(-BIG, BIG), st.integers(-60, 2200))
cases = st.one_of(ties, near_ties(), subnormal, wide, anything)


def reference(n: int, e: int):
    """float(n / 2**e) through Fraction, or the overflow it raises."""
    try:
        return float(Fraction(n) / Fraction(2) ** e)
    except OverflowError:
        return OverflowError


def rounded(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


@given(cases)
def test_to_double_is_correctly_rounded(case):
    n, e = case
    assert rounded(_to_double, n, e) == reference(n, e)


@given(cases)
def test_stored_mantissa_rounds_to_the_same_double(case):
    # rounding to odd at 160 bits, then to double, is one correct rounding
    n, e = case
    [mant], exp = _rounded([n], e)
    assert abs(mant).bit_length() <= 160
    exact = Fraction(n) / Fraction(2) ** e
    assert abs(Fraction(mant) / Fraction(2) ** exp - exact) \
        <= abs(exact) * Fraction(1, 2 ** 159)
    assert rounded(_to_double, mant, exp) == reference(n, e)


def round_to_odd(n: int, e: int) -> tuple:
    """n / 2**e rounded to odd at 160 mantissa bits, as (n', e'), on the
    magnitude: a zero is (0, 0)."""
    if not n:
        return 0, 0
    a = abs(n)
    cut = a.bit_length() - 160
    if cut <= 0:
        return n, e
    q = a >> cut
    if a & ((1 << cut) - 1):
        q |= 1
    return (q if n > 0 else -q), e - cut


# rows over one power of two: exact zeros, values of at most 160 bits and
# values far past them, side by side
rows = st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(-2 ** 160, 2 ** 160),
                       st.integers(-BIG, BIG)), max_size=8),
    st.integers(-60, 2200))


@given(rows)
def test_row_rounding_is_each_entry_rounded_then_aligned(row):
    # _rounded rounds every entry on its own and puts the row over the
    # power of two _align takes, the zeros' 2**0 included
    ns, e = row
    assert _rounded(ns, e) == _align(round_to_odd(n, e) for n in ns)


@given(st.one_of(rows, cases.map(lambda c: ([c[0]], c[1]))))
def test_row_doubles_are_each_entry_correctly_rounded(row):
    ns, e = row
    want = [reference(n, e) for n in ns]
    if OverflowError in want:
        with pytest.raises(OverflowError):
            _doubles(ns, e)
    else:
        assert _doubles(ns, e) == want
