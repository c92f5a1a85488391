"""Differential tests of the integer-numerator kernels in ``finprob.exact``
against plain ``Fraction`` arithmetic and brute-force enumeration."""

import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finprob import exact

# large primes, so that sums of their reciprocals keep growing denominators
PRIMES = (998244353, 10**9 + 7, 2**61 - 1, 2**89 - 1)

rationals = st.one_of(
    st.just(F(0)),
    st.fractions(),
    st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from(PRIMES)),
    st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
)
# what callers hand the constructors: Fractions, ints and "n/d" strings
raw = st.one_of(
    rationals,
    st.integers(-(10**6), 10**6),
    rationals.map(lambda v: f"{v.numerator}/{v.denominator}"),
    st.integers(-50, 50).map(str),
)


def reference_sum(values):
    return sum(values, F(0))


@given(st.lists(rationals, max_size=12))
def test_total_equals_the_fraction_sum(values):
    got = exact.total(values)
    assert type(got) is F
    assert got == reference_sum(values)


@given(st.lists(st.tuples(rationals, rationals), max_size=12))
def test_dot_equals_the_fraction_sum_of_products(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    got = exact.dot(xs, ys)
    assert type(got) is F
    assert got == reference_sum(x * y for x, y in pairs)


@given(st.lists(raw, max_size=12), st.lists(raw, max_size=12))
def test_mixed_inputs_go_through_fractions(xs, ys):
    fxs, fys = exact.fractions(xs), exact.fractions(ys)
    assert fxs == tuple(F(v) for v in xs)
    assert all(type(v) is F for v in fxs)
    assert exact.total(fxs) == reference_sum(F(v) for v in xs)
    assert exact.dot(fxs, fys) == reference_sum(F(x) * F(y) for x, y in zip(xs, ys))


@given(st.lists(st.one_of(rationals, st.integers(-3, 3)), max_size=12))
def test_ints_and_fractions_mix_without_coercion(values):
    assert exact.total(values) == reference_sum(values)
    assert exact.dot(values, values[::-1]) == reference_sum(
        F(a) * b for a, b in zip(values, values[::-1])
    )


@given(st.one_of(rationals, st.integers(-3, 3)))
def test_unit_interval_agrees_with_comparison(v):
    assert exact.in_unit_interval(v) == (0 <= v <= 1)


@given(st.lists(rationals, max_size=12))
def test_common_denominator_preserves_the_values(values):
    (numerators,), den = exact.scaled_rows([values])
    assert [F(n, den) for n in numerators] == values
    assert all(den % v.denominator == 0 for v in values)


@given(st.lists(st.lists(rationals, max_size=5), max_size=5))
def test_scaled_rows_are_numerators_over_the_least_common_denominator(rows):
    nums, den = exact.scaled_rows(rows)
    assert [[F(n, den) for n in row] for row in nums] == rows
    assert all(type(n) is int for row in nums for n in row)
    dens = [v.denominator for row in rows for v in row]
    assert den == functools.reduce(lambda a, b: a * b // math.gcd(a, b), dens, 1)


def brute_grid(upper, max_denominator):
    """Every n/d with d up to the bound and 0 <= n/d <= upper, by filtering
    all numerators up to 4d (upper is at most 4 below)."""
    values = {
        F(n, d) for d in range(1, max_denominator + 1) for n in range(4 * d + 1)
    }
    return sorted(v for v in values if v <= upper)


@given(
    st.one_of(
        st.fractions(min_value=0, max_value=4, max_denominator=15),
        st.integers(0, 4),
    ),
    st.integers(1, 9),
)
def test_grid_equals_the_brute_force_set(upper, max_denominator):
    got = exact.grid(upper, max_denominator)
    assert got == brute_grid(upper, max_denominator)
    assert all(type(v) is F for v in got)


def test_grid_edges():
    assert exact.grid(F(5, 7), 3) == [F(0), F(1, 3), F(1, 2), F(2, 3)]
    assert exact.grid(F(5, 7), 7)[-1] == F(5, 7)
    assert exact.grid(F(0), 5) == [F(0)]
    assert exact.grid(1, 1) == [F(0), F(1)]
    # the sweep's distances: the grid up to 2 without 0
    assert exact.grid(2, 2)[1:] == [F(1, 2), F(1), F(3, 2), F(2)]


@settings(max_examples=200)
@given(st.one_of(rationals, st.integers(-3, 3)))
def test_wire_text_is_p_over_q_within_the_digit_limit(v):
    assert exact.wire_text(v) == f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize(
    "value",
    [
        F(1, 10**5000),
        F(-(10**5000 + 1), 3),
        F(7**9000, 10**4400 + 1),
        F(10**20000 + 7 * 10**9000, 1),
    ],
)
def test_wire_text_writes_every_digit_past_the_limit(value, unlimited_str):
    expected = f"{unlimited_str(value.numerator)}/{unlimited_str(value.denominator)}"
    assert exact.wire_text(value) == expected


def test_edges():
    assert exact.total([]) == 0 and type(exact.total([])) is F
    assert exact.dot([], []) == 0
    assert exact.dot([F(1, 2), F(1, 3)], [F(1, 5)]) == F(1, 10)  # zip stops short
    assert exact.total([F(1, 2), F(-1, 2)]) == 0
    assert exact.scaled_rows([]) == ((), 1)
    assert exact.scaled_rows([[]]) == (((),), 1)
    for v in (F(0), F(1), 0, 1):
        assert exact.in_unit_interval(v)
    for v in (F(-1, 10**9), 1 + F(1, 10**9), -1, 2):
        assert not exact.in_unit_interval(v)


def test_fractions_keeps_fractions_as_they_are():
    v = F(2, 3)
    assert exact.fractions([v])[0] is v


@pytest.mark.parametrize("bad", ["x", "1/", "1/0", float("nan"), None, "0.5.1"])
def test_fractions_rejects_what_fraction_rejects(bad):
    with pytest.raises(Exception) as expected:
        F(bad)
    with pytest.raises(type(expected.value)) as got:
        exact.fractions([F(1, 2), bad])
    assert str(got.value) == str(expected.value)


def test_dropping_the_last_term_is_caught(monkeypatch):
    real = exact.total

    def drops_last(values):
        return real(list(values)[:-1])

    monkeypatch.setattr(exact, "total", drops_last)
    with pytest.raises(AssertionError):
        test_total_equals_the_fraction_sum()


@settings(max_examples=200)
@given(rationals)
def test_rational_text_is_str_within_the_digit_limit(v):
    assert exact.rational_text(v) == str(v)


@pytest.mark.parametrize(
    "value, text",
    [
        (F(1, 10**5000), "<1-digit integer>/<5001-digit integer>"),
        (F(-1, 10**5000 - 1), "-<1-digit integer>/<5000-digit integer>"),
        (F(10**4400 + 1, 3), "<4401-digit integer>/<1-digit integer>"),
    ],
)
def test_rational_text_counts_digits_past_the_limit(value, text):
    assert exact.rational_text(value) == text
