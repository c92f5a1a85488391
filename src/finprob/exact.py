"""Exact rational kernels on integer numerators and denominators, one
implementation each: exact sums (:func:`total`, :func:`dot`), rational grids
(:func:`grid`), rows over their least common denominator
(:func:`scaled_rows`), and rationals as wire text (:func:`wire_text`, every
digit) and as prose (:func:`rational_text`, digit counts past the limit).

Adding ``Fraction``s one by one reduces every partial sum by a gcd and builds
a new ``Fraction`` per term.  The sums here keep one integer numerator over
the least common denominator of the terms seen so far and build a single
``Fraction`` at the end.  The kernels read only the ``numerator`` and
``denominator`` of their inputs, so they take ``Fraction`` and ``int`` values
alike; :func:`fractions` brings any other input to ``Fraction`` first.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm, log10
from typing import Iterable, Iterator


def fractions(values: Iterable) -> tuple[Fraction, ...]:
    """The values as ``Fraction``s.

    A ``Fraction`` is kept as it is; anything else goes through
    ``Fraction(v)``, which accepts or rejects it (a string such as ``"1/3"``,
    an ``int``, a float) exactly as the constructor does.
    """
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _accumulate(terms: Iterator[tuple[int, int]]) -> Fraction:
    """The sum of ``n / d`` over integer pairs with ``d > 0``, reduced once."""
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        elif den % d == 0:
            num += n * (den // d)
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def total(values: Iterable) -> Fraction:
    """The exact sum of rational values (``Fraction(0)`` when empty)."""
    return _accumulate((v.numerator, v.denominator) for v in values)


def dot(xs: Iterable, ys: Iterable) -> Fraction:
    """The exact sum of ``x * y`` over paired values, stopping at the
    shorter input as ``zip`` does."""
    return _accumulate(
        (x.numerator * y.numerator, x.denominator * y.denominator)
        for x, y in zip(xs, ys)
    )


def grid(upper, max_denominator: int) -> list[Fraction]:
    """``{n/d : 1 <= d <= max_denominator, 0 <= n/d <= upper}``, sorted."""
    values = set()
    for d in range(1, max_denominator + 1):
        values.update(Fraction(n, d) for n in range(floor(upper * d) + 1))
    return sorted(values)


def scaled_rows(rows: Iterable) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(nums, den)`` with ``rows[i][j] == nums[i][j] / den``, where ``den``
    is the least common denominator of every entry (1 when there are none)."""
    rows = tuple(tuple(row) for row in rows)
    den = lcm(*(v.denominator for row in rows for v in row))
    nums = (tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
    return tuple(nums), den


def _digit_count(n: int) -> int:
    """The number of decimal digits of ``abs(n)``, without writing it out."""
    n = abs(n)
    count = max(0, int((n.bit_length() - 1) * log10(2)) - 1)
    while 10**count <= n:
        count += 1
    return max(count, 1)


def _decimal(n: int) -> str:
    """The decimal digits of ``n``, past Python's int-to-string limit too:
    halves are written separately until each fits."""
    try:
        return str(n)
    except ValueError:
        half = _digit_count(n) // 2
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def wire_text(value) -> str:
    """The rational ``value`` as its ``"p/q"`` wire string, in lowest terms
    and with every digit, whatever the int-to-string limit."""
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def rational_text(value) -> str:
    """``str(value)`` for a rational, or a phrase giving the digit counts of
    its numerator and denominator when writing them out would pass Python's
    int-to-string limit (``sys.get_int_max_str_digits``)."""
    try:
        return str(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        num, den = _digit_count(value.numerator), _digit_count(value.denominator)
        return f"{sign}<{num}-digit integer>/<{den}-digit integer>"


def in_unit_interval(v) -> bool:
    """Whether the rational ``v`` lies in [0, 1]."""
    return 0 <= v.numerator <= v.denominator
