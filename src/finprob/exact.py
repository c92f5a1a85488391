"""Exact rational kernels on integer numerators and denominators.

Adding ``Fraction``s one by one reduces every partial sum by a gcd and builds
a new ``Fraction`` per term.  The kernels here keep one integer numerator
over the least common denominator of the terms seen so far and build a
single ``Fraction`` at the end, so they return the same exact value at a
fraction of the cost.  They read only the ``numerator`` and ``denominator``
of their inputs, so they take ``Fraction`` and ``int`` values alike;
:func:`fractions` brings any other input to ``Fraction`` first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log10
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


def over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """``(numerators, den)`` with ``values[i] == numerators[i] / den``, where
    ``den`` is the least common denominator of the values."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _digit_count(n: int) -> int:
    """The number of decimal digits of ``abs(n)``, without writing it out."""
    n = abs(n)
    count = max(0, int((n.bit_length() - 1) * log10(2)) - 1)
    while 10**count <= n:
        count += 1
    return max(count, 1)


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
