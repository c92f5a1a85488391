"""Exact rational kernels on integer numerators and denominators, one
implementation each: the exact sum (:func:`total`), rational grids
(:func:`grid`), rational vectors over one denominator (:class:`Scaled`,
:func:`scaled`, :func:`scaled_pairs`, :func:`common`), and rationals as
wire text (:func:`wire_text`, every digit) and as prose
(:func:`rational_text`).

Adding ``Fraction``s one by one reduces every partial sum by a gcd and builds
a new ``Fraction`` per term.  :func:`total` instead brings the terms over
their least common denominator with :func:`scaled`, adds the integer
numerators and builds a single ``Fraction``.  The kernels read only the
``numerator`` and ``denominator`` of their inputs, so they take ``Fraction``
and ``int`` values alike; :func:`fractions` brings any other input to
``Fraction`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm, log10
from typing import Iterable, Sequence


def fractions(values: Iterable) -> tuple[Fraction, ...]:
    """The values as ``Fraction``s.

    A ``Fraction`` is kept as it is; anything else goes through
    ``Fraction(v)``, which accepts or rejects it (a string such as ``"1/3"``,
    an ``int``, a float) exactly as the constructor does.
    """
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def total(values: Iterable) -> Fraction:
    """The exact sum of rational values (``Fraction(0)`` when empty)."""
    den, nums = scaled(values)
    return Fraction(sum(nums), den)


def grid(upper, max_denominator: int) -> list[Fraction]:
    """``{n/d : 1 <= d <= max_denominator, 0 <= n/d <= upper}``, sorted."""
    values = set()
    for d in range(1, max_denominator + 1):
        values.update(Fraction(n, d) for n in range(floor(upper * d) + 1))
    return sorted(values)


def scaled(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` with ``values[j] == nums[j] / den``, where ``den`` is
    the least common denominator of the rational values (1 when there are
    none); the numerators are then in lowest terms."""
    return scaled_pairs([(v.numerator, v.denominator) for v in values])


def scaled_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` for rationals given as integer pairs ``(n, d)`` with
    ``d > 0``, building no ``Fraction``: ``den`` is the least common multiple
    of the ``d``s, so pairs in lowest terms give :func:`scaled`'s result."""
    den = lcm(*[d for _, d in pairs])
    return den, tuple([n * (den // d) for n, d in pairs])


def common(vectors: Iterable) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)``: row ``i`` holds the i-th vector's ``nums`` over the
    least common denominator ``den`` of the vectors' ``den``s; the vectors are
    in lowest terms, so no factor above 1 divides ``den`` and every entry.
    A vector already over ``den`` gives its own ``nums``."""
    vectors = tuple(vectors)
    den = lcm(*(v.den for v in vectors))
    return den, tuple(
        v.nums if v.den == den else tuple(n * (den // v.den) for n in v.nums) for v in vectors
    )


@dataclass(frozen=True, init=False)
class Scaled:
    """A rational vector as integers over one denominator: entry ``i`` is
    ``nums[i] / den``, with ``den > 0`` and ``gcd(den, *nums) == 1``.

    A subclass (:class:`~finprob.measure.Measure`,
    :class:`~finprob.integrate.SimpleFunction`,
    :class:`~finprob.represent.ExtensionResult`) indexes its entries by the
    atoms of its ``algebra`` and is built through ``_init_on`` (as
    :meth:`from_numerators` is), which requires one entry per atom and then
    runs the subclass's ``_check``, its own checks of the numerators.  The
    base owns that atom count and :attr:`weights`, the entries read as atom
    weights."""

    den: int
    nums: tuple[int, ...]

    def __init__(self, den: int, nums: Iterable[int]) -> None:
        """Store ``nums / den`` for ``den > 0``, reduced to lowest terms."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g > 1:
            den, nums = den // g, tuple(n // g for n in nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def from_numerators(cls, algebra, den: int, nums: Iterable[int]) -> "Scaled":
        """The vector taking ``nums[i] / den`` on atom ``i``, for ``den > 0``."""
        s = cls.__new__(cls)
        s._init_on(algebra, den, tuple(nums))
        return s

    def _init_on(self, algebra, den: int, nums: tuple[int, ...]) -> None:
        if len(nums) != len(algebra.atoms):
            raise ValueError("one weight per atom required")
        self._check(algebra, den, nums)
        object.__setattr__(self, "algebra", algebra)
        Scaled.__init__(self, den, nums)

    def _check(self, algebra, den: int, nums: tuple[int, ...]) -> None:
        """A subclass's own checks of the numerators; none by default."""

    def __hash__(self) -> int:
        """The hash of ``(den, nums)``, ints alone.  A subclass that compares
        its ``algebra`` too takes this hash (equal values still hash equal),
        so no dict probe walks the algebra."""
        return hash((self.den, self.nums))

    @staticmethod
    def of(values: Iterable) -> "Scaled":
        """The rational values as a vector: a ``Scaled`` one as it is, ``int``s
        and ``Fraction``s read directly, anything else through ``Fraction(v)``,
        which accepts or rejects it as the constructor does."""
        if isinstance(values, Scaled):
            return values
        values = tuple(v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values)
        if all(type(v) is int for v in values):
            return Scaled(1, values)
        return Scaled(*scaled(values))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s in lowest terms, built on first read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The atom weights as ``Fraction``s in lowest terms: :attr:`values`."""
        return self.values

    def __len__(self) -> int:
        return len(self.nums)


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
