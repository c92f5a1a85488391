"""The probability monad on finite spaces: Dirac unit, averaging
multiplication, and exhaustive law verification.

A distribution over a plain label set is a :class:`Measure` on the labels'
powerset (:func:`SimplexPoint`), so the functor action on distributions is
:func:`~finprob.measure.pushforward`.  Measures on ``GX`` are represented
with finite support only (:class:`MetaMeasure`), which makes the averaging
integral an exact weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .exact import fractions, scaled_rows, total
from .measure import Measure, common_numerators, dirac, pushforward, simplex_algebra
from .report import CheckOutcome, SuiteConfig
from .setalg import Algebra

ONE = Fraction(1)


def SimplexPoint(labels: Sequence[str], weights: Sequence[Fraction]) -> Measure:
    """A probability distribution on a finite ordered label set: the measure
    on the labels' powerset with one weight per label."""
    return Measure(simplex_algebra(tuple(labels)), weights)


def unit(x: str, algebra: Algebra) -> Measure:
    """The monad unit: the Dirac measure at ``x``."""
    return dirac(x, algebra)


@dataclass(frozen=True)
class MetaMeasure:
    """A finitely supported probability measure on the measures of a space.

    Support measures are pairwise distinct and share one algebra, and every
    weight is strictly positive (zero-weight entries are rejected rather
    than silently dropped).
    """

    support: tuple[Measure, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = fractions(self.weights)
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", weights)
        if not self.support:
            raise ValueError("meta-measure needs at least one support measure")
        if len(weights) != len(self.support):
            raise ValueError("one weight per support measure required")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support measures must be pairwise distinct")
        if any(q.algebra != self.support[0].algebra for q in self.support[1:]):
            raise ValueError("support measures must share one algebra")
        if any(w.numerator <= 0 for w in weights):
            raise ValueError("meta-measure weights must be strictly positive")
        mass = total(weights)
        if mass != 1:
            raise ValueError(f"meta-measure weights must sum to 1, got {mass}")

    @property
    def algebra(self) -> Algebra:
        return self.support[0].algebra

    @classmethod
    def point_mass(cls, p: Measure) -> "MetaMeasure":
        return cls((p,), (ONE,))

    @classmethod
    def merge(cls, pairs: Iterable[tuple[Fraction, Measure]]) -> "MetaMeasure":
        """The meta-measure of ``(weight, measure)`` pairs: the weights of a
        repeated measure are added, and the support is sorted by weight
        vector, so equal meta-measures come out identical."""
        merged: dict[Measure, list] = {}
        for w, p in pairs:
            merged.setdefault(p, []).append(w)
        # numerators over one common denominator order as the weights do
        _, rows = common_numerators(merged)
        support = tuple(p for _, p in sorted(zip(rows, merged), key=itemgetter(0)))
        return cls(support, tuple(total(merged[p]) for p in support))


def average(den: int, coeffs: Sequence[int], algebra: Algebra, numerators: tuple) -> Measure:
    """The measure ``A -> sum_i (coeffs_i / den) * P_i(A)`` of measures
    ``P_i`` on ``algebra``, for probability weights given as integer
    numerators over ``den``.

    Computed on numerators: the ``P_i`` come as their
    :func:`~finprob.measure.common_numerators` ``(measures_den, rows)``."""
    measures_den, rows = numerators
    nums = (sum(c * n for c, n in zip(coeffs, column)) for column in zip(*rows))
    return Measure.from_numerators(algebra, den * measures_den, tuple(nums))


def mult(m: MetaMeasure) -> Measure:
    """The monad multiplication: average the support measures.

    ``mult(M)(A)`` is the integral of ``P(A)`` against ``M``; with finite
    support this is exactly ``sum_i weight_i * P_i(A)``.
    """
    (coeffs,), den = scaled_rows((m.weights,))
    return average(den, coeffs, m.algebra, common_numerators(m.support))


def combine_meta(parts: Sequence[tuple[Fraction, MetaMeasure]]) -> MetaMeasure:
    """Convex combination of meta-measures, merging duplicate support."""
    if not parts:
        raise ValueError("empty combination")
    if any(Fraction(coeff) <= 0 for coeff, _ in parts):
        raise ValueError("combination coefficients must be positive")
    return MetaMeasure.merge(
        (Fraction(coeff) * w, p)
        for coeff, m in parts
        for w, p in zip(m.weights, m.support)
    )


def eta_as_meta(p: Measure) -> MetaMeasure:
    """The pushforward of ``P`` along the unit, as a finite meta-measure.

    Each atom with positive weight contributes the Dirac measure at (any
    point of) that atom, weighted by the atom's mass.
    """
    return MetaMeasure.merge(
        (w, dirac(p.algebra.ground.labels_of(atom)[0], p.algebra))
        for atom, w in zip(p.algebra.atoms, p.weights)
        if w != 0
    )


def map_meta(
    m: MetaMeasure, mapping: Mapping[str, str], cod: Algebra
) -> MetaMeasure:
    """The lifted pushforward ``GGf``: push every support measure forward."""
    return MetaMeasure.merge(
        (w, pushforward(p, mapping, cod)) for w, p in zip(m.weights, m.support)
    )


LAWS = (
    "associativity",
    "left-unit",
    "mult-naturality",
    "right-unit",
    "unit-naturality",
)


def check_monad_laws(
    config: SuiteConfig, algebra: Algebra | None = None
) -> tuple[CheckOutcome, ...]:
    """Verify the monad laws and naturality with exact equality on
    ``config.cases`` seeded random instances: one check per law, in
    :data:`LAWS` order.  With no algebra given, each case draws its own
    random ground set and algebra within ``config.max_ground_size``."""
    from . import gen  # deferred: gen builds on this module's types

    def check_case(rng):
        current = algebra or gen.random_algebra(
            rng, gen.random_ground(rng, config.max_ground_size)
        )
        p = gen.random_measure(rng, current, config.max_denominator)

        # left unit: flattening the point mass at P returns P
        yield "left-unit", mult(MetaMeasure.point_mass(p)) == p, lambda: f"P={p.weights}"

        # right unit: flattening the unit-pushforward of P returns P
        yield "right-unit", mult(eta_as_meta(p)) == p, lambda: f"P={p.weights}"

        # associativity on a two-level meta structure
        metas = [
            gen.random_meta_measure(rng, current, config.max_denominator)
            for _ in range(rng.randint(1, 3))
        ]
        outer = gen.random_positive_weights(rng, len(metas), config.max_denominator)
        flattened_outside = combine_meta(list(zip(outer, metas)))
        after_g_mult = MetaMeasure.merge(zip(outer, (mult(m) for m in metas)))
        yield (
            "associativity",
            mult(after_g_mult) == mult(flattened_outside),
            lambda: f"outer={outer}",
        )

        # naturality of the unit: pushing a Dirac forward is the Dirac of the image
        mapping, cod = gen.random_premeasurable_map(rng, current)
        x = rng.choice(current.ground.points)
        yield (
            "unit-naturality",
            pushforward(unit(x, current), mapping, cod) == unit(mapping[x], cod),
            lambda: f"x={x} f={mapping}",
        )

        # naturality of mult: pushforward of the average is the average of pushforwards
        meta = gen.random_meta_measure(rng, current, config.max_denominator)
        yield (
            "mult-naturality",
            pushforward(mult(meta), mapping, cod) == mult(map_meta(meta, mapping, cod)),
            lambda: f"f={mapping}",
        )

    return gen.run_cases(config.seed, "laws", config.cases, LAWS, check_case)
