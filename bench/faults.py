"""Seeded faults that the benchmark's output checks must catch.

Each fault monkeypatches one finprob function and names the workload whose
checks should catch it.  ``selftest.py`` runs each fault and requires
``failed`` above 0.  finprob is imported inside the faults, so this module
loads before ``src/`` is on the path.
"""

from __future__ import annotations

from fractions import Fraction

from patch import rebind


def distance_off_by_a_thousandth():
    from finprob import lipmetric

    original = lipmetric.bl_distance_lp_witness

    def faulty(p, q, space):
        value, f = original(p, q, space)
        return value + Fraction(1, 1000), f

    return rebind(original, faulty)


def naturality_always_ok():
    from finprob import codensity

    original = codensity.check_cone_naturality

    def faulty(cone, *args, **kwargs):
        return codensity.NaturalityResult(True, original(cone, *args, **kwargs).triangles)

    return rebind(original, faulty)


def violated_table_exits_zero():
    """The reconstruct command reports a uniform measure instead of the
    violation, so a broken table gets exit 0."""
    from finprob import cli
    from finprob.errors import ReconstructionError
    from finprob.measure import Measure

    original = cli.reconstruct_measure

    def faulty(functional):
        try:
            return original(functional)
        except ReconstructionError:
            k = len(functional.algebra.atoms)
            return Measure(functional.algebra, (Fraction(1, k),) * k)

    cli.reconstruct_measure = faulty  # the CLI's binding only; cones keep the real one
    return [(cli, "reconstruct_measure", original)]


# fault name -> (workload whose checks must catch it, installer)
FAULTS = {
    "distance-off": ("instances", distance_off_by_a_thousandth),
    "naturality-always-ok": ("instances", naturality_always_ok),
    "violated-table-exit-0": ("instances", violated_table_exits_zero),
}
