"""The pass/fail tally behind every check, and a fault it must report."""

from finprob import cli, gen
from finprob.measure import Measure
from finprob.report import MAX_WITNESSES, SuiteConfig, tally


def test_tally_counts_every_outcome_and_keeps_first_five_witnesses():
    outcomes = [(i % 3 == 0, f"case {i}") for i in range(20)]
    check = tally("sample", outcomes)
    assert (check.name, check.passed, check.failed) == ("sample", 7, 13)
    assert check.witnesses == ("case 1", "case 2", "case 4", "case 5", "case 7")
    assert len(check.witnesses) == MAX_WITNESSES
    assert not check.ok


def test_tally_of_passes_only_is_ok_without_witnesses():
    check = tally("clean", [(True, "unused")] * 4)
    assert (check.passed, check.failed, check.witnesses) == (4, 0, ())
    assert check.ok


def test_lazy_witness_is_built_only_for_kept_failures():
    built = []

    def witness(i):
        def build():
            built.append(i)
            return f"case {i}"

        return build

    outcomes = [(i not in (2, 4, 5, 6, 7, 8, 9), witness(i)) for i in range(12)]
    check = tally("lazy", outcomes)
    assert (check.passed, check.failed) == (5, 7)
    assert check.witnesses == ("case 2", "case 4", "case 5", "case 6", "case 7")
    assert built == [2, 4, 5, 6, 7]  # no pass and no sixth failure was formatted


def test_run_cases_names_each_kept_witness_by_its_replayable_case():
    first_draw = {gen.rng_for(7, "sample", str(i)).random(): i for i in range(8)}
    built = []

    def case(rng):
        draw = rng.random()
        i = first_draw[draw]
        if i == 2:
            yield "sample", False, f"text at {draw}"
        else:
            yield "sample", i != 5, lambda: built.append(i) or f"callable at {draw}"

    (check,) = gen.run_cases(7, "sample", 8, ("sample",), case)
    assert (check.passed, check.failed) == (6, 2)
    assert [w.split(": ")[0] for w in check.witnesses] == ["case 2", "case 5"]
    assert check.witnesses[0].startswith("case 2: text at ")
    assert built == [5]  # no passing case built its witness

    ((name, ok, witness),) = case(gen.rng_for(7, "sample", "5"))
    assert (name, ok) == ("sample", False)
    assert check.witnesses[1] == f"case 5: {witness()}"


def _shift_mass(p: Measure) -> Measure:
    """Move half of the heaviest atom's weight to the next atom."""
    weights = list(p.weights)
    if len(weights) < 2:
        return p
    i = max(range(len(weights)), key=weights.__getitem__)
    j = (i + 1) % len(weights)
    weights[i], weights[j] = weights[i] / 2, weights[j] + weights[i] / 2
    return Measure(p.algebra, tuple(weights))


def _lattice_checks(config):
    route = cli.run_reconstruction_suite(config)[-1]
    representation = cli.run_extension_suite(config)[-1]
    assert (route.name, representation.name) == ("lattice-route", "lattice-representation")
    return route, representation


def test_perturbed_daniell_stone_fails_both_lattice_checks(monkeypatch):
    config = SuiteConfig(seed=0, cases=40)  # 4 lattice routes, 8 representations
    for check, total in zip(_lattice_checks(config), (4, 8)):
        assert (check.passed, check.failed) == (total, 0)

    original = cli.daniell_stone
    monkeypatch.setattr(cli, "daniell_stone", lambda *a: _shift_mass(original(*a)))
    for check, total in zip(_lattice_checks(config), (4, 8)):
        assert check.failed > 0, check.name
        assert check.passed + check.failed == total
        assert len(check.witnesses) == min(check.failed, MAX_WITNESSES)
        assert all(" -> " in w for w in check.witnesses)


def test_faulted_reconstruction_keeps_five_round_trip_witnesses(monkeypatch):
    from finprob import codensity

    original = codensity.reconstruct_measure
    monkeypatch.setattr(
        codensity, "reconstruct_measure", lambda f: _shift_mass(original(f))
    )
    config = SuiteConfig(seed=0, cases=50)  # 20 bijection cases
    checks = {c.name: c for c in cli.run_codensity(config)}
    round_trip = checks["round-trip"]
    assert round_trip.failed > MAX_WITNESSES
    assert round_trip.passed + round_trip.failed == 20
    assert len(round_trip.witnesses) == MAX_WITNESSES
