"""Command-line front end: exit codes, determinism, diagnostics.  The exit-2
rows of bad input, given on stdin, are in ``test_inputs.py``; two given as a
file are here."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import bench_workloads, finprob, relabelled_cone

from finprob import cli
from finprob.cli import COMMANDS, run
from finprob.report import SuiteConfig


def on_stdin(command, instance):
    """``finprob COMMAND --input -`` with ``instance`` as JSON on stdin."""
    return finprob([command, "--input", "-"], instance)


def test_laws_subcommand_passes():
    code, out, _ = finprob(["laws", "--cases", "20", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suite"] == "laws"


def test_codensity_subcommand_passes():
    code, out, _ = finprob(["codensity", "--cases", "20"])
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "round-trip",
        "naturality",
        "uniqueness",
        "sufficiency.k1",
        "sufficiency.k2",
        "sufficiency.k3",
    ]


def test_distance_generated_suite():
    code, out, _ = finprob(["distance", "--cases", "20"])
    assert code == 0
    payload = json.loads(out)
    assert any(c["name"] == "worked-pair" for c in payload["checks"])


TWO_POINTS = {
    "format": 1,
    "metric": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
    "p": ["1/1", "0/1"],
    "q": ["0/1", "1/1"],
}


def test_distance_input_both_methods(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(TWO_POINTS))
    code, out, _ = finprob(["distance", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["witnesses"][0] == {"lp": "1/1", "subsets": "1/1"}


def test_integrate_input_rejects_a_weight_that_names_no_atom(tmp_path):
    instance = {
        "format": 1,
        "measure": {
            "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
            "weights": {"0": "1/2", "1": "1/2", "2": "5/7"},
        },
        "functions": [{"terms": [["1/2", [0]]]}],
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(instance))
    assert finprob(["integrate", "--input", str(path)]) == (
        2,
        "",
        "input error at $.measure.weights.2: key '2' names no atom\n",
    )


def test_codensity_input_rejects_a_row_that_names_no_ground_point(tmp_path):
    from finprob import Algebra, GroundSet, cone_of_measure, indicator_family, serialize, uniform

    alg = Algebra.powerset(GroundSet(("0", "1")))
    cone = serialize.dump_cone(cone_of_measure(uniform(alg), indicator_family(alg)))
    cone[0][0]["rows"]["z"] = cone[0][0]["rows"]["0"]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"format": 1, "algebra": serialize.dump_algebra(alg), "cone": cone}))
    assert finprob(["codensity", "--input", str(path)]) == (
        2,
        "",
        "input error at $.cone[0][0].rows.z: key 'z' names no ground point\n",
    )


def test_reconstruct_input_violation_exits_one():
    instance = {
        "format": 1,
        "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
        "table": {
            "family": [
                {"terms": [["1/1", [0, 1]]]},
                {"terms": [["1/1", [0]]]},
                {"terms": [["1/1", [1]]]},
            ],
            "values": ["1/1", "3/4", "3/4"],
        },
    }
    code, out, _ = on_stdin("reconstruct", instance)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"][0]["witnesses"]


def test_reconstruct_input_success():
    instance = {
        "format": 1,
        "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
        "table": {
            "family": [
                {"terms": [["1/1", [0, 1]]]},
                {"terms": [["1/1", [0]]]},
                {"terms": [["1/1", [1]]]},
            ],
            "values": ["1/1", "1/4", "3/4"],
        },
    }
    code, out, _ = on_stdin("reconstruct", instance)
    assert code == 0
    payload = json.loads(out)
    weights = payload["checks"][0]["witnesses"][0]["weights"]
    assert weights == {"0": "1/4", "1": "3/4"}


TWO_POINT_ALGEBRA = {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]}


def test_reconstruct_input_missing_indicators_exits_one():
    """A table without the indicator of atom {1} cannot determine a measure:
    a failed check naming 1_{1}, not a crash."""
    instance = {
        "format": 1,
        "algebra": TWO_POINT_ALGEBRA,
        "table": {
            "family": [{"terms": [["1/1", [0, 1]]]}, {"terms": [["1/1", [0]]]}],
            "values": ["1/1", "1/4"],
        },
    }
    code, out, err = on_stdin("reconstruct", instance)
    assert code == 1
    assert "Traceback" not in err
    check = json.loads(out)["checks"][0]
    assert (check["name"], check["passed"], check["failed"]) == ("reconstruct", 0, 1)
    assert check["witnesses"][0].endswith("(every atom and the whole set): 1_{1}")


def test_reconstruct_input_equal_duplicate_rows_are_accepted():
    """Rows 1 and 3 both give 1_{0} (once as 1/2 + 1/2); equal values are
    accepted.  Different ones are bad input at the later row, the
    ``reconstruct.conflicting-duplicate-rows`` row of ``test_inputs.py``."""
    family = [
        {"terms": [["1/1", [0, 1]]]},
        {"terms": [["1/1", [0]]]},
        {"terms": [["1/1", [1]]]},
        {"terms": [["1/2", [0]], ["1/2", [0]]]},
    ]
    instance = {
        "format": 1,
        "algebra": TWO_POINT_ALGEBRA,
        "table": {"family": family, "values": ["1/1", "1/4", "3/4", "1/4"]},
    }
    code, out, _ = on_stdin("reconstruct", instance)
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"][0]["weights"] == {
        "0": "1/4",
        "1": "3/4",
    }


def test_codensity_cone_input_round_trip():
    from fractions import Fraction as F

    from finprob import Algebra, GroundSet, Measure, cone_of_measure, indicator_family
    from finprob import serialize

    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    p = Measure(alg, (F(2, 5), F(3, 5)))
    cone = cone_of_measure(p, indicator_family(alg))
    instance = {
        "format": 1,
        "algebra": serialize.dump_algebra(alg),
        "cone": serialize.dump_cone(cone),
    }
    code, out, _ = on_stdin("codensity", instance)
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["naturality"]["failed"] == 0
    weights = by_name["reconstruct"]["witnesses"][0]["weights"]
    assert weights == {"0": "2/5", "1": "3/5"}


def test_codensity_perturbed_cone_input_fails():
    from fractions import Fraction as F

    from finprob import Algebra, GroundSet, Measure, cone_of_measure, indicator_family
    from finprob import serialize

    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    p = Measure(alg, (F(1, 2), F(1, 2)))
    cone = cone_of_measure(p, indicator_family(alg))
    data = serialize.dump_cone(cone)
    # bump one binary leg while keeping it a distribution
    for leg in data:
        if leg[1]["weights"] == ["1/2", "1/2"]:
            leg[1]["weights"] = ["49/100", "51/100"]
            break
    instance = {"format": 1, "algebra": serialize.dump_algebra(alg), "cone": data}
    code, out, _ = on_stdin("codensity", instance)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False


def test_a_cone_with_four_label_arrows_is_checked():
    """Four labels are the most a cone arrow may have: the triangle from f
    to g is checked, and fails (five labels are the
    ``codensity.five-label-arrow`` row of ``test_inputs.py``)."""
    code, out, _ = on_stdin("codensity", relabelled_cone(4))
    assert code == 1
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["naturality"]["failed"] == 1


def test_codensity_input_without_an_atom_indicator_arrow_exits_one():
    """A cone without the binary arrow of 1_{1} fails its reconstruct check
    with the witness ``reconstruct --input`` gives a table without 1_{1}."""
    from fractions import Fraction as F

    from finprob import Algebra, GroundSet, Measure, SimpleFunction, serialize
    from finprob.codensity import binary_arrow, cone_of_measure, indicator_family

    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    dropped = binary_arrow(SimpleFunction.indicator(alg, g.mask_of(["1"])))
    family = [a for a in indicator_family(alg) if a != dropped]
    cone = cone_of_measure(Measure(alg, (F(1, 4), F(3, 4))), family)
    instance = {
        "format": 1,
        "algebra": serialize.dump_algebra(alg),
        "cone": serialize.dump_cone(cone),
    }
    code, out, err = on_stdin("codensity", instance)
    assert code == 1
    assert "Traceback" not in err
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["naturality"]["failed"] == 0
    check = by_name["reconstruct"]
    assert (check["passed"], check["failed"]) == (0, 1)

    table = {
        "format": 1,
        "algebra": TWO_POINT_ALGEBRA,
        "table": {
            "family": [{"terms": [["1/1", [0, 1]]]}, {"terms": [["1/1", [0]]]}],
            "values": ["1/1", "1/4"],
        },
    }
    by_table = json.loads(on_stdin("reconstruct", table)[1])["checks"][0]
    assert check["witnesses"] == by_table["witnesses"]
    assert check["witnesses"][0] == (
        "table lacks the indicators needed to determine a measure "
        "(every atom and the whole set): 1_{1}"
    )


def test_stdin_input():
    instance = {
        "format": 1,
        "metric": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
        "p": ["1/1", "0/1"],
        "q": ["1/1", "0/1"],
    }
    code, out, _ = on_stdin("distance", instance)
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"][0]["lp"] == "0/1"


def test_an_internal_failure_exits_three_without_a_traceback(tmp_path, monkeypatch):
    def fault(data):
        raise ValueError("a fault of finprob's own")

    monkeypatch.setattr(cli, "run_reconstruct_input", fault)
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"format": 1}))
    code, out, err = finprob(["reconstruct", "--input", str(path)])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: ValueError: ")
    assert "Traceback" not in err


# 1/A + 1/(A + 1) has a denominator past Python's int-to-string limit
BIG = 10**4001 + 1
BIG_SUM = "<4002-digit integer>/<8003-digit integer>"


@pytest.mark.parametrize(
    "command, instance, witness",
    [
        (
            "reconstruct",
            {
                "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
                "table": {
                    "family": [
                        {"terms": [["1/1", [0, 1]]]},
                        {"terms": [["1/1", [0]]]},
                        {"terms": [["1/1", [1]]]},
                    ],
                    "values": ["1/1", f"1/{BIG}", f"1/{BIG + 1}"],
                },
            },
            "additivity violated: the ground set decomposes into atoms with "
            f"total indicator mass {BIG_SUM}, but F(1_X) = 1",
        ),
        (
            "extend",
            {
                "points": ["0", "1"],
                "family": [[], [0], [1], [0, 1]],
                "mu": ["0/1", f"1/{BIG}", f"1/{BIG + 1}", "1/1"],
            },
            "premeasure is not additive: mu = 1 on a member whose disjoint "
            f"decomposition sums to {BIG_SUM}",
        ),
    ],
    ids=["reconstruct", "extend"],
)
def test_a_violation_past_the_digit_limit_exits_one_with_its_witness(command, instance, witness):
    code, out, _ = on_stdin(command, {"format": 1, **instance})
    assert code == 1
    assert json.loads(out)["checks"][0]["witnesses"] == [witness]


def test_a_distance_past_the_digit_limit_exits_zero_with_every_digit(unlimited_str):
    instance = {
        "format": 1,
        "metric": {"points": ["0", "1"], "dist": [["0", "1"], ["1", "0"]]},
        "p": [f"1/{BIG}", f"{BIG - 1}/{BIG}"],
        "q": [f"1/{BIG + 1}", f"{BIG}/{BIG + 1}"],
    }
    code, out, err = on_stdin("distance", instance)
    assert code == 0, err
    witness = json.loads(out)["checks"][0]["witnesses"][0]
    value = "1/" + unlimited_str(BIG * (BIG + 1))
    assert witness == {"lp": value, "subsets": value}


def test_a_distance_with_huge_denominators_exits_zero_with_its_exact_value():
    """Distances of 1/10**400 and weights over 10**300: the objective row
    holds 300-digit integers and the optimum a 700-digit denominator.  The
    optimal test function, solved by hand, is f = (0, 1/10**400, 1/10**399)."""
    d, e = 10**300, 10**400
    near, far = f"1/{e}", f"1/{e // 10}"
    instance = {
        "format": 1,
        "metric": {
            "points": ["a", "b", "c"],
            "dist": [["0", near, far], [near, "0", far], [far, far, "0"]],
        },
        "p": [f"1/{d}", f"2/{d}", f"{d - 3}/{d}"],
        "q": [f"{d - 1}/{d}", f"1/{d}", "0/1"],
    }
    code, out, err = on_stdin("distance", instance)
    assert code == 0, err
    witness = json.loads(out)["checks"][0]["witnesses"][0]
    # the subset maximum is the total variation, (d - 2) / d
    assert witness == {
        "lp": str(Fraction(10 * d - 29, d * e)),
        "subsets": str(Fraction(d - 2, d)),
    }


def test_an_extension_past_the_digit_limit_exits_zero_with_every_digit(unlimited_str):
    instance = {
        "format": 1,
        "points": ["0", "1"],
        "family": [[], [0], [1]],
        "mu": ["0/1", f"1/{BIG}", f"1/{BIG + 1}"],
    }
    code, out, err = on_stdin("extend", instance)
    assert code == 0, err
    witness = json.loads(out)["checks"][0]["witnesses"][0]
    mass = f"{2 * BIG + 1}/" + unlimited_str(BIG * (BIG + 1))
    assert witness == {
        "mass": mass,
        "atoms": [
            {"points": ["0"], "weight": f"1/{BIG}"},
            {"points": ["1"], "weight": f"1/{BIG + 1}"},
        ],
    }


def test_extend_input_success():
    instance = {
        "format": 1,
        "points": ["0", "1"],
        "family": [[], [0], [1]],
        "mu": ["0/1", "1/2", "1/2"],
    }
    code, out, _ = on_stdin("extend", instance)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["witnesses"][0]["mass"] == "1/1"


def extend_witness(family, mu):
    """An ``extend`` instance on the points a and b: the exit code and the
    first witness."""
    instance = {"format": 1, "points": ["a", "b"], "family": family, "mu": mu}
    code, out, _ = on_stdin("extend", instance)
    return code, json.loads(out)["checks"][0]["witnesses"][0]


def test_extend_input_keeps_each_value_on_its_listed_set():
    code, witness = extend_witness([[1], [0], []], ["0/1", "1/4", "3/4"])
    assert code == 1
    assert witness == "premeasure of the empty set is 3/4, not 0"


def test_extend_input_negative_value_exits_one_with_its_witness():
    family, mu = [[], [0], [1]], ["0/1", "-1/2", "3/2"]
    code, witness = extend_witness(family, mu)
    assert code == 1
    assert witness == "premeasure value -1/2 on 0x1 is negative"


def test_extend_input_atoms_do_not_depend_on_the_listed_order():
    atoms = [
        {"points": ["a"], "weight": "3/4"},
        {"points": ["b"], "weight": "1/4"},
    ]
    for family, mu in (
        ([[], [0], [1]], ["0/1", "3/4", "1/4"]),
        ([[1], [0], []], ["1/4", "3/4", "0/1"]),
    ):
        code, witness = extend_witness(family, mu)
        assert code == 0
        assert witness["atoms"] == atoms


def test_extend_input_repeated_set_with_its_value_is_accepted():
    """A set listed again with its value is accepted; with another value it
    is bad input, the ``extend.repeated-set-with-another-value`` row of
    ``test_inputs.py``."""
    family = [[], [0], [1], [0]]
    code, witness = extend_witness(family, ["0/1", "3/4", "1/4", "3/4"])
    assert code == 0
    assert witness["mass"] == "1/1"


def test_integrate_input_reports_clauses():
    instance = {
        "format": 1,
        "measure": {
            "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
            "weights": {"0": "1/2", "1": "1/2"},
            "mode": "sigma",
        },
        "functions": [{"terms": [["1/2", [0]]]}],
    }
    code, out, _ = on_stdin("integrate", instance)
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "sup-inf" in names and "finite-series" in names


def test_reports_byte_identical_across_runs():
    _, first, _ = finprob(["laws", "--cases", "10", "--seed", "7"])
    _, second, _ = finprob(["laws", "--cases", "10", "--seed", "7"])
    assert first == second


def test_different_seeds_still_pass():
    code1, out1, _ = finprob(["integrate", "--cases", "10", "--seed", "1"])
    code2, out2, _ = finprob(["integrate", "--cases", "10", "--seed", "2"])
    assert code1 == code2 == 0
    assert out1 != out2  # configs differ, so payloads differ


def test_text_format():
    code, out, _ = finprob(["laws", "--cases", "5", "--format", "text"])
    assert code == 0
    assert out.startswith("suite laws: PASS")


def test_input_is_accepted_by_exactly_the_commands_with_an_input_runner(capsys):
    for name, command in COMMANDS.items():
        if command.run_input is None:
            with pytest.raises(SystemExit) as exc:
                run([name, "--input", "/nonexistent.json"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --input" in capsys.readouterr().err
        else:
            code, _, err = finprob([name, "--input", "/nonexistent.json"])
            assert code == 2 and err.startswith("input error: "), name


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_reports_the_suite_config_defaults(name):
    """Options left unset take their ``SuiteConfig`` defaults, and options
    may come before the command."""
    expected = SuiteConfig(cases=1).to_payload()
    for argv in ([name, "--cases", "1"], ["--cases", "1", name]):
        _, out, _ = finprob(argv)
        assert json.loads(out)["config"] == expected


@pytest.mark.parametrize(
    "cases, laws, bijection, sufficiency, fifth", [(20, 20, 8, 2, 4), (1, 1, 1, 1, 1)]
)
def test_each_library_suite_takes_its_share_of_cases(
    cases, laws, bijection, sufficiency, fifth
):
    """Every seeded suite reads its case count from ``config.cases``: the
    laws all of them, the bijection 2/5, sufficiency 1/10, and the
    nonexpansive cases and LP spot checks 1/5 each, but at least one."""
    from finprob import (
        check_bl_monad_nonexpansive,
        check_lipschitz_criterion_equivalence,
        check_monad_laws,
        small_index_sufficiency,
        verify_codensity_bijection,
    )

    config = SuiteConfig(cases=cases)

    def outcomes(checks):
        return {c.name: c.passed + c.failed for c in checks}

    assert set(outcomes(check_monad_laws(config)).values()) == {laws}
    counts = outcomes(verify_codensity_bijection(config))
    assert (counts["round-trip"], counts["uniqueness"]) == (bijection, bijection)
    assert outcomes(small_index_sufficiency(config, 2)) == {
        "determined": sufficiency,
        "reconstruction": sufficiency,
    }
    counts = outcomes(check_bl_monad_nonexpansive(config))
    assert (counts["mult-contraction"], counts["metric-laws"]) == (fifth, fifth)
    spot = check_lipschitz_criterion_equivalence(config).checks[1]
    assert (spot.name, spot.passed + spot.failed) == ("lp-spot-checks", fifth)


def test_help_names_every_command():
    code, out, _ = finprob(["-h"])
    assert code == 0
    for name, command in COMMANDS.items():
        assert name in out
        assert command.help in out


def test_size_at_the_ground_set_cap_runs():
    code, out, _ = finprob(["laws", "--size", "16", "--cases", "3"])
    assert code == 0
    assert json.loads(out)["config"]["max_ground_size"] == 16


def test_valid_benchmark_instances_carry_exactly_the_declared_keys():
    workloads = bench_workloads()
    rng = random.Random(0)
    for kind in ("codensity", "reconstruct", "extend", "integrate", "distance"):
        for _ in range(5):
            assert set(workloads._valid(kind, rng)) == set(COMMANDS[kind].keys), kind


def discrete_distance(n):
    """A distance instance on the discrete metric over ``n`` points, with
    ``p`` and ``q`` the point masses at the first and the last point."""
    return {
        "format": 1,
        "metric": {
            "points": [f"x{i}" for i in range(n)],
            "dist": [["0/1" if i == j else "1/1" for j in range(n)] for i in range(n)],
        },
        "p": ["1/1"] + ["0/1"] * (n - 1),
        "q": ["0/1"] * (n - 1) + ["1/1"],
    }


def test_distance_input_on_seventeen_points_exits_zero():
    """A distribution's label set has no size cap: 17 points is one more
    than a ground set's default cap."""
    code, out, err = on_stdin("distance", discrete_distance(17))
    assert code == 0, err
    values = json.loads(out)["checks"][0]["witnesses"][0]
    assert values == {"lp": "1/1", "subsets": "1/1"}


def test_distance_input_past_the_subset_cap_exits_zero_with_the_lp_alone():
    """Subset enumeration stops at 20 points; past it the LP still runs and
    is checked against the total variation on its own."""
    code, out, err = on_stdin("distance", discrete_distance(21))
    assert code == 0, err
    values = json.loads(out)["checks"][0]["witnesses"][0]
    assert values == {"lp": "1/1"}


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """``run`` parses every call's arguments with one parser per process,
    and a usage error reads the same each time."""
    import argparse

    path = tmp_path / "d.json"
    path.write_text(json.dumps(TWO_POINTS))
    argvs = [
        ["laws", "--cases", "1"],
        ["distance", "--input", str(path)],
        ["integrate", "--cases", "1", "--format", "text"],
        ["--seed", "3", "reconstruct", "--cases", "1"],
    ]
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in argvs * 5:
        code, out, _ = finprob(argv)
        assert code == 0 and out, argv
    assert len(built) <= 1

    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            run(["laws", "--input", "x"])
        errors.append((done.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 and "unrecognized arguments: --input x" in errors[0][1]


def test_the_module_entry_point_reports_bad_input_in_one_line(tmp_path):
    """``python -m finprob`` in a fresh interpreter, so that what reaches
    stderr is exactly what a user sees: one line, no traceback."""
    path = tmp_path / "d.json"
    path.write_bytes(b'{"format": 1, "p": "\xff\xfe"}')
    done = subprocess.run(
        [sys.executable, "-m", "finprob", "distance", "--input", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "input error at $: input is not UTF-8: invalid start byte at byte 20\n"
