"""Command-line front end: exit codes, determinism, diagnostics."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finprob
from finprob import cli
from finprob.cli import COMMANDS, run
from finprob.report import SuiteConfig


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(command, path, stdin=None):
    """``python -m finprob COMMAND --input PATH`` in a fresh interpreter, so
    that what reaches stderr is exactly what a user would see."""
    return run_finprob(command, "--input", str(path), stdin=stdin)


def run_finprob(*argv, stdin=None):
    """``python -m finprob ARGV...`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(finprob.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "finprob", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def assert_input_error(done, location):
    """Exit 2 with one stderr line naming ``location`` and no traceback."""
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert f"input error at {location}:" in done.stderr
    assert "Traceback" not in done.stderr


def test_laws_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "laws", "--cases", "20", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suite"] == "laws"


def test_codensity_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "codensity", "--cases", "20")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "sufficiency.k1" in names
    assert "sufficiency.k2" in names


@pytest.mark.parametrize("k", [1, 2])
def test_codensity_small_k_passes_with_distinct_checks(k):
    """k = 1 expects an undetermined reconstruction and k = 2 a determined
    one, each listed once beside the other."""
    env = dict(os.environ, PYTHONPATH=str(Path(finprob.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "finprob", "codensity", "--cases", "50", "--k", str(k)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout
    names = [c["name"] for c in json.loads(done.stdout)["checks"]]
    assert len(names) == len(set(names))
    sufficiency = [name for name in names if name.startswith("sufficiency.")]
    assert sufficiency == ["sufficiency.k1", "sufficiency.k2"]


def test_distance_generated_suite(capsys):
    code, out, _ = run_cli(capsys, "distance", "--cases", "20")
    assert code == 0
    payload = json.loads(out)
    assert any(c["name"] == "worked-pair" for c in payload["checks"])


def test_distance_input_both_methods(tmp_path, capsys):
    instance = {
        "format": 1,
        "metric": {
            "points": ["a", "b"],
            "dist": [["0/1", "1/1"], ["1/1", "0/1"]],
        },
        "p": ["1/1", "0/1"],
        "q": ["0/1", "1/1"],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(
        capsys, "distance", "--input", str(path), "--method", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["witnesses"][0] == {"lp": "1/1", "subsets": "1/1"}


# three points at mutual distance 1/2: the bounded Lipschitz distance of
# these two point masses is 1/2, their total variation 1
HALF = "1/2"
HALF_TRIANGLE = {
    "format": 1,
    "metric": {
        "points": ["a", "b", "c"],
        "dist": [["0/1", HALF, HALF], [HALF, "0/1", HALF], [HALF, HALF, "0/1"]],
    },
    "p": ["1/1", "0/1", "0/1"],
    "q": ["0/1", "1/1", "0/1"],
}


def test_distance_both_bounds_the_lp_by_the_subset_maximum_off_the_discrete_metric(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(HALF_TRIANGLE))
    code, out, _ = run_cli(capsys, "distance", "--input", str(path))
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"] == [{"lp": "1/2", "subsets": "1/1"}]

    real = cli.bl_distance_lp

    def shifted(p, q, space):
        return real(p, q, space) + Fraction(3, 2)

    monkeypatch.setattr(cli, "bl_distance_lp", shifted)
    code, out, _ = run_cli(capsys, "distance", "--input", str(path))
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert (check["passed"], check["failed"]) == (0, 1)
    assert check["witnesses"] == [{"lp": "2/1", "subsets": "1/1"}]


@pytest.mark.parametrize(
    "method, route, value, shifted",
    [("lp", "bl_distance_lp", "1/2", "2/1"), ("subsets", "bl_distance_subsets", "1/1", "5/2")],
)
def test_one_method_alone_is_checked_against_total_variation(
    method, route, value, shifted, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(HALF_TRIANGLE))
    argv = ("distance", "--input", str(path), "--method", method)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"] == [{method: value}]

    real = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda p, q, *space: real(p, q, *space) + Fraction(3, 2))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert (check["passed"], check["failed"]) == (0, 1)
    assert check["witnesses"] == [{method: shifted}]


def test_a_reconstruction_error_in_a_round_trip_fails_round_trip(capsys, monkeypatch):
    real = cli.simple_integral

    def shifted(p, s):  # additive no more on functions of three or more values
        value = real(p, s)
        return value + Fraction(1, 97) if len(set(s.values)) > 2 else value

    monkeypatch.setattr(cli, "simple_integral", shifted)
    code, out, err = run_cli(capsys, "reconstruct", "--seed", "0", "--cases", "40")
    assert code == 1
    assert "internal error" not in err
    round_trip = json.loads(out)["checks"][0]
    assert round_trip["name"] == "round-trip"
    assert round_trip["failed"] > 0
    assert "additivity violated" in round_trip["witnesses"][0]


def test_adversarial_detection_expects_the_one_message_of_each_style(monkeypatch):
    """A reconstruction that reports the atom-mass failure as a failed
    normalization names the wrong clause, so the style-1 cases on algebras
    of more than one atom fail."""
    from finprob import ReconstructionError

    real = cli.reconstruct_measure

    def misreported(functional):
        try:
            return real(functional)
        except ReconstructionError as exc:
            if str(exc).startswith("additivity violated: the ground set"):
                raise ReconstructionError(
                    "normalization violated: the atoms miss total mass one",
                    witness=exc.witness,
                ) from None
            raise

    def detection():
        checks = cli.run_reconstruction_suite(SuiteConfig(seed=0))
        check = next(c for c in checks if c.name == "adversarial-detection")
        return check.passed, check.failed

    assert detection() == (50, 0)
    monkeypatch.setattr(cli, "reconstruct_measure", misreported)
    assert detection() == (38, 12)


def test_reconstruct_input_violation_exits_one(tmp_path, capsys):
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "reconstruct", "--input", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"][0]["witnesses"]


def test_reconstruct_input_success(tmp_path, capsys):
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "reconstruct", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    weights = payload["checks"][0]["witnesses"][0]["weights"]
    assert weights == {"0": "1/4", "1": "3/4"}


TWO_POINT_ALGEBRA = {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]}


def test_reconstruct_input_witness_carries_the_mode_label(tmp_path, capsys):
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance))
    for mode in ("sigma", "finitely_additive"):
        code, out, _ = run_cli(capsys, "reconstruct", "--input", str(path), "--mode", mode)
        assert code == 0
        witness = json.loads(out)["checks"][0]["witnesses"][0]
        assert witness["mode"] == mode
        assert witness["weights"] == {"0": "1/4", "1": "3/4"}


def test_reconstruct_input_missing_indicators_exits_one(tmp_path):
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance))
    done = run_module("reconstruct", path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    check = json.loads(done.stdout)["checks"][0]
    assert (check["name"], check["passed"], check["failed"]) == ("reconstruct", 0, 1)
    assert check["witnesses"][0].endswith("(every atom and the whole set): 1_{1}")


def test_reconstruct_input_conflicting_duplicate_rows_exit_two(tmp_path, capsys):
    """Rows 1 and 3 both give 1_{0} (once as 1/2 + 1/2); equal values are
    accepted, different ones are bad input at the later row."""
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "reconstruct", "--input", str(path))
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"][0]["weights"] == {
        "0": "1/4",
        "1": "3/4",
    }
    instance["table"]["values"][3] = "1/3"
    path.write_text(json.dumps(instance))
    assert_input_error(run_module("reconstruct", path), "$.table.values[3]")


def test_codensity_cone_input_round_trip(tmp_path, capsys):
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
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "codensity", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["naturality"]["failed"] == 0
    weights = by_name["reconstruct"]["witnesses"][0]["weights"]
    assert weights == {"0": "2/5", "1": "3/5"}


def test_codensity_perturbed_cone_input_fails(tmp_path, capsys):
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
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "codensity", "--input", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False


def _relabelled_cone_file(tmp_path, m):
    """A cone on one point over the indicator family and two ``m``-label
    arrows: f with the row (1/3, 1/3, 1/3, 0, ...) and g, f relabelled
    t_i -> t_(i+2 mod m).  The leg at g puts 1/2, 1/4, 1/4 where g puts 1/3
    each, so the triangle from f to g fails."""
    from finprob import Algebra, GroundSet, serialize
    from finprob.codensity import Arrow, cone_of_measure, indicator_family
    from finprob.measure import dirac
    from finprob.monad import SimplexPoint

    alg = Algebra.powerset(GroundSet(("x",)))
    targets = tuple(f"t{i}" for i in range(m))
    row = [Fraction(0)] * m
    shifted = [Fraction(0)] * m
    skewed = [Fraction(0)] * m
    for i, w in enumerate((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))):
        row[i] = shifted[(i + 2) % m] = Fraction(1, 3)
        skewed[(i + 2) % m] = w
    legs = serialize.dump_cone(cone_of_measure(dirac("x", alg), indicator_family(alg)))
    for arrow_row, leg in ((row, row), (shifted, skewed)):
        arrow = Arrow(alg, targets, (SimplexPoint(targets, arrow_row),))
        point = SimplexPoint(targets, leg)
        legs.append([serialize.dump_arrow(arrow), serialize.dump_simplex(point)])
    instance = {"format": 1, "algebra": serialize.dump_algebra(alg), "cone": legs}
    path = tmp_path / f"cone{m}.json"
    path.write_text(json.dumps(instance))
    return path


def test_a_cone_arrow_with_five_labels_exits_two(tmp_path):
    """Naturality would need 5**5 label maps from a 5-label arrow, so the
    cone refuses it instead of checking it in part."""
    done = run_module("codensity", _relabelled_cone_file(tmp_path, 5))
    assert_input_error(done, "$.cone")
    assert "at most 4 target labels" in done.stderr


def test_a_cone_with_four_label_arrows_is_checked(tmp_path):
    done = run_module("codensity", _relabelled_cone_file(tmp_path, 4))
    assert done.returncode == 1
    by_name = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
    assert by_name["naturality"]["failed"] == 1


def test_codensity_input_without_an_atom_indicator_arrow_exits_one(tmp_path):
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
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(instance))
    done = run_module("codensity", path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    by_name = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
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
    path = tmp_path / "r.json"
    path.write_text(json.dumps(table))
    by_table = json.loads(run_module("reconstruct", path).stdout)["checks"][0]
    assert check["witnesses"] == by_table["witnesses"]
    assert check["witnesses"][0] == (
        "table lacks the indicators needed to determine a measure "
        "(every atom and the whole set): 1_{1}"
    )


def test_stdin_input(capsys, monkeypatch):
    import io

    instance = {
        "format": 1,
        "metric": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
        "p": ["1/1", "0/1"],
        "q": ["1/1", "0/1"],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(instance)))
    code, out, _ = run_cli(capsys, "distance", "--input", "-")
    assert code == 0
    assert json.loads(out)["checks"][0]["witnesses"][0]["lp"] == "0/1"


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 1, "metric": 3}')
    code, _, err = run_cli(capsys, "distance", "--input", str(path))
    assert code == 2
    assert "$.metric" in err


def test_distance_input_foreign_simplex_labels_exit_two(tmp_path):
    instance = {
        "format": 1,
        "metric": {
            "points": ["a", "b"],
            "dist": [["0/1", "1/1"], ["1/1", "0/1"]],
        },
        "p": {"labels": ["x", "y"], "weights": ["1/2", "1/2"]},
        "q": ["0/1", "1/1"],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(instance))
    done = run_module("distance", path)
    assert done.returncode == 2
    assert "$.p.labels" in done.stderr
    assert "Traceback" not in done.stderr


TWO_POINTS = {
    "format": 1,
    "metric": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
    "p": ["1/1", "0/1"],
    "q": ["0/1", "1/1"],
}


def test_boolean_rational_exits_two(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dict(TWO_POINTS, p=[True, False])))
    done = run_module("distance", path)
    assert done.returncode == 2
    assert "$.p[0]" in done.stderr
    assert "Traceback" not in done.stderr


def test_boolean_format_version_exits_two(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dict(TWO_POINTS, format=True)))
    done = run_module("distance", path)
    assert done.returncode == 2
    assert "$.format" in done.stderr
    assert "Traceback" not in done.stderr


def test_boolean_point_index_exits_two(tmp_path, capsys):
    instance = {
        "format": 1,
        "points": ["0", "1"],
        "family": [[], [False], [True]],
        "mu": ["0/1", "1/2", "1/2"],
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(instance))
    code, _, err = run_cli(capsys, "extend", "--input", str(path))
    assert code == 2
    assert "$.family[1][0]" in err


def test_non_utf8_input_exits_two(tmp_path):
    path = tmp_path / "d.json"
    path.write_bytes(b'{"format": 1, "p": "\xff\xfe"}')
    done = run_module("distance", path)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert "UTF-8" in done.stderr
    assert "Traceback" not in done.stderr


def test_deeply_nested_input_exits_two(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("[" * 100000 + "]" * 100000)
    done = run_module("integrate", path)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert "nested too deeply" in done.stderr
    assert "Traceback" not in done.stderr


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path):
    path = tmp_path / "d.json"
    text = json.dumps(dict(TWO_POINTS, p=[0, 0]))
    path.write_text(text.replace('"p": [0, 0]', '"p": [' + "1" * 4301 + ", 0]"))
    done = run_module("distance", path)
    assert_input_error(done, "$")
    assert "invalid JSON" in done.stderr


@pytest.mark.parametrize("raw", ["1e0", "1E0", "1e-10000000"])
def test_exponent_notation_is_not_a_rational(tmp_path, raw):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dict(TWO_POINTS, p=[raw, "0/1"])))
    done = run_module("distance", path)
    assert_input_error(done, "$.p[0]")
    assert "exponent notation" in done.stderr


def test_an_internal_failure_exits_three_without_a_traceback(tmp_path, capsys, monkeypatch):
    def fault(config, data):
        raise ValueError("a fault of finprob's own")

    monkeypatch.setattr(cli, "run_reconstruct_input", fault)
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"format": 1}))
    code, out, err = run_cli(capsys, "reconstruct", "--input", str(path))
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
def test_a_violation_past_the_digit_limit_exits_one_with_its_witness(
    tmp_path, command, instance, witness
):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"format": 1, **instance}))
    done = run_module(command, path)
    assert done.returncode == 1
    assert json.loads(done.stdout)["checks"][0]["witnesses"] == [witness]


def test_a_distance_past_the_digit_limit_exits_zero_with_every_digit(
    tmp_path, unlimited_str
):
    instance = {
        "format": 1,
        "metric": {"points": ["0", "1"], "dist": [["0", "1"], ["1", "0"]]},
        "p": [f"1/{BIG}", f"{BIG - 1}/{BIG}"],
        "q": [f"1/{BIG + 1}", f"{BIG}/{BIG + 1}"],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(instance))
    done = run_finprob("distance", "--input", str(path), "--method", "lp")
    assert done.returncode == 0, done.stderr
    witness = json.loads(done.stdout)["checks"][0]["witnesses"][0]
    assert witness == {"lp": "1/" + unlimited_str(BIG * (BIG + 1))}


def test_a_distance_with_huge_denominators_exits_zero_with_its_exact_value(tmp_path):
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
    path = tmp_path / "d.json"
    path.write_text(json.dumps(instance))
    done = run_finprob("distance", "--input", str(path), "--method", "lp")
    assert done.returncode == 0, done.stderr
    witness = json.loads(done.stdout)["checks"][0]["witnesses"][0]
    assert witness == {"lp": str(Fraction(10 * d - 29, d * e))}


def test_an_extension_past_the_digit_limit_exits_zero_with_every_digit(
    tmp_path, unlimited_str
):
    instance = {
        "format": 1,
        "points": ["0", "1"],
        "family": [[], [0], [1]],
        "mu": ["0/1", f"1/{BIG}", f"1/{BIG + 1}"],
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(instance))
    done = run_module("extend", path)
    assert done.returncode == 0, done.stderr
    witness = json.loads(done.stdout)["checks"][0]["witnesses"][0]
    mass = f"{2 * BIG + 1}/" + unlimited_str(BIG * (BIG + 1))
    assert witness == {
        "mass": mass,
        "atoms": [
            {"points": ["0"], "weight": f"1/{BIG}"},
            {"points": ["1"], "weight": f"1/{BIG + 1}"},
        ],
    }


def test_unreadable_input_exits_two(capsys):
    code, _, err = run_cli(capsys, "distance", "--input", "/nonexistent.json")
    assert code == 2
    assert "input error" in err


def test_extend_input_success(tmp_path, capsys):
    instance = {
        "format": 1,
        "points": ["0", "1"],
        "family": [[], [0], [1]],
        "mu": ["0/1", "1/2", "1/2"],
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "extend", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["witnesses"][0]["mass"] == "1/1"


def extend_file(tmp_path, family, mu):
    """An ``extend`` instance on the points a and b."""
    instance = {"format": 1, "points": ["a", "b"], "family": family, "mu": mu}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(instance))
    return path


def extend_witness(capsys, tmp_path, family, mu):
    path = extend_file(tmp_path, family, mu)
    code, out, _ = run_cli(capsys, "extend", "--input", str(path))
    return code, json.loads(out)["checks"][0]["witnesses"][0]


def test_extend_input_keeps_each_value_on_its_listed_set(tmp_path, capsys):
    code, witness = extend_witness(
        capsys, tmp_path, [[1], [0], []], ["0/1", "1/4", "3/4"]
    )
    assert code == 1
    assert witness == "premeasure of the empty set is 3/4, not 0"


def test_extend_input_atoms_do_not_depend_on_the_listed_order(tmp_path, capsys):
    atoms = [
        {"points": ["a"], "weight": "3/4"},
        {"points": ["b"], "weight": "1/4"},
    ]
    for family, mu in (
        ([[], [0], [1]], ["0/1", "3/4", "1/4"]),
        ([[1], [0], []], ["1/4", "3/4", "0/1"]),
    ):
        code, witness = extend_witness(capsys, tmp_path, family, mu)
        assert code == 0
        assert witness["atoms"] == atoms


def test_extend_input_repeated_set_must_repeat_its_value(tmp_path, capsys):
    family = [[], [0], [1], [0]]
    code, witness = extend_witness(capsys, tmp_path, family, ["0/1", "3/4", "1/4", "3/4"])
    assert code == 0
    assert witness["mass"] == "1/1"
    path = extend_file(tmp_path, family, ["0/1", "3/4", "1/4", "1/2"])
    done = run_module("extend", path)
    assert_input_error(done, "$.mu[3]")
    assert "value 1/2 conflicts with 3/4 given earlier for the same set" in done.stderr


SEVENTEEN_POINTS = [f"x{i}" for i in range(17)]


@pytest.mark.parametrize(
    "command, instance, location",
    [
        ("extend", {"points": SEVENTEEN_POINTS, "family": [[]], "mu": ["0/1"]}, "$.points"),
        (
            "reconstruct",
            {
                "algebra": {"points": SEVENTEEN_POINTS, "family": [[]]},
                "table": {"family": [], "values": []},
            },
            "$.algebra.points",
        ),
    ],
)
def test_an_input_ground_set_past_the_cap_exits_two(tmp_path, command, instance, location):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"format": 1, **instance}))
    done = run_module(command, path)
    assert_input_error(done, location)
    assert done.stderr == f"input error at {location}: ground set of size 17 exceeds cap 16\n"


def test_integrate_input_reports_clauses(tmp_path, capsys):
    instance = {
        "format": 1,
        "measure": {
            "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
            "weights": {"0": "1/2", "1": "1/2"},
            "mode": "sigma",
        },
        "functions": [{"terms": [["1/2", [0]]]}],
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "integrate", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "sup-inf" in names and "finite-series" in names


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
    done = run_module("integrate", path)
    assert_input_error(done, "$.measure.weights.2")
    assert done.stderr.endswith(": key '2' names no atom\n")


def test_codensity_input_rejects_a_row_that_names_no_ground_point(tmp_path):
    from finprob import Algebra, GroundSet, cone_of_measure, indicator_family, uniform
    from finprob import serialize

    alg = Algebra.powerset(GroundSet(("0", "1")))
    cone = serialize.dump_cone(cone_of_measure(uniform(alg), indicator_family(alg)))
    cone[0][0]["rows"]["z"] = cone[0][0]["rows"]["0"]
    instance = {"format": 1, "algebra": serialize.dump_algebra(alg), "cone": cone}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(instance))
    done = run_module("codensity", path)
    assert_input_error(done, "$.cone[0][0].rows.z")
    assert done.stderr.endswith(": key 'z' names no ground point\n")


def test_integrate_input_rejects_an_unknown_measure_mode(tmp_path, capsys):
    instance = {
        "format": 1,
        "measure": {
            "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
            "weights": {"0": "1/2", "1": "1/2"},
            "mode": ["x"],
        },
        "functions": [{"terms": [["1/2", [0]]]}],
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "integrate", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "input error at $.measure.mode: unknown mode ['x']\n"


def test_reports_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "laws", "--cases", "10", "--seed", "7")
    _, second, _ = run_cli(capsys, "laws", "--cases", "10", "--seed", "7")
    assert first == second


def test_different_seeds_still_pass(capsys):
    code1, out1, _ = run_cli(capsys, "integrate", "--cases", "10", "--seed", "1")
    code2, out2, _ = run_cli(capsys, "integrate", "--cases", "10", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 != out2  # configs differ, so payloads differ


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "laws", "--cases", "5", "--format", "text")
    assert code == 0
    assert out.startswith("suite laws: PASS")


def test_mode_flag_runs_charge_suite(capsys):
    code, out, _ = run_cli(
        capsys, "laws", "--cases", "10", "--mode", "finitely_additive"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["name"].startswith("finitely_additive.") for c in payload["checks"])


def test_empty_instance_is_not_a_request_for_the_generated_suite():
    done = run_module("distance", "-", stdin="{}")
    assert_input_error(done, "$.metric")
    assert done.stdout == ""


def test_commands_without_an_input_runner_reject_input(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(TWO_POINTS))
    for command in ("laws", "all"):
        done = run_module(command, path)
        assert done.returncode == 2
        assert "unrecognized arguments: --input" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


def test_input_is_accepted_by_exactly_the_commands_with_an_input_runner(capsys):
    for name, command in COMMANDS.items():
        if command.run_input is None:
            with pytest.raises(SystemExit) as exc:
                run([name, "--input", "/nonexistent.json"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --input" in capsys.readouterr().err
        else:
            code, _, err = run_cli(capsys, name, "--input", "/nonexistent.json")
            assert code == 2 and err.startswith("input error: "), name


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_reports_the_suite_config_defaults(capsys, name):
    """Options left unset take their ``SuiteConfig`` defaults, and options
    may come before the command."""
    expected = SuiteConfig(cases=1).to_payload()
    for argv in ([name, "--cases", "1"], ["--cases", "1", name]):
        _, out, _ = run_cli(capsys, *argv)
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
    done = run_finprob("-h")
    assert done.returncode == 0
    for name, command in COMMANDS.items():
        assert name in done.stdout
        assert command.help in done.stdout


@pytest.mark.parametrize("command", ["laws", "reconstruct", "integrate"])
def test_size_above_the_ground_set_cap_exits_two(command):
    done = run_finprob(command, "--size", "40", "--cases", "50")
    assert_input_error(done, "$.max_ground_size")
    assert done.stdout == ""


def test_size_at_the_ground_set_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "laws", "--size", "16", "--cases", "3")
    assert code == 0
    assert json.loads(out)["config"]["max_ground_size"] == 16


def test_empty_cone_exits_two(tmp_path):
    instance = {
        "format": 1,
        "algebra": {"points": ["0", "1"], "family": [[], [0], [1], [0, 1]]},
        "cone": [],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(instance))
    assert_input_error(run_module("codensity", path), "$.cone")


def test_non_string_labels_exit_two(tmp_path):
    metric = dict(TWO_POINTS["metric"], points=[0, 1])
    q = {"labels": ["a", 1], "weights": ["0/1", "1/1"]}
    algebra = {"points": ["0", 1], "family": [[]]}
    cases = [
        ("distance", dict(TWO_POINTS, metric=metric), "$.metric.points[0]"),
        ("distance", dict(TWO_POINTS, q=q), "$.q.labels[1]"),
        ("reconstruct", {"algebra": algebra, "table": {}}, "$.algebra.points[1]"),
    ]
    for i, (command, instance, location) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(dict(instance, format=1)))
        assert_input_error(run_module(command, path), location)


def test_unknown_top_level_key_exits_two(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dict(TWO_POINTS, bogus=1)))
    assert_input_error(run_module("distance", path), "$.bogus")


def test_valid_benchmark_instances_carry_exactly_the_declared_keys():
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    rng = random.Random(0)
    for kind in ("codensity", "reconstruct", "extend", "integrate", "distance"):
        for _ in range(5):
            assert set(workloads._valid(kind, rng)) == set(COMMANDS[kind].keys), kind


def discrete_distance_file(tmp_path, n):
    """A distance instance on the discrete metric over ``n`` points, with
    ``p`` and ``q`` the point masses at the first and the last point."""
    instance = {
        "format": 1,
        "metric": {
            "points": [f"x{i}" for i in range(n)],
            "dist": [["0/1" if i == j else "1/1" for j in range(n)] for i in range(n)],
        },
        "p": ["1/1"] + ["0/1"] * (n - 1),
        "q": ["0/1"] * (n - 1) + ["1/1"],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(instance))
    return path


def test_distance_input_on_seventeen_points_exits_zero(tmp_path):
    """A distribution's label set has no size cap: 17 points is one more
    than a ground set's default cap."""
    done = run_module("distance", discrete_distance_file(tmp_path, 17))
    assert done.returncode == 0, done.stderr
    values = json.loads(done.stdout)["checks"][0]["witnesses"][0]
    assert values == {"lp": "1/1", "subsets": "1/1"}


def test_distance_input_past_the_subset_cap_exits_two(tmp_path):
    """Subset enumeration stops at 20 points; the default ``--method both``
    names the cap and the LP method instead of raising."""
    done = run_module("distance", discrete_distance_file(tmp_path, 21))
    assert_input_error(done, "$.metric.points")
    assert "capped at 20 points" in done.stderr
    assert "--method lp" in done.stderr
