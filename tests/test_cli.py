"""Command-line front end: the generated suites, dispatch, determinism and
diagnostics.  Every outcome of an ``--input`` instance on stdin is a row of
``test_inputs.py``, exit 2 in ``ROWS`` and exits 0 and 1 in ``ACCEPTED``;
two rejections of an instance read from a file are here."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import bench_workloads, finprob

from finprob import cli
from finprob.cli import COMMANDS, run
from finprob.report import SuiteConfig


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


def test_an_internal_failure_exits_three_without_a_traceback(tmp_path, monkeypatch):
    def fault(data):
        raise ValueError("a fault of finprob's own")

    monkeypatch.setattr(cli, "run_reconstruct_input", fault)
    path = tmp_path / "r.json"
    table = {"family": [{"terms": [["1/1", [0]]]}], "values": ["1/1"]}
    instance = {"format": 1, "algebra": {"points": ["0"], "family": [[], [0]]}, "table": table}
    path.write_text(json.dumps(instance))
    code, out, err = finprob(["reconstruct", "--input", str(path)])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: ValueError: ")
    assert "Traceback" not in err


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
