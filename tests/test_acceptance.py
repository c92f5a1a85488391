"""Acceptance suite: every exit criterion at its stated size, all exact.

Each criterion prints one pass/fail line (visible with ``pytest -s``; the
assertions hold regardless).  Stated runtimes are expectations, not asserted
bounds; measured durations are printed alongside.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import bench_workloads

from finprob import (
    Arrow,
    Cone,
    SimplexPoint,
    check_bl_monad_nonexpansive,
    check_lipschitz_criterion_equivalence,
    check_monad_laws,
    discrete_space,
    small_index_sufficiency,
    verify_codensity_bijection,
)
from finprob.report import SuiteConfig
from finprob import cli, serialize


def announce(number, name, ok, started, detail=""):
    duration = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2} {name}: {status} in {duration:.2f}s{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_monad_laws():
    started = time.monotonic()
    checks = check_monad_laws(
        SuiteConfig(seed=0, cases=500, max_denominator=12, max_ground_size=5)
    )
    ok = all(c.ok and c.passed == 500 for c in checks)
    detail = f"{sum(c.passed for c in checks)} law checks"
    announce(1, "monad laws", ok, started, detail)


def test_criterion_02_codensity_bijection():
    started = time.monotonic()
    checks = verify_codensity_bijection(  # 2/5 of 500 cases, on at most 4 points
        SuiteConfig(seed=0, cases=500, max_denominator=12, max_ground_size=4)
    )
    round_trip, naturality = checks[0], checks[1]
    detail = f"{naturality.passed + naturality.failed} triangles checked"
    ok = all(c.ok for c in checks) and round_trip.passed == 200
    announce(2, "codensity bijection", ok, started, detail)


def test_criterion_03_small_index_sufficiency():
    started = time.monotonic()
    (d1, r1), (d2, r2), (d3, r3) = (
        small_index_sufficiency(SuiteConfig(seed=0, cases=500, max_ground_size=4), k)
        for k in (1, 2, 3)
    )
    ok = (not d1.ok) and d2.ok and d3.ok and r1.ok and r2.ok and r3.ok
    ok = ok and all(d.passed + d.failed == 50 for d in (d1, d2, d3))
    announce(
        3,
        "small-index sufficiency",
        ok,
        started,
        f"k=1 undetermined, k=2/3 determined over 50 cases each",
    )


def test_criterion_04_bounded_lipschitz_identity():
    started = time.monotonic()
    checks = {c.name: c for c in cli.run_distance_suite(SuiteConfig(seed=0, cases=500))}
    identity, worked = checks["discrete-identity"], checks["worked-pair"]
    counts = (identity.passed, identity.failed, worked.passed, worked.failed)
    announce(
        4,
        "bounded Lipschitz identity",
        counts == (300, 0, 1, 0),
        started,
        "300 pairs, |A| <= 8, worked pair = 1/3",
    )


def test_criterion_05_lipschitz_criterion_equivalence():
    started = time.monotonic()
    # every space, label set and denominator up to 3; 100 LP spot checks
    sweep = check_lipschitz_criterion_equivalence(SuiteConfig(seed=0, cases=500))
    spot_checks = sweep.checks[1]
    announce(
        5,
        "Lipschitz criterion equivalence",
        sweep.ok
        and sweep.instances == 800691
        and sweep.checks[0].failed == 0
        and spot_checks.passed == 100,
        started,
        f"{sweep.instances} instances, "
        f"{spot_checks.passed + spot_checks.failed} LP spot checks",
    )


def test_criterion_06_nonexpansiveness():
    started = time.monotonic()
    # 100 cases, denominators up to 6, spaces of up to 6 points
    checks = check_bl_monad_nonexpansive(SuiteConfig(seed=0, cases=500))
    # unit-contraction requires d(dirac x, dirac y) == min(d(x, y), 1), so on
    # the discrete space it is the tightness of the unit
    discrete_checks = check_bl_monad_nonexpansive(
        SuiteConfig(seed=0, cases=50), discrete_space(("a", "b", "c", "d"))
    )
    unit, meta = checks[0], checks[1]
    announce(
        6,
        "unit/mult non-expansiveness",
        all(c.ok for c in checks + discrete_checks) and meta.passed == 100,
        started,
        f"{unit.passed + unit.failed} unit pairs, {meta.passed + meta.failed} "
        "meta cases, unit distance tight",
    )


def test_criterion_07_reconstruction():
    started = time.monotonic()
    config = SuiteConfig(seed=0, cases=500)
    by_name = {c.name: c for c in cli.run_reconstruction_suite(config)}
    round_trip = by_name["round-trip"]
    adversarial = by_name["adversarial-detection"]
    ok = (
        all(c.ok for c in by_name.values())
        and round_trip.passed == 300
        and adversarial.passed == 50
    )
    announce(
        7,
        "functional reconstruction",
        ok,
        started,
        "300 round trips, 50 adversarial detections",
    )


def test_criterion_08_extension_machinery():
    started = time.monotonic()
    config = SuiteConfig(seed=0, cases=500)
    by_name = {c.name: c for c in cli.run_extension_suite(config)}
    ok = (
        all(c.ok for c in by_name.values())
        and by_name["slab-calculus"].passed == 500
        and by_name["singleton-extension"].passed == 100
        and by_name["lattice-representation"].passed == 100
    )
    announce(
        8,
        "extension machinery",
        ok,
        started,
        "500 slab pairs, 100 singleton extensions, 100 lattice routes",
    )


def test_criterion_09_integral_properties():
    started = time.monotonic()
    config = SuiteConfig(seed=0, cases=500)
    (properties,) = cli.run_integrate_suite(config)
    ok = properties.ok and properties.passed == 500
    announce(9, "integral properties", ok, started, "500 (P, f, g) triples")


ALL_SEED_0_SHA256 = "a30dcfc2f076d61c422d9b5bfd7efa76fec1250ebfcbd2c56efc7ad547873e86"

# `finprob --help` at 80 columns: it names the ground-set cap and every
# `SuiteConfig` default
HELP_SHA256 = "5d5b72837c5a1ee284c03e365820eff953a0f2cb92e3cf1b68f7b88ef2fe5266"


def test_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.run(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256


def test_criterion_10_determinism():
    started = time.monotonic()
    command = [sys.executable, "-m", "finprob", "all", "--seed", "0"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    first = subprocess.run(command, capture_output=True, text=True, env=env)
    second = subprocess.run(command, capture_output=True, text=True, env=env)
    identical = first.stdout == second.stdout and first.stdout
    passes = first.returncode == 0 and second.returncode == 0
    payload = json.loads(first.stdout) if identical else {}
    announce(
        10,
        "byte-identical reports",
        bool(identical and passes and payload.get("ok")),
        started,
        f"{len(first.stdout)} bytes each",
    )
    # the report's bytes are fixed, not only the same from run to run
    assert hashlib.sha256(first.stdout.encode()).hexdigest() == ALL_SEED_0_SHA256
    # and it keeps the check names and passed counts the benchmark expects
    workloads = bench_workloads()
    checks = payload["checks"]
    assert [c["name"] for c in checks] == workloads.EXPECTED_CHECKS
    assert {c["name"]: c["passed"] for c in checks} == workloads.expected_suite_counts(0)


# The reports of the suites with their own command, pinned byte for byte
# alongside the full report.
SUITE_SEED_0_SHA256 = {
    "codensity": "6badcd135561cdbc3ddf497c29af6fdf8eebc1f469da4477905628aa4f1a2829",
    "distance": "c31a247104f3ca9bf3ba39a9de6351fcd412888bef0eb00d6924bd3932919c0f",
    "extend": "743c80374a34da3272e4f698b3c2c700d776d85e9195b0ec1848b1f49db72099",
    "integrate": "be2e06e58831039d7d577c9e0116f6d2e7546ef3c776023caa5492eabb21fbb4",
    "laws": "b1cb03476d9b80d386125923228734cf604afbbfb13474906a130035e6fc803c",
    "reconstruct": "0f687b068fda0b5b8ce526d4ccbf05e46ab57d0ef8b9b6691d83c44ee31fb3fc",
}


@pytest.mark.parametrize("suite", sorted(SUITE_SEED_0_SHA256))
def test_suite_reports_are_pinned(suite, capsys):
    assert cli.run([suite, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SEED_0_SHA256[suite]


# The `--input` reports of the benchmark's first 20 `instances` blocks at
# seed 0 plus its hostile probes (568 requests), each hashed as its exit code
# and stdout in request order.
INPUT_SEED_0_SHA256 = "4581b7e66b4ba79a2dfe774ee4062daa30e2e112ac6ef930da799bac9268aad2"


def test_input_reports_are_pinned(tmp_path, monkeypatch):
    workloads = bench_workloads()
    monkeypatch.setattr(workloads, "INSTANCE_BLOCKS", 20)
    blocks, probe = workloads.instances(0, tmp_path)
    ops = [op for block in blocks for op in block] + probe
    digest = hashlib.sha256()
    for op in ops:
        code, out = op.run()
        digest.update(f"{code}\n{out}".encode())
    assert len(ops) == 568
    assert digest.hexdigest() == INPUT_SEED_0_SHA256


def _fraction_cone(data, algebra):
    """A cone's wire form loaded by ``Fraction`` weights, one
    :func:`SimplexPoint` per row and per leg (a bare list, or a dict that
    names the arrow's targets)."""

    def point(targets, row):
        return SimplexPoint(targets, [Fraction(v) for v in row])

    legs = []
    for arrow_data, leg in data:
        targets = tuple(arrow_data["targets"])
        by_point = {x: point(targets, row) for x, row in arrow_data["rows"].items()}
        if isinstance(leg, dict):
            assert tuple(leg["labels"]) == targets
            leg = leg["weights"]
        legs.append((Arrow.from_point_rows(algebra, targets, by_point), point(targets, leg)))
    return Cone("reference", tuple(legs))


def test_seeded_bench_cones_load_as_their_fraction_weights(tmp_path, monkeypatch):
    """Every cone of the benchmark's first 20 ``instances`` blocks at seed 0,
    perturbed legs included, loads equal to its ``Fraction`` reading."""
    workloads = bench_workloads()
    monkeypatch.setattr(workloads, "INSTANCE_BLOCKS", 20)
    workloads.instances(0, tmp_path)
    cones = 0
    for b in range(20):
        for i in range(workloads.PER_KIND):  # a block lists its cones first
            data = serialize.loads_instance((tmp_path / f"b{b}-{i}.json").read_text())
            algebra = serialize.load_algebra(data["algebra"])
            loaded = serialize.load_cone(data["cone"], algebra)
            assert loaded.legs == _fraction_cone(data["cone"], algebra).legs
            cones += 1
    assert cones == 100
