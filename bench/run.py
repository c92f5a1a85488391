"""Run one finprob benchmark workload and print its metrics.

    python3 bench/run.py --workload suite-all --seed 0 --seconds 30 --trace 0

Workloads are ``suite-all`` and ``instances``; README.md says what each
one does and why.  The finprob sources are imported from ``src/`` next to
this directory; nothing is installed.

The loop runs whole blocks of operations, each block new, until
``--seconds`` have passed or the input pool is used up.  End-to-end times
are scaled to a fixed machine speed measured during the run (speed.py);
the raw times are printed beside them.

Every line of standard output but the last names one metric with its value
and unit, a raw time, the run's metadata, or a probe result.  The last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the untraced pass is followed by a traced pass over the same
operations, and the metrics are the per-layer ones plus
``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from faults import FAULTS
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("suite-all", "instances")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
SUBPROCESS_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault", choices=sorted(FAULTS), help="install a seeded fault (see faults.py)"
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import finprob, build the inputs, print the raw and scaled seconds taken",
    )
    return parser.parse_args(argv)


def import_finprob() -> None:
    """Import finprob from this checkout's ``src/``, or stop with exit 1."""
    package = SRC / "finprob"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no finprob sources at {package}")
    sys.path.insert(0, str(SRC))
    import finprob

    if Path(finprob.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: finprob was imported from {finprob.__file__}")


def build(workload: str, seed: int, workdir: Path, tracer=None):
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        return workloads.WORKLOADS[workload](seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()


def setup_in_subprocess(workload: str, seed: int) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter: import plus inputs, as
    (raw seconds, scaled seconds)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        check=True,
    )
    raw, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


@dataclass
class Measured:
    """What a pass keeps of each operation: small, fixed-size records, so
    that the process's peak memory does not grow with the operation count."""

    latencies: array = field(default_factory=lambda: array("d"))  # raw, sampling taken out
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    passed: list[bool] = field(default_factory=list)  # the output passed its check
    digests: list[bytes] = field(default_factory=list)  # of each output's repr
    first_block: list = field(default_factory=list)  # outputs, for the report hash
    blocks: int = 0
    elapsed: float = 0.0  # sampling taken out


def measure(blocks, seconds: float, tracer=None, speed: SpeedProbe | None = None) -> Measured:
    """A closed loop with one client: whole blocks, one operation at a time,
    until ``seconds`` have passed or every block has run once.  Each output
    is checked, between operations and outside their latencies."""
    run = Measured()
    spent_before = speed.spent if speed else 0.0
    started = perf_counter()
    for block in blocks:
        for op in block:
            if tracer is not None:
                tracer.op = len(run.passed)
            spent = speed.spent if speed else 0.0
            t0 = perf_counter()
            output = op.run()
            t1 = perf_counter()
            run.latencies.append(t1 - t0 - ((speed.spent - spent) if speed else 0.0))
            run.starts.append(t0)
            run.ends.append(t1)
            run.passed.append(op.check(output))
            run.digests.append(hashlib.sha256(repr(output).encode()).digest())
            if run.blocks == 0:
                run.first_block.append(output)
        run.blocks += 1
        if perf_counter() - started >= seconds:
            break
    run.elapsed = perf_counter() - started - ((speed.spent - spent_before) if speed else 0.0)
    return run


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_probe(probe, tracer=None, first_op: int = 0) -> list:
    outputs = []
    for i, op in enumerate(probe):
        if tracer is not None:
            tracer.op = first_op + i
        outputs.append(op.run())
    return outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup, blocks, probe, tracer = set_up(args, workdir)
        if args.setup_only:
            print(setup[0], setup[1])  # repr, all digits
            return 0
        return run(args, blocks, probe, setup, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workdir: Path):
    """Import finprob and build the inputs.  The time this takes, raw and
    scaled, is one set-up sample.  A traced run takes no speed samples,
    which would land inside its spans."""
    tracer = None
    with contextlib.nullcontext() if args.trace else SpeedProbe() as speed:
        spent = speed.spent if speed else 0.0
        started = perf_counter()
        import_finprob()
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        blocks, probe = build(args.workload, args.seed, workdir, tracer)
        ended = perf_counter()
        raw = ended - started - ((speed.spent - spent) if speed else 0.0)
        setup = (raw, raw * speed.scale(started, ended) if speed else raw)
    return setup, blocks, probe, tracer


def run(args, blocks, probe, setup: tuple[float, float], tracer) -> int:
    import workloads

    setups = [setup]
    if not args.trace:
        setups += [setup_in_subprocess(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    if args.fault:
        FAULTS[args.fault][1]()
    # The input pool lives for the whole run; frozen, it is not traversed by
    # every full collection the measured operations trigger.
    gc.collect()
    gc.freeze()

    if tracer is None:
        with SpeedProbe() as speed:
            untraced = measure(blocks, args.seconds, speed=speed)
    else:
        untraced = measure(blocks, args.seconds)
    probe_outputs = run_probe(probe)
    ran = blocks[: untraced.blocks]
    bad = [not ok for ok in untraced.passed]
    if tracer is not None:
        tracer.install()
        try:
            traced = measure(ran, float("inf"), tracer)
            traced_probe = run_probe(probe, tracer, len(bad))
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"spans-{args.workload}.tsv.gz")
        # the traced pass must give the untraced pass's outputs
        bad = [b or d != again for b, d, again in zip(bad, untraced.digests, traced.digests)]
        if traced_probe != probe_outputs:
            bad = [True] * len(bad)

    report_text = "".join(workloads.output_text(o) for o in untraced.first_block)
    probe_failed = [op.kind for op, out in zip(probe, probe_outputs) if not op.check(out)]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_line_count(),
        "report_sha256": hashlib.sha256(report_text.encode()).hexdigest(),
        "pool_blocks": len(blocks),
        "blocks_run": untraced.blocks,
        "ops": len(bad),
        "probe_attempted": len(probe),
        "probe_failed": probe_failed,
        "fault": args.fault,
    }
    failed = sum(bad)
    attempted = len(bad)
    raw = {}
    if tracer is None:
        scaled = [
            lat * speed.scale(t0, t1)
            for lat, t0, t1 in zip(untraced.latencies, untraced.starts, untraced.ends)
        ]
        meta["kernel_ms_median"] = 1000 * speed.median_kernel_s()
        metrics = time_metrics([s for _, s in setups], scaled, ran)
        raw = time_metrics([r for r, _ in setups], untraced.latencies, ran)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        from tracer import per_layer_metrics

        meta["trace_missing"] = tracer.missing
        metrics = per_layer_metrics(tracer, traced.elapsed - untraced.elapsed)

    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for op, out in zip(probe, probe_outputs):
        print(f"probe {op.kind}: exit {out[0]!r} (want 2)")
    for name, (value, unit) in raw.items():
        print(f"raw {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def time_metrics(setups: list[float], latencies: list[float], blocks) -> dict:
    """The end-to-end times of one run from its set-up times and its
    operations' latencies, in operation order over ``blocks``."""
    block_s, i = [], 0
    for block in blocks:
        block_s.append(sum(latencies[i : i + len(block)]))
        i += len(block)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(block_s), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
