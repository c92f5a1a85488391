"""Spans around finprob's layers, recorded from outside the package.

Each wrapped function records one span per call: its layer name, start,
end, the enclosing span and the id of the benchmark operation that caused
it (-1 for set-up).  Spans are kept in memory in flat arrays and written
when the run ends.  A layer's self time is its spans' durations minus the
time their child spans cover.  Work counts (LP shapes, triangles, bytes)
are read off the wrapped calls' arguments and results.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from finprob import (
    cli,
    codensity,
    gen,
    integrate,
    linprog,
    lipmetric,
    measure,
    monad,
    report,
    represent,
    serialize,
    setalg,
)

from patch import rebind, restore

SUITES = {
    "run_laws": "laws",
    "run_codensity": "codensity",
    "run_distance_suite": "distance",
    "run_lipschitz_equivalence": "lipschitz-equivalence",
    "run_nonexpansive": "nonexpansive",
    "run_reconstruction_suite": "reconstruct",
    "run_extension_suite": "extend",
    "run_integrate_suite": "integrate",
}

LP_SIZE_BUCKETS = ((1, 3), (4, 6), (7, 9))  # no workload solves larger LPs


def _den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def _lp_shape(tracer, index, args, result) -> None:
    c, a_ub = args[0], args[1]
    n, m = len(c), len(a_ub)
    tracer.count["linprog.tableau_cells"] += (m + 1) * (n + m + 1)
    bits = max(_den_bits([result.value]), _den_bits(result.solution))
    tracer.count["linprog.den_bits_max"] = max(tracer.count["linprog.den_bits_max"], bits)
    for lo, hi in LP_SIZE_BUCKETS:
        if lo <= n <= hi:
            tracer.lp_bucket.append(index)
            tracer.lp_bucket_of.append(LP_SIZE_BUCKETS.index((lo, hi)))


def _subset_terms(tracer, index, args, result) -> None:
    tracer.count["lipmetric.subset_terms"] += 1 << len(args[0].labels)


def _sweep(tracer, index, args, result) -> None:
    tracer.count["lipmetric.sweep_instances"] += result.instances


def _triangles(tracer, index, args, result) -> None:
    tracer.count["codensity.triangles"] += result.triangles


def _bytes_in(tracer, index, args, result) -> None:
    tracer.count["serialize.bytes_in"] += len(args[0].encode())


def _bytes_out(tracer, index, args, result) -> None:
    tracer.count["report.bytes_out"] += len(result.encode())


def _exit_code(tracer, index, args, result) -> None:
    tracer.count[f"cli.exit.{result}"] += 1


# (module, attribute, layer name, hook) for every wrapped free function
NAMED_TARGETS = [
    (linprog, "maximize", "linprog.maximize", _lp_shape),
    (lipmetric, "bl_distance_lp_witness", "lipmetric.bl_distance_lp", None),
    (lipmetric, "bl_distance_subsets", "lipmetric.bl_distance_subsets", _subset_terms),
    (lipmetric, "check_lipschitz_criterion_equivalence", "lipmetric.sweep", _sweep),
    (lipmetric, "check_bl_monad_nonexpansive", "lipmetric.nonexpansive", None),
    (codensity, "check_cone_naturality", "codensity.naturality", _triangles),
    (codensity, "reconstruct_from_cone", "codensity.reconstruct_from_cone", None),
    (codensity, "cone_of_measure", "codensity.cone_of_measure", None),
    (monad, "map_simplex", "monad.map_simplex", None),
    (monad, "check_monad_laws", "monad.check_monad_laws", None),
    (represent, "reconstruct_measure", "represent.reconstruct", None),
    (represent, "reconstruct_charge", "represent.reconstruct", None),
    (represent, "daniell_stone", "represent.daniell_stone", None),
    (represent, "caratheodory_extend", "represent.caratheodory_extend", None),
    (represent, "slab_intersect", "represent.slab", None),
    (represent, "slab_subtract", "represent.slab", None),
    (integrate, "check_integral_properties", "integrate.check_integral_properties", None),
    (integrate, "simple_integral", "integrate.simple_integral", None),
    (measure, "pushforward", "measure.pushforward", None),
    (measure, "validate", "measure.validate", None),
    (serialize, "loads_instance", "serialize.loads_instance", _bytes_in),
    (setalg, "generate_algebra", "setalg.generate_algebra", None),
    (cli, "run", "cli.run", _exit_code),
] + [(cli, fn, f"cli.suite.{suite}", None) for fn, suite in SUITES.items()]


def _targets():
    """(function, layer name, hook) for every wrapped free function, and the
    names of targets the program no longer defines, which read 0."""
    targets, missing = [], []
    for module, attr, layer, hook in NAMED_TARGETS:
        fn = getattr(module, attr, None)
        if inspect.isfunction(fn):
            targets.append((fn, layer, hook))
        else:
            missing.append(f"{module.__name__}.{attr}")
    targets += [
        (fn, "serialize.load", None)
        for name, fn in vars(serialize).items()
        if name.startswith("load_") and inspect.isfunction(fn)
    ]
    targets += [
        (fn, "gen", None)
        for name, fn in vars(gen).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == gen.__name__
    ]
    return targets, missing


class Tracer:
    """Records spans while installed; ``op`` is the current operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.count: Counter = Counter()
        self.errors: Counter = Counter()
        self.lp_bucket = array("i")  # span index of each bucketed LP solve
        self.lp_bucket_of = array("b")
        self.missing: list[str] = []
        self._undo: list = []

    def wrap(self, fn, name: str, hook=None):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, op_id = (
            self.name_id, self.start, self.end, self.parent, self.op_id,
        )
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[index] = perf_counter()
                stack.pop()
                tracer.errors[name] += 1
                raise
            end[index] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(tracer, index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets, self.missing = _targets()
        for fn, name, hook in targets:
            self._undo += rebind(fn, self.wrap(fn, name, hook))
        render = vars(report.Report).get("render")
        if render is None:
            self.missing.append("finprob.report.Report.render")
        else:
            report.Report.render = self.wrap(render, "report.render", _bytes_out)
            self._undo.append((report.Report, "render", render))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], list[float]]:
        """Self time per layer name, and per span."""
        n = len(self.name_id)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        own = [end[i] - start[i] - child[i] for i in range(n)]
        by_name: dict[str, float] = defaultdict(float)
        for i in range(n):
            by_name[self.names[self.name_id[i]]] += own[i]
        return by_name, own

    def calls(self) -> Counter:
        per_id = Counter(self.name_id)
        return Counter({self.names[i]: c for i, c in per_id.items()})

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.name_id)):
                out.write(
                    f"{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op_id[i]}\n"
                )


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    self_s, own = tracer.self_times()
    calls = tracer.calls()
    count = tracer.count
    m: dict[str, tuple[float, str]] = {}

    def put_calls(name, layer):
        m[f"{name}.calls"] = (calls[layer], "count")

    def put_self(name, layer):
        m[f"{name}.self_s"] = (self_s.get(layer, 0.0), "s")

    put_calls("linprog.maximize", "linprog.maximize")
    put_self("linprog.maximize", "linprog.maximize")
    buckets = [0.0] * len(LP_SIZE_BUCKETS)
    for index, bucket in zip(tracer.lp_bucket, tracer.lp_bucket_of):
        buckets[bucket] += own[index]
    for (lo, hi), value in zip(LP_SIZE_BUCKETS, buckets):
        m[f"linprog.maximize.self_s.n{lo:02d}-{hi:02d}"] = (value, "s")
    m["linprog.tableau_cells"] = (count["linprog.tableau_cells"], "count")
    m["linprog.den_bits_max"] = (count["linprog.den_bits_max"], "bits")
    distances = calls["lipmetric.bl_distance_lp"]
    m["linprog.solves_per_distance"] = (
        calls["linprog.maximize"] / distances if distances else 0.0,
        "ratio",
    )
    for layer in ("lipmetric.bl_distance_lp", "lipmetric.bl_distance_subsets"):
        put_calls(layer, layer)
        put_self(layer, layer)
    m["lipmetric.subset_terms"] = (count["lipmetric.subset_terms"], "count")
    put_self("lipmetric.sweep", "lipmetric.sweep")
    m["lipmetric.sweep_instances"] = (count["lipmetric.sweep_instances"], "count")
    put_self("lipmetric.nonexpansive", "lipmetric.nonexpansive")
    put_calls("codensity.naturality", "codensity.naturality")
    put_self("codensity.naturality", "codensity.naturality")
    m["codensity.triangles"] = (count["codensity.triangles"], "count")
    for layer in (
        "codensity.reconstruct_from_cone",
        "codensity.cone_of_measure",
    ):
        put_self(layer, layer)
    put_calls("monad.map_simplex", "monad.map_simplex")
    put_self("monad.map_simplex", "monad.map_simplex")
    put_self("monad.check_monad_laws", "monad.check_monad_laws")
    put_calls("represent.reconstruct", "represent.reconstruct")
    put_self("represent.reconstruct", "represent.reconstruct")
    m["represent.reconstruct.errors"] = (tracer.errors["represent.reconstruct"], "count")
    for layer in (
        "represent.daniell_stone",
        "represent.caratheodory_extend",
        "represent.slab",
        "integrate.check_integral_properties",
    ):
        put_self(layer, layer)
    put_calls("integrate.simple_integral", "integrate.simple_integral")
    put_self("integrate.simple_integral", "integrate.simple_integral")
    put_calls("measure.pushforward", "measure.pushforward")
    put_self("measure.validate", "measure.validate")
    put_self("serialize.loads_instance", "serialize.loads_instance")
    put_self("serialize.load", "serialize.load")
    m["serialize.bytes_in"] = (count["serialize.bytes_in"], "B")
    put_self("report.render", "report.render")
    m["report.bytes_out"] = (count["report.bytes_out"], "B")
    put_self("cli.run", "cli.run")
    for code in (0, 1, 2):
        m[f"cli.exit.{code}"] = (count[f"cli.exit.{code}"], "count")
    m["cli.exceptions"] = (tracer.errors["cli.run"], "count")
    put_self("gen", "gen")
    put_calls("setalg.generate_algebra", "setalg.generate_algebra")
    put_self("setalg.generate_algebra", "setalg.generate_algebra")
    totals: dict[str, float] = defaultdict(float)
    for i in range(len(tracer.name_id)):
        totals[tracer.names[tracer.name_id[i]]] += tracer.end[i] - tracer.start[i]
    for suite in SUITES.values():
        m[f"cli.suite.{suite}.s"] = (totals.get(f"cli.suite.{suite}", 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m

