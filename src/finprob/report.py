"""Suite configuration, the tally of one check, and the deterministic
machine-readable report that the CLI builds from a command's checks."""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Iterable

from .errors import InputError
from .exact import wire_text
from .setalg import DEFAULT_SIZE_CAP


class Mode(str, enum.Enum):
    """The paper's two readings, measures and finitely additive charges.  On
    a finite algebra they are one object, so no run selects between them.
    The labels survive in two places only: the sections that ``all`` files
    the laws and the bijection under, and the values a format-1 input
    measure's ``"mode"`` key may take."""

    SIGMA = "sigma"
    FINITELY_ADDITIVE = "finitely_additive"


FORMATS = ("json", "text")  # how a report is rendered


@dataclass(frozen=True)
class SuiteConfig:
    """The one configuration of a run; ``to_payload`` is the ``config`` of
    every report.  Each seeded suite is ``suite(config)`` and derives its
    own share of ``cases`` from it; an ``--input`` command reads none of it.

    Defaults match the desk-scale acceptance setup: seed 0, ground sets up to
    five points, denominators up to twelve, five hundred cases.  Ground sets
    are capped at :data:`setalg.DEFAULT_SIZE_CAP` points.
    """

    seed: int = 0
    max_ground_size: int = 5
    max_denominator: int = 12
    cases: int = 500

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be nonnegative", "$.seed")
        for name in ("max_ground_size", "max_denominator", "cases"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive", f"$.{name}")
        if self.max_ground_size > DEFAULT_SIZE_CAP:
            raise InputError(
                f"max_ground_size must be at most {DEFAULT_SIZE_CAP}",
                "$.max_ground_size",
            )

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: int
    failed: int
    witnesses: tuple[Any, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failed == 0


MAX_WITNESSES = 5


def tally(name: str, outcomes: Iterable[tuple[bool, Any]]) -> CheckOutcome:
    """Count ``(ok, witness)`` outcomes into one check.

    Only the first :data:`MAX_WITNESSES` failures keep their witness.  A
    witness given as a zero-argument callable is built only when it is kept,
    so a passing case never pays for formatting one.
    """
    passed = failed = 0
    witnesses = []
    for ok, witness in outcomes:
        if ok:
            passed += 1
        else:
            failed += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(witness() if callable(witness) else witness)
    return CheckOutcome(name, passed, failed, tuple(witnesses))


@dataclass(frozen=True)
class Report:
    """One command's checks plus its configuration and notes, rendered as
    JSON or text.  The CLI builds one per run from the checks its runner
    returns.

    A report holds no timing, so reports are byte-identical across runs of
    the same configuration; the CLI prints wall time to stderr.
    """

    suite: str
    config: dict
    checks: tuple[CheckOutcome, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "format": 1,
            "suite": self.suite,
            "config": self.config,
            "ok": self.ok,
            "notes": list(self.notes),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "failed": c.failed,
                    "witnesses": [_jsonable(w) for w in c.witnesses],
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.passed} passed, {c.failed} failed")
            for w in c.witnesses[:3]:
                lines.append(f"      witness: {_jsonable(w)}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


def _jsonable(value: Any):
    """Best-effort canonical JSON projection of witness values."""
    if isinstance(value, Fraction):
        return wire_text(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
