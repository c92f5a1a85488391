"""The pass/fail tally behind every check and the bytes of a JSON report."""

import json
from fractions import Fraction as F

from finprob import cli, gen
from finprob.report import MAX_WITNESSES, CheckOutcome, Report, SuiteConfig, _json, tally


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


def test_json_reports_have_the_bytes_of_the_indented_encoder():
    """The report's JSON writer lays out every kind of value as
    ``json.dumps(sort_keys=True, indent=2)`` does."""
    values = [
        {},
        [],
        (),
        {"b": [], "a": {}},
        [[], {}, [[]], [{}]],
        {"z": {"y": [1, {"x": None}]}, "a": [True, False, None]},
        ["ascii", "café", "中文", "\U0001f600", "tab\tnew\nline", "\x00\x1f\x7f"],
        ['q"b\\', "\u2028", "\ud800"],
        {"é": 1, "\x01": 2, "": 3},
        [0, -7, 10**30, 0.5, -1e-300, 1e300, float("inf"), float("-inf"), float("nan")],
        ("tuple", ("nested", ())),
        3,
        "plain",
        None,
    ]
    for value in values:
        assert _json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)
    report = Report("laws", SuiteConfig().to_payload(), cli.run_laws(SuiteConfig(cases=20)))
    expected = json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"
    assert report.render("json") == expected


def test_a_failing_check_renders_its_witnesses_as_text_and_json():
    """The text form shows the first three witnesses; JSON writes a
    ``Fraction`` as ``"p/q"``, keys as strings, ``None`` as null and any
    other object as its repr."""

    class Opaque:
        def __repr__(self):
            return "<opaque>"

    witnesses = (F(1, 3), {1: F(1, 2)}, None, Opaque())
    report = Report("sample", {}, (CheckOutcome("sample", 0, 4, witnesses),))
    assert report.render("text") == (
        "suite sample: FAIL\n"
        "  [FAIL] sample: 0 passed, 4 failed\n"
        "      witness: 1/3\n"
        "      witness: {'1': '1/2'}\n"
        "      witness: None\n"
    )
    assert report.render("json") == """{
  "checks": [
    {
      "failed": 4,
      "name": "sample",
      "passed": 0,
      "witnesses": [
        "1/3",
        {
          "1": "1/2"
        },
        null,
        "<opaque>"
      ]
    }
  ],
  "config": {},
  "format": 1,
  "notes": [],
  "ok": false,
  "suite": "sample"
}
"""
