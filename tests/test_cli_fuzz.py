"""A Hypothesis fuzz of the five ``--input`` commands.

Each example takes a valid instance from ``bench/workloads.py``, applies one
to three random edits and runs the command on the result in process.  An
edit replaces a value by a similar one (a rational string for a string, an
integer for an integer) or by a small JSON value, copies another value of
the instance over it, deletes or duplicates it, or extends a list or an
object; one example in ten also truncates the text.  Whatever the edits, the exit code is 0, 1 or
2, no exception escapes ``cli.run``, and stderr carries no traceback.

Hypothesis draws a seed and the edits come from ``random.Random(seed)``, so
every value of the instance is equally likely to be edited.
"""

import contextlib
import copy
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import bench_workloads

from finprob import cli

KINDS = ("codensity", "reconstruct", "extend", "integrate", "distance")


def _valid_instances():
    workloads = bench_workloads()
    rng = random.Random(0)
    return [(kind, workloads._valid(kind, rng)) for kind in KINDS for _ in range(3)]


VALID = _valid_instances()

# Small JSON values, and keys, that resemble the instances' own.
NEAR = ["x0", "0", "", " 1/2", 0, 1, 2, 9, -1, 1.5, float("nan"), None, True, [], {}]
KEYS = ["", "points", "family", "weights", "terms", "labels", "mode", "format"]


def _near(rng, old):
    """A value like ``old``: a rational string for a string, an index for
    an integer."""
    if isinstance(old, str):
        return f"{rng.randint(-1, 3)}/{rng.randint(0, 4)}"
    if isinstance(old, int):
        return rng.choice((-1, 0, 1, 2, 5, 2**70, True))
    return rng.choice(NEAR)


def _value(rng, depth=0):
    """A small JSON value, mostly one of ``NEAR``."""
    roll = rng.random()
    if depth > 1 or roll < 0.6:
        return rng.choice(NEAR)
    if roll < 0.8:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randint(0, 2))}


def _slots(node):
    """``(container, key)`` for every value below ``node``."""
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            yield node, key
            yield from _slots(node[key])


def _edit(rng, instance):
    """One random edit of ``instance``, in place."""
    slots = list(_slots(instance))
    node, key = rng.choice(slots)
    edit = rng.choice(("near", "value", "copy", "delete", "duplicate", "extend"))
    if edit == "near":
        node[key] = _near(rng, node[key])
    elif edit == "value":
        node[key] = _value(rng)
    elif edit == "copy":
        source, source_key = rng.choice(slots)
        node[key] = copy.deepcopy(source[source_key])
    elif edit == "delete":
        del node[key]
    elif edit == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif edit == "duplicate":
        node[rng.choice(list(node))] = copy.deepcopy(node[key])
    elif isinstance(node[key], list):
        node[key].append(_value(rng))
    elif isinstance(node[key], dict):
        node[key][rng.choice(KEYS)] = _value(rng)


def _run(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([command, "--input", str(path)])
    return code, err.getvalue()


@settings(max_examples=500)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_instances_exit_zero_one_or_two(tmp_path_factory, seed):
    rng = random.Random(seed)
    command, valid = rng.choice(VALID)
    instance = {"format": 1, **copy.deepcopy(valid)}
    for _ in range(rng.randint(1, 3)):
        _edit(rng, instance)
    text = json.dumps(instance).encode()
    if rng.randrange(10) == 0:
        text = text[: rng.randint(0, len(text))]
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(text)
    code, err = _run(command, path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
