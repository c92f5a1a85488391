"""JSON wire formats for every instance type, bit-exact.

Rationals travel as ``"p/q"`` strings (:func:`~finprob.exact.wire_text`,
every digit included).  Simplex weights are read straight to integer
numerators (:func:`parse_rational`), with ``Fraction``'s grammar as the
fallback for any other spelling, and a cone loads each distinct bare-list
row once per call.  Subsets are sorted point-index
arrays.  Dumps write families sorted by their bit-vector encoding, so they
are canonical and byte-stable; loads keep a family in the order the file
lists it.  This is the one input boundary: a loader checks the JSON
shapes, the value type's constructor checks the values, and :func:`_build`
alone makes a rejected value an :class:`InputError` with a JSON path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Any

from .codensity import Arrow, Cone
from .errors import FinprobError, InputError
from .exact import wire_text
from .integrate import SimpleFunction
from .lipmetric import FiniteMetricSpace
from .measure import Measure, simplex_algebra
from .report import Mode
from .represent import Functional
from .setalg import DEFAULT_SIZE_CAP, Algebra, GroundSet, SemiRing

FORMAT_VERSION = 1


def parse_fraction(raw: Any, location: str) -> Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if not isinstance(raw, str):
        raise InputError(f"expected a 'p/q' string, got {type(raw).__name__}", location)
    if "e" in raw or "E" in raw:  # Fraction would expand 1e-10000000 digit by digit
        raise InputError(f"bad rational {raw!r}: exponent notation is not accepted", location)
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {raw!r}: {exc}", location) from None


def parse_rational(raw: Any, location: str) -> tuple[int, int]:
    """``(num, den)`` with ``den > 0`` and ``num / den`` the value
    :func:`parse_fraction` gives ``raw``, not necessarily in lowest terms.

    ASCII digits, optionally followed by ``/`` and ASCII digits naming a
    nonzero denominator, become ``int``s directly; every other input
    (signs, spaces, decimals, other digits, JSON numbers, integers past
    the int digit limit) is parsed, or rejected, by :func:`parse_fraction`.
    """
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.isdigit() and (not slash or den.isdigit() and den.strip("0")):
            try:
                return int(num), int(den) if slash else 1
            except ValueError:  # past the int digit limit: parse_fraction says so
                pass
    value = parse_fraction(raw, location)
    return value.numerator, value.denominator


def _expect(data: Any, kind: type, location: str):
    if not isinstance(data, kind):
        raise InputError(
            f"expected {kind.__name__}, got {type(data).__name__}", location
        )
    return data


def _field(data: dict, key: str, location: str):
    if key not in data:
        raise InputError(f"missing required field {key!r}", location)
    return data[key]


def _build(location: str, make, *args):
    """``make(*args)``, with a rejected value raised as an :class:`InputError`
    at ``location``; one from a nested loader keeps its own location."""
    try:
        return make(*args)
    except InputError:
        raise
    except (ValueError, FinprobError) as exc:
        raise InputError(str(exc), location) from None


def _only_keys(raw: dict, keys, what: str, location: str) -> None:
    """Reject a key of ``raw`` outside ``keys``: it names no ``what``."""
    for key in raw:
        if key not in keys:
            raise InputError(f"key {key!r} names no {what}", f"{location}.{key}")


def enter_once(table: dict, key, value: Fraction, what: str, location: str) -> None:
    """Set ``table[key] = value``; a key listed again must repeat its value."""
    if table.setdefault(key, value) != value:
        raise InputError(
            f"value {value} conflicts with {table[key]} given earlier for the same {what}",
            location,
        )


def _labels(data: Any, location: str) -> list[str]:
    """A list of point labels, each a string."""
    labels = _expect(data, list, location)
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise InputError(
                f"label must be a string, got {type(label).__name__}", f"{location}[{i}]"
            )
    return labels


# -- ground sets, families, algebras ---------------------------------------


def dump_ground(ground: GroundSet) -> list[str]:
    return list(ground.points)


def load_ground(data: Any, location: str = "$.points") -> GroundSet:
    ground = _build(location, GroundSet, tuple(_labels(data, location)))
    if ground.size > DEFAULT_SIZE_CAP:
        message = f"ground set of size {ground.size} exceeds cap {DEFAULT_SIZE_CAP}"
        raise InputError(message, location)
    return ground


def _mask_to_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _indices_to_mask(indices: Any, ground: GroundSet, location: str) -> int:
    items = _expect(indices, list, location)
    mask = 0
    for pos, idx in enumerate(items):
        if (
            not isinstance(idx, int)
            or isinstance(idx, bool)
            or not 0 <= idx < ground.size
        ):
            raise InputError(f"bad point index {idx!r}", f"{location}[{pos}]")
        mask |= 1 << idx
    return mask


def load_family(data: Any, location: str = "$") -> tuple[GroundSet, tuple[int, ...]]:
    """``(ground, masks)``, the masks in the order the file lists them."""
    obj = _expect(data, dict, location)
    ground = load_ground(_field(obj, "points", location), f"{location}.points")
    members = _expect(_field(obj, "family", location), list, f"{location}.family")
    masks = tuple(
        _indices_to_mask(item, ground, f"{location}.family[{i}]")
        for i, item in enumerate(members)
    )
    return ground, masks


def dump_algebra(algebra: Algebra) -> dict:
    return {
        "points": dump_ground(algebra.ground),
        "family": [_mask_to_indices(m) for m in algebra.members],
    }


def load_algebra(data: Any, location: str = "$.algebra") -> Algebra:
    ground, masks = load_family(data, location)
    return _build(f"{location}.family", Algebra.from_members, ground, masks)


# -- measures ----------------------------------------------------------------


def dump_measure(p: Measure) -> dict:
    """The measure's wire form: its algebra and one weight per atom."""
    return {
        "algebra": dump_algebra(p.algebra),
        "weights": {str(i): wire_text(w) for i, w in enumerate(p.weights)},
    }


def load_measure(data: Any, location: str = "$") -> Measure:
    """A measure's wire form.  A ``"mode"`` key, which earlier dumps wrote,
    must name a :class:`~finprob.report.Mode` label and is then ignored: on
    a finite algebra both labels mean the same measure."""
    obj = _expect(data, dict, location)
    algebra = load_algebra(_field(obj, "algebra", location), f"{location}.algebra")
    raw = _expect(_field(obj, "weights", location), dict, f"{location}.weights")
    keys = [str(i) for i in range(len(algebra.atoms))]
    _only_keys(raw, keys, "atom", f"{location}.weights")
    weights = []
    for i, key in enumerate(keys):
        if key not in raw:
            raise InputError(f"missing weight for atom {i}", f"{location}.weights")
        weights.append(parse_fraction(raw[key], f"{location}.weights.{key}"))
    if "mode" in obj:
        try:
            Mode(obj["mode"])
        except ValueError:
            raise InputError(f"unknown mode {obj['mode']!r}", f"{location}.mode") from None
    return _build(f"{location}.weights", Measure, algebra, tuple(weights))


# -- simple functions and functional tables ---------------------------------


def dump_simple_function(s: SimpleFunction) -> dict:
    terms = s.terms or tuple(
        (v, atom) for atom, v in zip(s.algebra.atoms, s.values) if v
    )
    return {
        "terms": [[wire_text(a), _mask_to_indices(m)] for a, m in terms]
    }


def load_simple_function(data: Any, algebra: Algebra, location: str = "$") -> SimpleFunction:
    obj = _expect(data, dict, location)
    raw_terms = _expect(_field(obj, "terms", location), list, f"{location}.terms")
    terms = []
    for i, item in enumerate(raw_terms):
        pair = _expect(item, list, f"{location}.terms[{i}]")
        if len(pair) != 2:
            raise InputError("term must be [coefficient, indices]", f"{location}.terms[{i}]")
        coeff = parse_fraction(pair[0], f"{location}.terms[{i}][0]")
        mask = _indices_to_mask(pair[1], algebra.ground, f"{location}.terms[{i}][1]")
        terms.append((coeff, mask))
    return _build(f"{location}.terms", SimpleFunction.from_terms, algebra, terms)


def load_functions(data: Any, algebra: Algebra, location: str = "$.functions") -> list:
    """A nonempty list of simple functions on ``algebra``."""
    if not isinstance(data, list) or not data:
        raise InputError("functions must be a nonempty list", location)
    return [
        load_simple_function(item, algebra, f"{location}[{i}]")
        for i, item in enumerate(data)
    ]


def load_functional_table(data: Any, algebra: Algebra, location: str = "$") -> Functional:
    obj = _expect(data, dict, location)
    raw_family = _expect(_field(obj, "family", location), list, f"{location}.family")
    raw_values = _expect(_field(obj, "values", location), list, f"{location}.values")
    if len(raw_family) != len(raw_values):
        raise InputError("family and values must have equal length", location)
    values: dict[SimpleFunction, Fraction] = {}
    for i, (fn_data, val) in enumerate(zip(raw_family, raw_values)):
        fn = load_simple_function(fn_data, algebra, f"{location}.family[{i}]")
        value = parse_fraction(val, f"{location}.values[{i}]")
        enter_once(values, fn, value, "function", f"{location}.values[{i}]")
    return Functional(algebra, values)


def load_premeasure(data: Any, location: str = "$") -> tuple[SemiRing, dict]:
    """The semi-ring a family file lists, and the premeasure that gives
    ``mu[i]`` to its i-th listed set."""
    ground, masks = load_family(data, location)
    raw_mu = data.get("mu")
    if not isinstance(raw_mu, list) or len(raw_mu) != len(masks):
        raise InputError("mu must list one value per family member", f"{location}.mu")
    semiring = _build(f"{location}.family", SemiRing, ground, masks)
    mu: dict[int, Fraction] = {}
    for i, (mask, raw) in enumerate(zip(masks, raw_mu)):
        where = f"{location}.mu[{i}]"
        enter_once(mu, mask, parse_fraction(raw, where), "set", where)
    return semiring, mu


# -- metric spaces and simplex points ----------------------------------------


def dump_metric(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[wire_text(v) for v in row] for row in space.dist],
    }


def load_metric(data: Any, location: str = "$.metric") -> FiniteMetricSpace:
    obj = _expect(data, dict, location)
    points = _labels(_field(obj, "points", location), f"{location}.points")
    rows = _expect(_field(obj, "dist", location), list, f"{location}.dist")
    dist = tuple(
        tuple(
            parse_fraction(v, f"{location}.dist[{i}][{j}]")
            for j, v in enumerate(_expect(row, list, f"{location}.dist[{i}]"))
        )
        for i, row in enumerate(rows)
    )
    return _build(location, FiniteMetricSpace, tuple(points), dist)


def dump_simplex(p: Measure) -> dict:
    return {
        "labels": list(p.labels),
        "weights": [wire_text(w) for w in p.weights],
    }


def load_simplex(data: Any, location: str = "$", labels=None, rows=None) -> Measure:
    """A bare list of weights on known ``labels``, or ``{"labels", "weights"}``.

    ``rows``, when given, maps ``(labels, weights)`` of the bare-list rows
    loaded so far to their measures: a row of strings listed again is
    looked up there, not parsed again.  The caller owns it, so it lives no
    longer than the caller's one load."""
    key = None
    if isinstance(data, list) and labels is not None:
        names, raw, where = labels, data, location
        if rows is not None and all(type(v) is str for v in raw):
            key = (tuple(labels), tuple(raw))
            if key in rows:
                return rows[key]
    else:
        obj = _expect(data, dict, location)
        names = _labels(_field(obj, "labels", location), f"{location}.labels")
        where = f"{location}.weights"
        raw = _expect(_field(obj, "weights", location), list, where)
    pairs = [parse_rational(v, f"{where}[{i}]") for i, v in enumerate(raw)]
    den = lcm(*(d for _, d in pairs))
    nums = [n * (den // d) for n, d in pairs]
    point = _build(
        location,
        lambda: Measure.from_numerators(simplex_algebra(tuple(names)), den, nums),
    )
    if labels is not None and point.labels != tuple(labels):
        message = f"labels {list(point.labels)} must be {list(labels)}"
        raise InputError(message, f"{location}.labels")
    if key is not None:
        rows[key] = point
    return point


# -- arrows and cones ---------------------------------------------------------


def dump_arrow(arrow: Arrow) -> dict:
    return {
        "targets": list(arrow.targets),
        "rows": {
            point: [wire_text(w) for w in arrow.at(point).weights]
            for point in arrow.source.ground.points
        },
    }


def load_arrow(data: Any, source: Algebra, location: str = "$", rows=None) -> Arrow:
    """An arrow from ``source``; ``rows`` is passed to :func:`load_simplex`."""
    obj = _expect(data, dict, location)
    targets = _labels(_field(obj, "targets", location), f"{location}.targets")
    if len(set(targets)) != len(targets):
        raise InputError("arrow target labels must be distinct", f"{location}.targets")
    rows_raw = _expect(_field(obj, "rows", location), dict, f"{location}.rows")
    _only_keys(rows_raw, source.ground.points, "ground point", f"{location}.rows")
    by_point = {}
    for point in source.ground.points:
        if point not in rows_raw:
            raise InputError(f"missing row for point {point!r}", f"{location}.rows")
        by_point[point] = load_simplex(
            rows_raw[point], f"{location}.rows.{point}", targets, rows
        )
    return _build(
        f"{location}.rows", Arrow.from_point_rows, source, tuple(targets), by_point
    )


def dump_cone(cone: Cone) -> list:
    return [
        [dump_arrow(arrow), dump_simplex(point)] for arrow, point in cone.legs.items()
    ]


def load_cone(data: Any, source: Algebra, location: str = "$.cone") -> Cone:
    """A cone over arrows from ``source``.  A bare-list row repeated across
    its arrows and legs, as the indicator rows of a cone are, is loaded once."""
    raw = _expect(data, list, location)
    if not raw:
        raise InputError("cone needs at least one leg", location)
    rows: dict = {}  # this call's rows, dropped when it returns
    legs = []
    for i, item in enumerate(raw):
        pair = _expect(item, list, f"{location}[{i}]")
        if len(pair) != 2:
            raise InputError("cone leg must be [arrow, point]", f"{location}[{i}]")
        arrow = load_arrow(pair[0], source, f"{location}[{i}][0]", rows)
        point = load_simplex(pair[1], f"{location}[{i}][1]", arrow.targets, rows)
        legs.append((arrow, point))
    return _build(location, Cone, "input", tuple(legs))


# -- top-level instance files --------------------------------------------------


def loads_instance(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed text, or an integer past Python's digit limit
        raise InputError(f"invalid JSON: {exc}", "$") from None
    except RecursionError:
        raise InputError("JSON nested too deeply", "$") from None
    obj = _expect(data, dict, "$")
    version = obj.get("format", FORMAT_VERSION)
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise InputError(f"unsupported format version {version!r}", "$.format")
    return obj


def dumps_canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
