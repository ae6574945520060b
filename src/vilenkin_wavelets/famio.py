"""Family files, verdict reports, and their serialization.

A family file is UTF-8 JSON:

    {"p": 3,
     "family": [
       {"name": "omega1", "cylinders": [{"resolution": 0, "digits": {"0": 1}}]},
       {"name": "omega2", "cylinders": [{"resolution": 0, "digits": {"0": 2}}]}]}

Digit keys are decimal-string positions; all digits must be below p and
the cylinders of one set must be pairwise disjoint.  Reports are emitted
with deterministic field order and exact measure strings, so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from math import inf
from typing import Any

from .errors import FamilyArityError, OverlapError, SchemaError, VilenkinError
from .setalg import Cylinder, Measure, PSet, _decimal
from .verifier import ConditionRecord, VerdictReport, WaveletFamily

TOOL_NAME = "vilenkin-wavelets"


def measure_json(m: Measure) -> dict:
    return {"exact": m.exact_string(), "approx": float(m)}


# -- family files ------------------------------------------------------------------


def load_family_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Besides malformed JSON: an integer past Python's digit limit, or
        # nesting past the recursion limit.
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return doc


def family_from_document(doc: dict, *, where: str = "family file") -> WaveletFamily:
    if "p" not in doc:
        raise SchemaError(f"{where}: missing field 'p'")
    p = doc["p"]
    if not isinstance(p, int) or p < 2:
        raise SchemaError(f"{where}: 'p' must be an integer >= 2, got {p!r}")
    entries = doc.get("family")
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{where}: 'family' must be a nonempty list")

    names = []
    sets = []
    for i, entry in enumerate(entries):
        loc = f"{where}: family[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{loc} must be an object")
        name = entry.get("name", f"omega{i + 1}")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{loc}.name must be a nonempty string")
        cylinders_json = entry.get("cylinders")
        if not isinstance(cylinders_json, list) or not cylinders_json:
            raise SchemaError(f"{loc}.cylinders must be a nonempty list")
        cylinders = []
        for k, cyl_json in enumerate(cylinders_json):
            if not isinstance(cyl_json, dict) or "resolution" not in cyl_json:
                raise SchemaError(f"{loc}.cylinders[{k}] must be an object with 'resolution'")
            if not isinstance(cyl_json.get("digits", {}), dict):
                raise SchemaError(f"{loc}.cylinders[{k}].digits must be an object")
            try:
                cylinders.append(Cylinder.from_json(p, cyl_json))
            except (ValueError, TypeError, OverflowError, VilenkinError) as exc:
                raise SchemaError(f"{loc}.cylinders[{k}]: {exc}") from exc
        try:
            sets.append(PSet(p, cylinders))
        except OverlapError as exc:
            raise SchemaError(f"{loc}: {exc}") from exc
        names.append(name)

    try:
        return WaveletFamily(p, tuple(names), tuple(sets))
    except FamilyArityError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_family_file(path: str) -> WaveletFamily:
    return family_from_document(load_family_document(path), where=path)


def family_to_document(family: WaveletFamily) -> dict:
    return {
        "p": family.p,
        "family": [
            {"name": name, "cylinders": s.to_json()}
            for name, s in zip(family.names, family.sets)
        ],
    }


# -- JSON text -----------------------------------------------------------------------
#
# json.dumps with an indent runs the pure-Python encoder, one generator
# per container; building each container's text with one join and
# looking scalars up by type is over twice as fast, with the same bytes.

_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _value_text(o, newline: str) -> str:
    """o as json.dumps(o, indent=2) writes it at the depth of `newline`
    (a newline and the current indentation)."""
    scalar = _SCALAR_TEXT.get(type(o))
    if scalar is not None:
        try:
            return scalar(o)
        except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
            return "-" + _decimal(-o) if o < 0 else _decimal(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_value_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _encode_str raises TypeError on a key that is not a str.
        items = [_encode_str(k) + ": " + _value_text(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for base in (str, int, float):  # subclasses, written as their base is
        if isinstance(o, base):
            return _SCALAR_TEXT[base](o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(o) -> str:
    """The text json.dumps(o, indent=2) gives, for values built of str,
    int, float, bool, None, lists, tuples and dicts with str keys; any
    other type raises TypeError.  Integers of any length are written in
    full, where json.dumps stops at Python's digit limit."""
    return _value_text(o, "\n")


# -- reports -----------------------------------------------------------------------


def condition_json(record: ConditionRecord) -> dict:
    return {
        "name": record.name,
        "passed": record.passed,
        "exact": True,
        "witnesses": record.witnesses,
        "measures": record.details,
    }


def verdict_conditions(report: VerdictReport) -> list[dict]:
    return [condition_json(record) for record in report.conditions]


def build_report(
    *,
    version: str,
    command: str,
    parameters: dict,
    verdict: str,
    conditions: list[dict],
    extra: dict | None = None,
) -> dict:
    report: dict[str, Any] = {
        "tool": TOOL_NAME,
        "version": version,
        "command": command,
        "parameters": parameters,
        "verdict": verdict,
        "conditions": conditions,
    }
    if extra:
        report.update(extra)
    report["timing"] = None  # filled in by --timing
    return report


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Byte-stable rendering; field order follows construction order."""
    if fmt == "json":
        return (dumps(report) + "\n").encode("utf-8")
    if fmt == "text":
        lines = [
            f"{report['tool']} {report['version']} :: {report['command']}",
            f"verdict: {report['verdict']}",
        ]
        for key, value in sorted(report.get("parameters", {}).items()):
            lines.append(f"  param {key} = {value}")
        for cond in report.get("conditions", []):
            status = "pass" if cond["passed"] else "FAIL"
            lines.append(f"  [{status}] {cond['name']}")
            for witness in cond.get("witnesses", [])[:8]:
                lines.append(f"    witness: {json.dumps(witness, sort_keys=True)}")
        if report.get("timing") is not None:
            lines.append(f"timing: {report['timing']:.3f}s")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise SchemaError(f"unknown report format {fmt!r}")
