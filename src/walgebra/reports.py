"""Verification reports: structured, deterministic, fixture-friendly.

A report is the JSON dict the CLI writes: the command, N, the pyramid,
the engine version, the generator order fingerprint, one record per
check (name/status/witness/wall time) and the suite's meta data.  The
comparison payload strips wall times so that fixtures compare
bit-exactly across runs; the fingerprint invalidates fixtures whenever
the canonical order changes, since PBW coordinates are order-dependent.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring as _encode_str


class ReportSchemaError(Exception):
    pass


_REQUIRED = ("command", "N", "pyramid", "engine_version", "order_fingerprint", "checks")
_CHECK_KEYS = {"name", "status", "witness", "seconds"}


def comparison_payload(report: dict) -> dict:
    """The deterministic slice: everything except wall times."""
    data = dict(report)
    data["checks"] = [
        {k: v for k, v in c.items() if k != "seconds"} for c in report["checks"]
    ]
    return data


def render_table(report: dict) -> str:
    checks = report["checks"]
    width = max((len(c["name"]) for c in checks), default=4)
    lines = [
        "%(command)s  N=%(N)d  pyramid=%(pyramid)s  engine=%(engine_version)s"
        "  order=%(order_fingerprint)s" % report
    ]
    for c in checks:
        witness = "" if c["witness"] is None else str(c["witness"])
        if len(witness) > 72:
            witness = witness[:69] + "..."
        lines.append(
            "  %-*s  %-4s  %8.3fs  %s"
            % (width, c["name"], c["status"].upper(), c["seconds"], witness)
        )
    failed = sum(c["status"] != "pass" for c in checks)
    summary = "%d CHECK(S) FAILED" % failed if failed else "all checks passed"
    lines.append("  -> %s (%d checks)" % (summary, len(checks)))
    return "\n".join(lines)


def validate_report_data(data: dict) -> None:
    if not isinstance(data, dict):
        raise ReportSchemaError("report must be a JSON object")
    for key in _REQUIRED:
        if key not in data:
            raise ReportSchemaError("missing report key %r" % key)
    if not isinstance(data["checks"], list):
        raise ReportSchemaError("checks must be a list")
    for c in data["checks"]:
        if not isinstance(c, dict) or not _CHECK_KEYS.issuperset(c) or "name" not in c or "status" not in c:
            raise ReportSchemaError("malformed check record: %r" % (c,))
        if c["status"] not in ("pass", "fail"):
            raise ReportSchemaError("check status must be pass/fail: %r" % (c,))


class _Layout(dict):
    """depth -> (newline before a closing bracket at that depth, newline
    before the first item inside, separator between items inside): json's
    indent-1 layout, computed once per depth."""

    def __missing__(self, depth):
        inner = "\n" + " " * (depth + 1)
        layout = self[depth] = (inner[:-1], inner, "," + inner)
        return layout


_LAYOUT = _Layout()
_STREAMED_DEPTH = 3  # containers less deep than this go out item by item
_BATCH = 1024  # pieces buffered between writes
_INF = float("inf")
_INTS, _STRS = {int}, {str}


def _float_text(x) -> str:
    """json's float text: repr, or NaN and the infinities by name."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _text(o, depth: int) -> str:
    """The JSON text of o nested depth containers deep: each container is
    one join, and a list of only ints or only strings is one join with
    no call per item."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        close, first, sep = _LAYOUT[depth]
        kinds = {*map(type, o)}
        if kinds == _INTS:
            items = map(int.__repr__, o)
        elif kinds == _STRS:
            items = map(_encode_str, o)
        else:
            items = [_text(v, depth + 1) for v in o]
        return "[" + first + sep.join(items) + close + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        close, first, sep = _LAYOUT[depth]
        items = [_encode_str(k) + ": " + _text(o[k], depth + 1) for k in sorted(o)]
        return "{" + first + sep.join(items) + close + "}"
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _stream(o, depth: int, out: list, flush) -> None:
    """Append the text of o to out, a container less deep than
    _STREAMED_DEPTH item by item, calling flush() whenever out holds
    _BATCH pieces."""
    if depth >= _STREAMED_DEPTH or not isinstance(o, (dict, list, tuple)) or not o:
        out.append(_text(o, depth))
        return
    if isinstance(o, dict):
        keys = sorted(o)
        items = zip([_encode_str(k) + ": " for k in keys], map(o.__getitem__, keys))
        brackets = "{}"
    else:
        items = zip(repeat(""), o)
        brackets = "[]"
    close, lead, sep = _LAYOUT[depth]
    out.append(brackets[0])
    for head, value in items:
        out.append(lead + head)
        lead = sep
        _stream(value, depth + 1, out, flush)
        if len(out) >= _BATCH:
            flush()
    out.append(close + brackets[1])


def write_json(data, *files) -> None:
    """The package's one JSON layout, written to each of files: exactly
    the text of json.dump(data, fh, indent=1, sort_keys=True,
    ensure_ascii=False) and a final newline.  A dict key that is not a
    str raises TypeError (json would write an int key as a string).

    The text is built once for all files, each container below the
    outermost levels in one join, with json's C string escaping; the
    outermost levels go out in batches, so memory holds one batch of
    their items' text, never the whole document."""
    out: list = []

    def flush():
        text = "".join(out)
        out.clear()
        for fh in files:
            fh.write(text)

    _stream(data, 0, out, flush)
    out.append("\n")
    flush()


def save_fixture(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(report, fh)


def load_fixture(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_report_data(data)
    return data
