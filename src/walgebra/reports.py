"""Verification reports: structured, deterministic, fixture-friendly.

A report carries the command, ambient data, one record per check
(name/status/witness/wall time), the engine version and the generator
order fingerprint.  The comparison payload strips wall times so that
fixtures compare bit-exactly across runs; the fingerprint invalidates
fixtures whenever the canonical order changes, since PBW coordinates are
order-dependent.
"""

from __future__ import annotations

import json
from itertools import islice

from . import __version__


class ReportSchemaError(Exception):
    pass


_REQUIRED = ("command", "N", "pyramid", "engine_version", "order_fingerprint", "checks")
_CHECK_KEYS = {"name", "status", "witness", "seconds"}


class VerificationReport:
    def __init__(self, command: str, N: int, pyramid: str, checks: list,
                 order_fingerprint: str, meta: dict | None = None,
                 engine_version: str = __version__):
        self.command = command
        self.N = N
        self.pyramid = pyramid
        self.checks = checks
        self.order_fingerprint = order_fingerprint
        self.meta = {} if meta is None else meta
        self.engine_version = engine_version

    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if c["status"] != "pass"]

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "N": self.N,
            "pyramid": self.pyramid,
            "engine_version": self.engine_version,
            "order_fingerprint": self.order_fingerprint,
            "checks": self.checks,
            "meta": self.meta,
        }

    def comparison_payload(self) -> dict:
        """The deterministic slice: everything except wall times."""
        data = self.to_json()
        data["checks"] = [
            {k: v for k, v in c.items() if k != "seconds"} for c in self.checks
        ]
        return data

    def render_table(self) -> str:
        width = max((len(c["name"]) for c in self.checks), default=4)
        lines = [
            "%s  N=%d  pyramid=%s  engine=%s  order=%s"
            % (self.command, self.N, self.pyramid, self.engine_version, self.order_fingerprint)
        ]
        for c in self.checks:
            witness = "" if c["witness"] is None else str(c["witness"])
            if len(witness) > 72:
                witness = witness[:69] + "..."
            lines.append(
                "  %-*s  %-4s  %8.3fs  %s"
                % (width, c["name"], c["status"].upper(), c["seconds"], witness)
            )
        summary = "all checks passed" if self.ok() else "%d CHECK(S) FAILED" % len(self.failed())
        lines.append("  -> %s (%d checks)" % (summary, len(self.checks)))
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


def write_json(data, fh) -> None:
    """The package's one JSON layout: indent 1, sorted keys, UTF-8 text
    and a final newline.  The encoder's small chunks are joined and
    written 4096 at a time: one write per chunk is slow, and one write of
    the whole text holds every chunk in memory at once."""
    chunks = json.JSONEncoder(indent=1, sort_keys=True, ensure_ascii=False).iterencode(data)
    while batch := "".join(islice(chunks, 4096)):
        fh.write(batch)
    fh.write("\n")


def save_fixture(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(report.to_json(), fh)


def load_fixture(path: str) -> VerificationReport:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_report_data(data)
    return VerificationReport(
        command=data["command"],
        N=data["N"],
        pyramid=data["pyramid"],
        checks=[dict(c) for c in data["checks"]],
        order_fingerprint=data["order_fingerprint"],
        meta=data.get("meta", {}),
        engine_version=data["engine_version"],
    )
