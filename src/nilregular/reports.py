"""Structured outcomes for verification checks, with a stable JSON form."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
EXHAUSTED = "exhausted"


@dataclass
class VerificationReport:
    """What a check ran, what it looked at, and how it ended.

    ``status`` is "pass" for a verified property, "exhausted" for a search
    that ran out of candidates without finding one, and "fail" when a
    counterexample or witness of failure was found; the witness then holds
    enough data to reproduce it.
    """

    check: str
    parameters: dict
    status: str
    witness: dict | None
    candidates_examined: int
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.status in (PASS, EXHAUSTED)

    def to_dict(self) -> dict:
        data = {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "candidates_examined": self.candidates_examined,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data

    def to_json(self) -> str:
        # sorted keys so equal reports serialize to equal bytes
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        line = (f"[{self.status}] {self.check}: "
                f"{self.candidates_examined} candidates in {self.elapsed_ms:.1f} ms")
        if self.witness is not None:
            line += f"; witness: {json.dumps(self.witness, sort_keys=True)}"
        return line


def finish_report(check: str, parameters: dict, witness: dict | None,
                  candidates_examined: int, started: float,
                  no_witness_status: str = PASS) -> VerificationReport:
    """Stamp a report with the elapsed wall time since ``started``.

    A witness always means "fail"; without one the status is
    ``no_witness_status`` ("pass", or "exhausted" for a search).
    """
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    status = FAIL if witness is not None else no_witness_status
    return VerificationReport(check, parameters, status, witness,
                              candidates_examined, elapsed_ms)


def checklist_report(check: str, parameters: dict, checks: list,
                     witness_key: str, started: float) -> VerificationReport:
    """Report on a list of (name, ok) pairs; the first failing name
    becomes the witness under ``witness_key``."""
    failed = next((name for name, ok in checks if not ok), None)
    witness = None if failed is None else {witness_key: failed}
    return finish_report(check, parameters, witness, len(checks), started)
