"""Small named-check containers used by the verification reports.

Every scan in the package reports its outcome as a list of named checks,
each pass/fail with an optional witness tuple. Witnesses are always the
lexicographically least violating tuple the scan encountered, so repeated
runs produce identical reports; :func:`least_cell` reads that tuple off a
boolean mask of violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


def least_cell(mask: np.ndarray) -> tuple[int, ...] | None:
    """The witness rule: the row-major first True cell of ``mask`` as a tuple
    of plain ints, or None when no cell is set."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def field_dict(obj, **converted) -> dict:
    """A dataclass's public fields in order, with the values in ``converted``."""
    return {f.name: converted[f.name] if f.name in converted else getattr(obj, f.name)
            for f in fields(obj) if not f.name.startswith("_")}


@dataclass
class Check:
    name: str
    passed: bool
    required: bool = True
    witness: tuple | None = None
    note: str = ""

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed), "required": bool(self.required)}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.required and not c.passed]

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }
