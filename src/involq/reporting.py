"""Small named-check containers used by the verification reports.

Every scan in the package reports its outcome as a list of named checks,
each pass/fail with an optional witness tuple. Witnesses are always the
lexicographically least violating tuple the scan encountered, so repeated
runs produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def jsonable(value):
    """Recursively convert numpy scalars/arrays and tuples to plain Python."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


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
