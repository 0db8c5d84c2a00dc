"""Small named-check containers used by the verification reports.

Every scan in the package reports its outcome as a list of named checks,
each pass/fail with an optional witness tuple. Witnesses are always the
lexicographically least violating tuple the scan encountered, so repeated
runs produce identical reports; :func:`least_cell` reads that tuple off a
boolean mask of violations. Every mask too large to hold at once is built
in row chunks of about CHUNK_CELLS cells (:func:`chunk_rows`), and read by
:func:`least_cell_in_chunks` or :func:`in_chunks`.
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


CHUNK_CELLS = 1 << 18  # cells per chunk of a mask built in rows


def chunk_rows(row_cells: int) -> int:
    """Rows per chunk when a row holds ``row_cells`` cells; reads CHUNK_CELLS per call."""
    return max(1, CHUNK_CELLS // max(row_cells, 1))


def least_cell_in_chunks(mask_of_rows, rows: int, row_cells: int) -> tuple | None:
    """least_cell of the mask whose rows lo:hi ``mask_of_rows(lo, hi)`` gives,
    built and scanned one chunk at a time, in order, so the first hit is least."""
    step = chunk_rows(row_cells)
    for lo in range(0, rows, step):
        # bound until the next chunk exists: freeing it first doubles scan time
        bad = mask_of_rows(lo, min(lo + step, rows))
        if (w := least_cell(bad)) is not None:
            return (lo + w[0],) + w[1:]
    return None


def in_chunks(fn, rows: int, row_cells: int) -> np.ndarray:
    """``fn(lo, hi)`` concatenated over the row chunks; an empty stack keeps its shape."""
    step = chunk_rows(row_cells)
    return np.concatenate([fn(lo, min(lo + step, rows)) for lo in range(0, max(rows, 1), step)])


def field_dict(obj, **converted) -> dict:
    """A dataclass's fields in order, with the values in ``converted``."""
    return {f.name: converted[f.name] if f.name in converted else getattr(obj, f.name)
            for f in fields(obj)}


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
