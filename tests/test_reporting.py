"""The witness rule and the chunk rule of the reports."""

import numpy as np
import pytest

from involq import reporting
from involq.reporting import (
    Check,
    CheckReport,
    in_chunks,
    least_cell,
    least_cell_in_chunks,
)

SHAPES = [(0,), (1,), (9,), (0, 4), (5, 0), (6, 5), (0, 3, 4), (4, 0, 3), (4, 3, 0),
          (7, 3, 4), (3, 2, 2, 5)]


def random_masks(shape, seed):
    """Masks of one shape: empty, one cell per mask at most, and dense."""
    rng = np.random.default_rng(seed)
    return [rng.random(shape) < density for density in (0.0, 0.02, 0.5)]


def chunked_least_cell(mask):
    rows = mask.shape[0]
    return least_cell_in_chunks(lambda lo, hi: mask[lo:hi], rows, int(np.prod(mask.shape[1:])))


@pytest.mark.parametrize("chunk_cells", [1, 7, reporting.CHUNK_CELLS])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_chunked_rules_equal_the_whole_mask_rules(shape, chunk_cells, monkeypatch):
    """On seeded random masks, with one row, a few rows or every row per
    chunk, the chunked scans read what the whole-mask rules read, and an
    empty stack keeps its shape."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for seed in range(4):
        for mask in random_masks(shape, seed):
            assert chunked_least_cell(mask) == least_cell(mask)
            stacked = in_chunks(lambda lo, hi: mask[lo:hi], len(mask), int(np.prod(mask.shape[1:])))
            assert stacked.shape == mask.shape and np.array_equal(stacked, mask)


@pytest.mark.parametrize("chunk_cells", [1, 7])
def test_least_cell_in_chunks_stops_at_the_first_chunk_with_a_hit(chunk_cells, monkeypatch):
    """Chunks are built in row order, and none after the one holding the
    least cell."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    mask = np.zeros((10, 3), dtype=bool)
    mask[6, 2] = mask[8, 0] = True
    built = []

    def rows(lo, hi):
        built.append((lo, hi))
        return mask[lo:hi]

    assert least_cell_in_chunks(rows, len(mask), 3) == (6, 2)
    step = reporting.chunk_rows(3)
    assert built == [(lo, min(lo + step, 10)) for lo in range(0, 7, step)]


def test_chunk_rows_reads_the_chunk_size_when_called(monkeypatch):
    assert reporting.chunk_rows(1 << 10) == reporting.CHUNK_CELLS >> 10
    assert reporting.chunk_rows(0) == reporting.CHUNK_CELLS
    monkeypatch.setattr(reporting, "CHUNK_CELLS", 10)
    assert [reporting.chunk_rows(c) for c in (0, 1, 3, 10, 11)] == [10, 10, 3, 1, 1]


def test_check_report_names_its_checks():
    report = CheckReport("t", [Check("a", True), Check("b", False, required=False)])
    assert report.check("b").passed is False
    assert report.ok and report.failures() == []
    with pytest.raises(KeyError, match="c"):
        report.check("c")
