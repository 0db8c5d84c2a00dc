"""Cardinality census of the involution power sets, and the line-covering scan.

For a certified group of characteristic != 2 the census records |J| (nhat),
the common centralizer size of nontrivial translations (khat), |J.J| and
|J.J.J| (j2_size, j3_size), their signed difference (lhat), and the sizes of
the sets X_alpha = { i in J : i.alpha is a translation } for sampled alpha.

Everything here is a plain finite count. lhat can be zero or negative; the
report says so explicitly rather than asserting any inequality between the
quantities.

Alphas are the first DEFAULT_ALPHA_CAP elements of the triple-product set in
enumeration order, all of them when there are no more, which keeps every run
byte-identical. A certified group of degree d <= 9 has order d(d - 1) <= 72,
so its alphas are always exhaustive. The cap is a constant; nothing sets it
per call.

The covering scan takes ``(G, geom)``, and decides line covering per line:
every Geometry is a partial plane, checked when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Geometry
from .permgroup import PermGroup, centralizer, member_mask
from .reporting import Check, CheckReport, field_dict, least_cell, least_cell_in_chunks
from .s2t import _require_odd_characteristic, _shared_table, triple_products

DEFAULT_ALPHA_CAP = 100


@dataclass
class CensusReport:
    nhat: int
    khat: int
    khat_constant: bool
    j2_size: int
    j3_size: int
    lhat: int
    fiber_identity_ok: bool          # j2_size * khat == nhat**2
    j_disjoint_from_j2: bool
    j3_contains_j: bool
    xalpha_sizes: list[tuple[int, int]] = field(default_factory=list)
    alpha_sample_complete: bool = True
    disclaimer: str = (
        "finite cardinalities only; lhat may be zero or negative and no "
        "inequality between nhat, khat and lhat is asserted"
    )

    @property
    def ok(self) -> bool:
        return (
            self.khat_constant
            and self.fiber_identity_ok
            and self.j_disjoint_from_j2
            and self.j3_contains_j
        )

    def as_dict(self) -> dict:
        return field_dict(self, xalpha_sizes=[[int(a), int(s)] for a, s in self.xalpha_sizes])


def _x_alpha_masks(G: PermGroup, sets, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per alpha (rows) and involution i (columns): the index of i.alpha, and
    whether it is a translation, i.e. whether i lies in X_alpha."""
    products = G.mul(sets.j[None, :], alphas[:, None])
    return products, member_mask(G, sets.translations)[products]


def _alpha_sample(j3: np.ndarray) -> tuple[np.ndarray, bool]:
    if len(j3) <= DEFAULT_ALPHA_CAP:
        return j3, True
    return j3[:DEFAULT_ALPHA_CAP], False


def _x_alpha(G: PermGroup, sets):
    """The alpha sample of G, whether it is every alpha, and its X_alpha
    products and mask (:func:`_x_alpha_masks`), read-only: built on the
    first read and kept for the life of the certified sets, one table per
    alpha cap."""
    def build():
        sample, complete = _alpha_sample(triple_products(G))
        products, in_x = _x_alpha_masks(G, sets, sample)
        products.setflags(write=False)
        in_x.setflags(write=False)
        return sample, complete, products, in_x
    return _shared_table(sets, ("x_alpha", DEFAULT_ALPHA_CAP), build)


def census(G: PermGroup) -> CensusReport:
    """Compute all census quantities by exhaustive product enumeration."""
    sets = _require_odd_characteristic(G)
    j_idx = sets.j
    trans = sets.translations
    nhat = len(j_idx)
    j2_size = len(trans)

    nontrivial = trans[trans != G.identity_index]
    sizes = {len(centralizer(G, t)) for t in nontrivial.tolist()}
    khat_constant = len(sizes) == 1
    khat = sorted(sizes)[0]

    j3 = triple_products(G)
    j3_size = len(j3)

    sample, complete, _, in_x = _x_alpha(G, sets)
    xalpha_sizes = list(zip(sample.tolist(), in_x.sum(axis=1).tolist()))

    return CensusReport(
        nhat=nhat,
        khat=khat,
        khat_constant=khat_constant,
        j2_size=j2_size,
        j3_size=j3_size,
        lhat=j3_size - j2_size,
        fiber_identity_ok=j2_size * khat == nhat * nhat,
        j_disjoint_from_j2=not member_mask(G, trans)[j_idx].any(),
        j3_contains_j=bool(member_mask(G, j3)[j_idx].all()),
        xalpha_sizes=xalpha_sizes,
        alpha_sample_complete=complete,
    )


def verify_xalpha_covering(G: PermGroup, geom: Geometry) -> CheckReport:
    """The line-covering step behind the X_alpha sets, scanned per alpha:

    * line-covering: whenever i.r.s == alpha and v is on the line of (r,s),
      the whole line of (i,v) sits inside X_alpha. Since the line of (r,s)
      depends only on the product r.s == i.alpha, the scan runs over the
      deduplicated witnesses (i, i.alpha) instead of raw triples. It is
      decided per pair (alpha, p), with L the line of p.alpha: when p lies
      on L, the line of (p, v) is L for every v != p on L, as a Geometry is
      a partial plane, so the pair is uncovered exactly when L is not
      inside X_alpha and has two or more points. A pair with p off L is not
      decided this way. The (n, n) slab of (p, v) cells is built only for
      the alphas holding an uncovered pair or a pair with p off L, to read
      the least triple.
    * point-line-saturation: every member of X_alpha lies on at least one
      line fully inside X_alpha.
    * fiber-size-identity: |X_alpha| * khat equals the number of triples
      (i, r, s) in J^3 with i.r.s == alpha.
    """
    sets = _require_odd_characteristic(G)
    j_idx = sets.j
    trans = sets.translations
    nontrivial = trans[trans != G.identity_index]
    khat = len(centralizer(G, int(nontrivial[0])))

    # pair-product fibers: how many (r, s) in J x J give each element
    fiber = np.bincount(sets.jj.ravel(), minlength=G.order)

    j3 = triple_products(G)
    sample, complete, products, in_x = _x_alpha(G, sets)

    checks_note = f"alphas checked: {len(sample)}/{len(j3)}"
    inside = geom.lines_inside(in_x)  # (alpha, line)

    triple_counts = (fiber[products] * in_x).sum(axis=1)
    expected = in_x.sum(axis=1) * khat
    hit = least_cell(triple_counts != expected)
    witness_fiber = None
    if hit is not None:
        (row,) = hit
        witness_fiber = (int(sample[row]), int(triple_counts[row]), int(expected[row]))

    # (alpha, p, v): p in X_alpha, v != p on the line of p.alpha (none when
    # p.alpha is the identity: r == s carries no line), and the line of
    # (p, v) leaves X_alpha; built a chunk at a time for the alphas that
    # the per-pair test leaves open
    line_of = geom.line_of_translation[products]
    on = (line_of >= 0) & in_x
    diagonal = np.arange(len(j_idx))
    on_own_line = geom.incidence[line_of, diagonal]
    open_line = ~np.take_along_axis(inside, line_of, axis=1) & (
        np.count_nonzero(geom.incidence, axis=1)[line_of] >= 2)
    rows = np.flatnonzero((on & (~on_own_line | open_line)).any(axis=1))

    def uncovered(lo, hi):
        at = rows[lo:hi]
        cube = geom.incidence[line_of[at]] & on[at, :, None]
        cube[:, diagonal, diagonal] = False
        return cube & ~inside[at][:, geom.line_of_pair]

    hit = least_cell_in_chunks(uncovered, len(rows), len(j_idx) ** 2)
    witness_cover = None
    if hit is not None:
        row, p, v = hit
        witness_cover = (int(sample[rows[row]]), int(j_idx[p]), int(j_idx[v]))

    hit = least_cell(in_x & ~(inside @ geom.incidence))
    witness_sat = None
    if hit is not None:
        row, p = hit
        witness_sat = (int(sample[row]), int(j_idx[p]))

    checks = [
        Check("line-covering", witness_cover is None, witness=witness_cover,
              note=checks_note),
        Check("point-line-saturation", witness_sat is None, witness=witness_sat),
        Check("fiber-size-identity", witness_fiber is None, witness=witness_fiber),
    ]
    report = CheckReport("triple-product line covering", checks)
    report.alphas_checked = len(sample)
    report.alphas_total = len(j3)
    report.complete = complete
    return report
