"""Cardinality census of the involution power sets, and the line-covering scan.

For a certified group of characteristic != 2 the census records |J| (nhat),
the common centralizer size of nontrivial translations (khat), |J.J| and
|J.J.J| (j2_size, j3_size), their signed difference (lhat), and the sizes of
the sets X_alpha = { i in J : i.alpha is a translation } for sampled alpha.

Everything here is a plain finite count. lhat can be zero or negative; the
report says so explicitly rather than asserting any inequality between the
quantities.

Alphas are sampled exhaustively for degree <= FULL_ALPHA_DEGREE and otherwise
as the first DEFAULT_ALPHA_CAP elements of the triple-product set in
enumeration order, which keeps every run byte-identical. Both bounds are
constants; nothing sets them per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotInJ3
from .geometry import Geometry
from .permgroup import PermGroup, _element_index, centralizer, distinct
from .reporting import Check, CheckReport, field_dict, least_cell
from .s2t import _require_odd_characteristic

FULL_ALPHA_DEGREE = 9
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


def _triple_products(G: PermGroup, cert) -> np.ndarray:
    """Sorted element indices of { i.sigma : i in J, sigma in J.J }."""
    if cert._j3 is None:
        cert._j3 = distinct(G.mul(cert._j[:, None], cert._translations[None, :]))
    return cert._j3


def _x_alpha_masks(G: PermGroup, cert, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per alpha (rows) and involution i (columns): the index of i.alpha, and
    whether it is a translation, i.e. whether i lies in X_alpha."""
    products = G.mul(cert._j[None, :], alphas[:, None])
    return products, np.isin(products, cert._translations)


def _alpha_sample(G: PermGroup, j3: np.ndarray) -> tuple[np.ndarray, bool]:
    if G.degree <= FULL_ALPHA_DEGREE or len(j3) <= DEFAULT_ALPHA_CAP:
        return j3, True
    return j3[:DEFAULT_ALPHA_CAP], False


def x_alpha(G: PermGroup, alpha) -> np.ndarray:
    """Positions in J of the involutions i with i.alpha in the translation set.

    alpha may be an element index or an image row. It must lie in the triple
    products of J, except that the identity is accepted as the degenerate
    sanity input (its X set is always empty since no involution is a
    translation).
    """
    cert = _require_odd_characteristic(G)
    a_idx = _element_index(G, alpha)
    if a_idx != G.identity_index and not np.isin(a_idx, _triple_products(G, cert)):
        raise NotInJ3(f"element {a_idx} is not a product of three involutions")
    _, in_x = _x_alpha_masks(G, cert, np.array([a_idx]))
    return np.nonzero(in_x[0])[0]


def census(G: PermGroup) -> CensusReport:
    """Compute all census quantities by exhaustive product enumeration."""
    cert = _require_odd_characteristic(G)
    j_idx = cert._j
    trans = cert._translations
    nhat = len(j_idx)
    j2_size = len(trans)

    nontrivial = trans[trans != G.identity_index]
    sizes = {len(centralizer(G, t)) for t in nontrivial.tolist()}
    khat_constant = len(sizes) == 1
    khat = sorted(sizes)[0]

    j3 = _triple_products(G, cert)
    j3_size = len(j3)

    sample, complete = _alpha_sample(G, j3)
    _, in_x = _x_alpha_masks(G, cert, sample)
    xalpha_sizes = list(zip(sample.tolist(), in_x.sum(axis=1).tolist()))

    return CensusReport(
        nhat=nhat,
        khat=khat,
        khat_constant=khat_constant,
        j2_size=j2_size,
        j3_size=j3_size,
        lhat=j3_size - j2_size,
        fiber_identity_ok=j2_size * khat == nhat * nhat,
        j_disjoint_from_j2=not np.isin(j_idx, trans).any(),
        j3_contains_j=bool(np.isin(j_idx, j3).all()),
        xalpha_sizes=xalpha_sizes,
        alpha_sample_complete=complete,
    )


def verify_xalpha_covering(G: PermGroup, geom: Geometry) -> CheckReport:
    """The line-covering step behind the X_alpha sets, scanned per alpha:

    * line-covering: whenever i.r.s == alpha and v is on the line of (r,s),
      the whole line of (i,v) sits inside X_alpha. Since the line of (r,s)
      depends only on the product r.s == i.alpha, the scan runs over the
      deduplicated witnesses (i, i.alpha) instead of raw triples.
    * point-line-saturation: every member of X_alpha lies on at least one
      line fully inside X_alpha.
    * fiber-size-identity: |X_alpha| * khat equals the number of triples
      (i, r, s) in J^3 with i.r.s == alpha.
    """
    cert = _require_odd_characteristic(G)
    j_idx = cert._j
    trans = cert._translations
    nontrivial = trans[trans != G.identity_index]
    khat = len(centralizer(G, int(nontrivial[0])))

    # pair-product fibers: how many (r, s) in J x J give each element
    fiber = np.bincount(cert._jj.ravel(), minlength=G.order)

    j3 = _triple_products(G, cert)
    sample, complete = _alpha_sample(G, j3)
    products, in_x = _x_alpha_masks(G, cert, sample)

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
    # (p, v) leaves X_alpha
    line_of = geom.line_of_translation[products]
    on_line = geom.incidence[line_of] & ((line_of >= 0) & in_x)[..., None]
    on_line[:, np.arange(len(j_idx)), np.arange(len(j_idx))] = False
    hit = least_cell(on_line & ~inside[:, geom.line_of_pair])
    witness_cover = None
    if hit is not None:
        row, p, v = hit
        witness_cover = (int(sample[row]), int(j_idx[p]), int(j_idx[v]))

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
