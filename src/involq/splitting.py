"""Splitting decision and near-field recovery for certified groups.

The split test is the product-closure criterion: the group splits (has a
nontrivial abelian normal subgroup) exactly when the translation set is a
subgroup, in which case that subgroup is abelian and normal, and it is the
located witness.

Coordinatization reconstructs a near-field from a split group: with base
points 0 and 1, addition moves along the regular translation action
(``a + b`` = the image of a under the translation taking 0 to b) and
multiplication along the regular action of the point stabilizer of 0
(``a * m`` = the image of a under the stabilizer element taking 1 to m).
The recovered tables always face the full axiom scan before being returned;
the affine group they induce must reproduce the input permutations exactly.
:func:`roundtrip_check` decides that set equality from the affine generators
and the group order, without building the affine group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxiomRecoveryFailure, CharacteristicAnomaly, NotSplit
from .nearfield import NearField, _require_axioms
from .permgroup import PermGroup, affine_generators, member_mask
from .reporting import field_dict, least_cell
from .s2t import _require_certified, translation_products


@dataclass
class SplitReport:
    j2_is_subgroup: bool
    j2_abelian: bool
    split: bool
    abelian_normal_subgroup: list[int] | None = None
    closure_witness: tuple | None = None

    def as_dict(self) -> dict:
        witness = self.closure_witness
        return field_dict(self, closure_witness=list(witness) if witness else None)


@dataclass
class Coordinatization:
    zero_point: int
    one_point: int
    nearfield: NearField

    def as_dict(self) -> dict:
        return field_dict(self, nearfield=self.nearfield.to_json_dict())


def neumann_split_test(G: PermGroup) -> SplitReport:
    """Split iff the translation set is product-closed; then it must also be
    abelian and conjugation-stable, which is asserted rather than assumed."""
    trans = _require_certified(G).translations
    is_trans = member_mask(G, trans)

    products = translation_products(G)  # a then b
    outside = least_cell(~is_trans[products])
    if outside is not None:
        a, b = outside
        return SplitReport(
            j2_is_subgroup=False, j2_abelian=False, split=False,
            closure_witness=(int(trans[a]), int(trans[b])),
        )

    if not np.array_equal(products, products.T):
        raise CharacteristicAnomaly("translation subgroup is not abelian")

    gens = G.index_of(G.generators)
    if not is_trans[G.conj(trans[None, :], gens[:, None])].all():
        raise CharacteristicAnomaly("translation subgroup is not normal")

    return SplitReport(
        j2_is_subgroup=True,
        j2_abelian=True,
        split=True,
        abelian_normal_subgroup=[int(t) for t in trans],
    )


def _regular_table(rows: np.ndarray, point: int, what: str) -> np.ndarray:
    """The (d, d) table whose column x is the row sending ``point`` to x, for
    rows that fix the points below ``point``: refused unless exactly one row
    does so for each x from ``point`` on; the columns below it are 0."""
    d = rows.shape[1]
    counts = np.bincount(rows[:, point], minlength=d)
    bad = np.flatnonzero(counts[point:] != 1) + point
    if len(bad):
        raise AxiomRecoveryFailure(
            f"{counts[bad[0]]} {what} send {point} to {bad[0]}; the action is not regular"
        )
    table = np.zeros((d, d), dtype=np.int32)
    table[:, rows[:, point]] = rows.T
    return table


def coordinatize(G: PermGroup, split_report: SplitReport | None = None) -> Coordinatization:
    """Recover the coordinatizing near-field of a split group.

    Base points are the least indices 0 and 1, and the recovered near-field
    element ``x`` is the point ``x``: no relabeling is involved.
    """
    if split_report is None:
        split_report = neumann_split_test(G)
    if not split_report.split:
        raise NotSplit("translations are not a subgroup")
    d = G.degree
    add = _regular_table(G.rows(_require_certified(G).translations), 0, "translations")
    mul = _regular_table(G.rows(G.column(0) == 0), 1, "stabilizer elements")
    nf = _require_axioms(NearField(d, f"recovered({d})", add, mul), AxiomRecoveryFailure)
    return Coordinatization(zero_point=0, one_point=1, nearfield=nf)


def roundtrip_check(G: PermGroup, coord: Coordinatization | None = None) -> bool:
    """True iff the affine group H = { x -> (x mul m) add a : m != 0 } of the
    recovered near-field equals the input group as a set of permutations.

    Decided from the generators of :func:`affine_generators`:

    * every element (m, a) of H is "mul m, then add a", a product of at most
      two generators;
    * G is closed under products: every PermGroup here is a breadth-first
      closure or the affine group of a verified near-field;
    * so H lies inside G exactly when every generator lies in G;
    * the verified axioms give H q(q-1) distinct maps, since (m, a) is read
      off the images of 0 (a) and of 1 (m add a);
    * so with |G| = q(q-1), H inside G means H = G.
    """
    if coord is None:
        coord = coordinatize(G)
    gens = affine_generators(coord.nearfield)
    q = coord.nearfield.order
    return q == G.degree and G.order == q * (q - 1) and G.contains(gens)
