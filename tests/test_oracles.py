"""Group order, conjugacy classes and centralizers against sympy.

sympy's ``PermutationGroup`` computes them by Schreier-Sims and subgroup
search, independently of involq's enumerated element array. Both use the
"p then q" product, so h^-1 g h means the same in each. The file skips
where sympy is not installed.
"""

import pytest

from involq import build_entry, centralizer, conjugacy_class, run_catalog
from involq.permgroup import PermGroup

sympy_comb = pytest.importorskip("sympy.combinatorics")

ENTRIES = [e for e in run_catalog() if e.degree <= 25]


def test_the_oracle_covers_the_small_catalog():
    assert len(ENTRIES) == 14
    assert "sym4-fixture" in {e.id for e in ENTRIES}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
def test_order_classes_and_centralizers_match_sympy(entry):
    """One miss per class fills every member's centralizer by conjugation; the
    member checked is the last of its class, so its entry is a filled one."""
    built = build_entry(entry)
    G = PermGroup(built.degree, built.elements, built.generators)  # an empty cache
    S = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(g.tolist()) for g in G.generators]
        or [sympy_comb.Permutation(list(range(G.degree)))])
    assert S.order() == G.order
    seen = set()
    for first in range(G.order):
        if first in seen:
            continue
        cls = conjugacy_class(G, first)
        seen.update(cls.tolist())
        centralizer(G, first)
        rep = int(cls[-1])
        p = sympy_comb.Permutation(G.elements[rep].tolist())
        assert len(S.conjugacy_class(p)) == len(cls), (entry.id, rep)
        cen = S.centralizer(p)
        assert cen.order() == len(centralizer(G, rep)), (entry.id, rep)
        assert {tuple(q.array_form) for q in cen.generate()} == {
            tuple(G.elements[i].tolist()) for i in centralizer(G, rep)}, (entry.id, rep)
    assert len(seen) == G.order
