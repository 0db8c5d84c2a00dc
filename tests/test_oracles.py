"""Group order, conjugacy classes, centralizers and the field moduli against
sympy.

sympy's ``PermutationGroup`` computes the first three by Schreier-Sims and
subgroup search, independently of involq's enumerated element array. Both
use the "p then q" product, so h^-1 g h means the same in each. sympy's
``galoistools`` tests irreducibility over GF(p) by its own algorithm, not by
trial division. The file skips where sympy is not installed.
"""

import pytest

from involq import build_entry, centralizer, conjugacy_class, run_catalog
from involq.config import DEFAULT_NEARFIELD_ORDER_CAP
from involq.nearfield import least_irreducible, prime_power
from involq.permgroup import PermGroup
from naive import naive_chain

sympy_comb = pytest.importorskip("sympy.combinatorics")
galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

ENTRIES = [e for e in run_catalog() if e.degree <= 25]


def test_the_oracle_covers_the_small_catalog():
    assert len(ENTRIES) == 14
    assert "sym4-fixture" in {e.id for e in ENTRIES}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
def test_order_classes_and_centralizers_match_sympy(entry):
    """One miss per class fills every member's centralizer by conjugation; the
    member checked is the last of its class, so its entry is a filled one."""
    built = build_entry(entry)
    # an empty cache, on the oracle's chain of the rows
    G = PermGroup(built.degree, built.elements, built.generators, naive_chain(built.elements))
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


def test_least_irreducible_is_irreducible_and_least():
    """For every prime power q = p^e up to the near-field order cap, the
    modulus of GF(q) is irreducible, and every candidate x^e + c before it,
    in the order of the base-p integer the digits of c encode, is not."""
    powers = [prime_power(q) for q in range(2, DEFAULT_NEARFIELD_ORDER_CAP + 1)]
    powers = [pe for pe in powers if pe is not None]
    assert len(powers) == 604
    for p, e in powers:
        f = least_irreducible(p, e)
        assert len(f) == e + 1 and f[-1] == 1, (p, e)
        assert galoistools.gf_irreducible_p(f[::-1], p, ZZ), (p, e)
        least = sum(c * p**i for i, c in enumerate(f[:e]))
        for k in range(least):
            lower = [(k // p**i) % p for i in range(e)] + [1]
            assert not galoistools.gf_irreducible_p(lower[::-1], p, ZZ), (p, e, k)
