"""Split decision and near-field recovery."""

import importlib

import numpy as np
import pytest

from involq import (
    AxiomFailure,
    AxiomRecoveryFailure,
    Coordinatization,
    InvolqError,
    NearField,
    NotSharply2Transitive,
    NotSplit,
    affine_group,
    build_entry,
    characteristic,
    compose,
    coordinatize,
    involutions,
    make_dickson,
    make_field,
    neumann_split_test,
    parse_group_doc,
    roundtrip_check,
    run_catalog,
    translations,
    verify_group,
    verify_nearfield_axioms,
)
from involq import s2t
from involq.s2t import _require_certified, certify_sharply_2_transitive, translation_products
from involq.splitting import SplitReport
from conftest import tamper_sets
from naive import naive_order


def test_split_small_fields():
    for q in (3, 5, 7):
        G = affine_group(make_field(q, 1))
        report = neumann_split_test(G)
        assert report.j2_is_subgroup and report.j2_abelian and report.split
        assert sorted(report.abelian_normal_subgroup) == sorted(
            int(t) for t in translations(G)
        )
        assert len(report.abelian_normal_subgroup) == q


def test_split_dickson(agl_d9):
    report = neumann_split_test(agl_d9)
    assert report.split
    trans = report.abelian_normal_subgroup
    assert len(trans) == 9
    # elementary abelian: every nontrivial translation has order 3
    for t in trans:
        if t != agl_d9.identity_index:
            assert naive_order(agl_d9.elements[t]) == 3


def test_split_fails_on_non_s2t(sym4):
    with pytest.raises(NotSharply2Transitive):
        neumann_split_test(sym4)


def test_recovered_field_f7(agl_f7):
    coord = coordinatize(agl_f7)
    nf = coord.nearfield
    assert nf.order == 7
    assert verify_nearfield_axioms(nf).ok
    assert np.array_equal(nf.mul, nf.mul.T)  # commutative
    # associativity holds (part of the axiom report) so this is a field;
    # relabel through the additive powers of 1 to compare against Z/7
    relabel = [0]
    cur = 0
    for _ in range(6):
        cur = int(nf.add[cur, 1])
        relabel.append(cur)
    assert sorted(relabel) == list(range(7))
    for a in range(7):
        for b in range(7):
            assert nf.add[relabel[a], relabel[b]] == relabel[(a + b) % 7]
            assert nf.mul[relabel[a], relabel[b]] == relabel[(a * b) % 7]


def test_recovered_identities(agl_f5):
    nf = coordinatize(agl_f5).nearfield
    for a in range(5):
        assert nf.add[a, 0] == a
        assert nf.mul[a, 1] == a
        assert nf.mul[a, 0] == 0


def test_recovered_dickson_noncommutative(agl_d9):
    nf = coordinatize(agl_d9).nearfield
    assert nf.order == 9
    assert verify_nearfield_axioms(nf).ok
    assert not np.array_equal(nf.mul, nf.mul.T)


def test_recovered_order_equals_degree(agl_f9, agl_d25):
    for G in (agl_f9, agl_d25):
        assert coordinatize(G).nearfield.order == G.degree


def test_roundtrip_fields():
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2)]:
        G = affine_group(make_field(p, e))
        assert roundtrip_check(G)


def test_roundtrip_dickson(agl_d9, agl_d25):
    assert roundtrip_check(agl_d9)
    assert roundtrip_check(agl_d25)


def test_char2_entry_still_coordinatizes(agl_f4):
    coord = coordinatize(agl_f4)
    nf = coord.nearfield
    assert nf.order == 4 and nf.char_p == 2
    assert np.array_equal(nf.mul, nf.mul.T)
    assert roundtrip_check(agl_f4, coord)


def test_degree_2_group_recovers_gf2():
    """In characteristic 2 the translations are J.J together with J; at degree
    2 J.J is only the identity, so J itself supplies the translation 0 -> 1."""
    G = parse_group_doc({"degree": 2, "generators": [[1, 0]]})
    assert characteristic(G) == 2
    assert list(translations(G)) == [0, 1]
    nf = coordinatize(G).nearfield
    gf2 = make_field(2, 1)
    assert np.array_equal(nf.add, gf2.add) and np.array_equal(nf.mul, gf2.mul)
    assert roundtrip_check(G)
    report = verify_group(G)
    assert report["ok"] is True
    assert report["sections"]["roundtrip"]["equal"] is True


def test_recovered_addition_matches_translation_action(agl_f9):
    """a + b is where the unique translation taking 0 to b sends a."""
    G = agl_f9
    nf = coordinatize(G).nearfield
    trans_rows = G.elements[translations(G)]
    for b in range(9):
        tau = trans_rows[trans_rows[:, 0] == b][0]
        for a in range(9):
            assert nf.add[a, b] == tau[a]


def test_split_group_count_of_involutions(agl_f5):
    # sanity tying the modules together: the abelian normal subgroup has the
    # same size as the involution set in the split case
    report = neumann_split_test(agl_f5)
    assert len(report.abelian_normal_subgroup) == len(involutions(agl_f5))


SPLIT = SplitReport(j2_is_subgroup=True, j2_abelian=True, split=True)


@pytest.mark.parametrize("replaced, by, message", [
    (5, 2, "2 translations send 0 to 2"),
    (1, 4, "0 translations send 0 to 1"),
])
def test_coordinatize_refuses_irregular_translations(agl_f7, replaced, by, message, monkeypatch):
    """The translation taking 0 to ``replaced`` is swapped for the one taking
    0 to ``by``; the least point reached by no translation or by two is named."""
    trans = _require_certified(agl_f7).translations.copy()
    to = agl_f7.elements[trans, 0]
    trans[to == replaced] = trans[to == by]
    tamper_sets(monkeypatch, agl_f7, translations=trans)
    with pytest.raises(AxiomRecoveryFailure, match=f"^{message}; the action is not regular$"):
        coordinatize(agl_f7, SPLIT)


@pytest.mark.parametrize("replaced, by, message", [
    (5, 2, "2 stabilizer elements send 1 to 2"),
    (2, 5, "0 stabilizer elements send 1 to 2"),
])
def test_coordinatize_refuses_irregular_stabilizer(agl_f7, replaced, by, message, monkeypatch):
    """The stabilizer element of 0 taking 1 to ``replaced`` is overwritten by
    the one taking 1 to ``by``; the least point with a wrong count is named."""
    certify_sharply_2_transitive(agl_f7)
    elements = agl_f7.elements.copy()
    stab = elements[:, 0] == 0
    elements[stab & (elements[:, 1] == replaced)] = elements[stab & (elements[:, 1] == by)]
    monkeypatch.setattr(agl_f7, "_flat", elements.reshape(-1))
    with pytest.raises(AxiomRecoveryFailure, match=f"^{message}; the action is not regular$"):
        coordinatize(agl_f7, SPLIT)


def _rebuilt_roundtrip(G, coord):
    """Oracle: build the whole affine group of the recovered near-field and
    test set equality with G."""
    H = affine_group(coord.nearfield)
    return H.order == G.order and G.contains(H.elements)


def test_roundtrip_agrees_with_the_rebuilt_group_on_the_catalog():
    coordinatized = 0
    for entry in run_catalog(31):
        G = build_entry(entry)
        try:
            coord = coordinatize(G)
        except InvolqError:
            assert entry.id == "sym4-fixture"
            continue
        coordinatized += 1
        assert roundtrip_check(G, coord) is True
        assert _rebuilt_roundtrip(G, coord) is True
    assert coordinatized == 16


def test_roundtrip_agrees_with_the_rebuilt_group_after_relabelling(d9_relabelled):
    coord = coordinatize(d9_relabelled)
    assert roundtrip_check(d9_relabelled, coord) is True
    assert _rebuilt_roundtrip(d9_relabelled, coord) is True


def _gf9_swapping_2_and_3():
    """GF(9) with the points 2 and 3 exchanged: a field again, whose affine
    group is AGL(1, 9) conjugated by the transposition (2 3)."""
    f9 = make_field(3, 2)
    pi = np.array([0, 1, 3, 2, 4, 5, 6, 7, 8])  # its own inverse
    return NearField(9, "field(3,2) with 2 and 3 exchanged",
                     pi[f9.add[np.ix_(pi, pi)]], pi[f9.mul[np.ix_(pi, pi)]])


@pytest.mark.parametrize("group, nearfield", [
    ("agl_d9", lambda: make_field(3, 2)),
    ("agl_f9", lambda: make_dickson(3, 2)),
    ("agl_f9", lambda: make_field(7, 1)),
    ("agl_f9", _gf9_swapping_2_and_3),
    ("sym4", lambda: make_field(2, 2)),  # holds AGL(1, 4) with index 2
], ids=["d9-by-f9", "f9-by-d9", "f9-by-f7", "f9-by-relabelled-f9", "s4-by-f4"])
def test_roundtrip_rejects_a_foreign_nearfield(request, group, nearfield):
    G = request.getfixturevalue(group)
    coord = Coordinatization(zero_point=0, one_point=1, nearfield=nearfield())
    assert roundtrip_check(G, coord) is False
    assert _rebuilt_roundtrip(G, coord) is False


def test_roundtrip_gates_an_unverified_nearfield(agl_f5):
    f5 = make_field(5, 1)
    mul = f5.mul.copy()
    mul[2, 3] = 4
    broken = NearField(5, "field(5,1)", f5.add, mul)
    coord = Coordinatization(zero_point=0, one_point=1, nearfield=broken)
    with pytest.raises(AxiomFailure,
                       match=r"^field\(5,1\) fails axiom left-distributivity at \(2, 1, 2\)$"):
        roundtrip_check(agl_f5, coord)


@pytest.mark.parametrize("nf", [make_field(7, 1), make_dickson(3, 2)], ids=["f7", "d9"])
def test_affine_generators_keep_their_order(nf):
    gens = []
    for a in range(1, nf.order):
        gens.append(nf.add[:, a])      # x -> x add a
    for m in range(2, nf.order):
        gens.append(nf.mul[:, m])      # x -> x mul m
    generators = affine_group(nf).generators
    assert generators.dtype == np.int32
    assert np.array_equal(generators, np.array(gens, dtype=np.int32))


def _fresh_agl_f5_with_translations(monkeypatch, choose):
    """A newly built AGL(1, 5) whose certified sets list ``choose(G, trans)``
    as its translations."""
    G = affine_group(make_field(5, 1))
    tamper_sets(monkeypatch, G,
                translations=np.asarray(choose(G, _require_certified(G).translations)))
    return G


def _least_product_outside(G, trans):
    """Naive double loop: the first (a, b), in list order, with a then b
    not in the list."""
    members = set(int(t) for t in trans)
    for a in trans:
        for b in trans:
            if G.index_of(compose(G.elements[a], G.elements[b])) not in members:
                return int(a), int(b)
    return None


@pytest.mark.parametrize("dropped", [1, 2, 3, 4])
def test_split_test_names_the_least_product_leaving_the_translations(monkeypatch, dropped):
    """Without one nontrivial translation the set is not product-closed, and
    the group is not coordinatized."""
    G = _fresh_agl_f5_with_translations(monkeypatch, lambda G, trans: np.delete(trans, dropped))
    trans = _require_certified(G).translations
    assert len(trans) == 4 and G.identity_index in trans
    report = neumann_split_test(G)
    witness = _least_product_outside(G, trans)
    assert witness is not None
    assert report == SplitReport(j2_is_subgroup=False, j2_abelian=False, split=False,
                                 closure_witness=witness)
    assert report.as_dict()["closure_witness"] == list(witness)
    with pytest.raises(NotSplit, match="^translations are not a subgroup$"):
        coordinatize(G, report)


def test_split_test_reads_the_table_of_tampered_translations(monkeypatch):
    """A T.T table built before the translations are tampered is not read
    after: the split test reads a table equal to the products over the
    tampered set, and names the least product leaving it."""
    splitting_mod = importlib.import_module("involq.splitting")
    G = affine_group(make_field(5, 1))
    untampered = translation_products(G)
    trans = tamper_sets(monkeypatch, G,
                        translations=np.delete(_require_certified(G).translations, 2)).translations
    read = []
    monkeypatch.setattr(splitting_mod, "translation_products",
                        lambda G: read.append(s2t.translation_products(G)) or read[-1])
    report = neumann_split_test(G)
    assert len(read) == 1 and read[0] is not untampered
    assert np.array_equal(read[0], G.mul(trans[:, None], trans[None, :]))
    assert report.closure_witness == _least_product_outside(G, trans)


@pytest.mark.parametrize("choose", [
    lambda G, trans: np.arange(G.order),
    lambda G, trans: np.flatnonzero(G.elements[:, 0] == 0),
], ids=["nonabelian", "not-normal"])
def test_coordinatize_refuses_a_closed_translation_set_that_is_not_the_kernel(choose,
                                                                             monkeypatch):
    """All of G is closed but not abelian; the stabilizer of 0 is closed,
    cyclic of order 4, and not normal. The split test reads only closure, so
    it finds each split; coordinatize refuses each, as 4 of its members send
    0 to 0."""
    G = _fresh_agl_f5_with_translations(monkeypatch, choose)
    report = neumann_split_test(G)
    assert report.split
    assert report.abelian_normal_subgroup == _require_certified(G).translations.tolist()
    with pytest.raises(AxiomRecoveryFailure,
                       match="^4 translations send 0 to 0; the action is not regular$"):
        coordinatize(G, report)
