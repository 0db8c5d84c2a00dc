"""Sharp 2-transitivity certificates and the derived element sets."""

import dataclasses
import gc
import importlib
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    NotSharply2Transitive,
    build_geometry,
    census,
    certify_sharply_2_transitive,
    characteristic,
    centralizer,
    check_geometry_conditions,
    involutions,
    parse_group_doc,
    translations,
    verify_basic_properties,
    verify_xalpha_covering,
)
from involq import permgroup, s2t
from involq.catalog import build_entry, find_entry, run_catalog
from involq.permgroup import PermGroup, identity_perm
from involq.pipeline import verify_group
from involq.s2t import _perm_order, _require_certified
from conftest import ingest_documents, tamper_sets
from naive import naive_chain, naive_order


def naive_swappers(G, x, y):
    """Every element exchanging the points x and y, as image tuples, by a
    loop over the rows."""
    return [tuple(row) for row in G.elements.tolist() if row[x] == y and row[y] == x]


def test_certificate_agl_f5(agl_f5):
    cert = certify_sharply_2_transitive(agl_f5)
    assert cert.valid
    assert cert.degree == 5 and cert.order == 20
    assert cert.involution_count == 5
    assert cert.fixed_point_profile == "all-one-fixed"
    assert cert.characteristic == 5
    assert cert.j_single_class and cert.j2_single_class


def test_certificate_refuses_degree_below_two():
    G = PermGroup(1, [[0]], np.empty((0, 1), dtype=np.int32), naive_chain([[0]]))
    with pytest.raises(ValueError, match="need degree >= 2"):
        certify_sharply_2_transitive(G)


def test_certificate_sym4_fails_on_order(sym4):
    cert = certify_sharply_2_transitive(sym4)
    assert not cert.valid
    assert cert.failure == {"check": "order", "expected": 12, "actual": 24}
    # order 24 >= 12, so the pair mask is built and every pair is reached
    assert cert.as_dict() == {
        "degree": 4, "order": 24, "order_ok": False, "pair_transitive": True,
        "valid": False, "failure": {"check": "order", "expected": 12, "actual": 24},
        "involution_count": None, "fixed_point_profile": None, "characteristic": None,
        "j_single_class": None, "j2_single_class": None,
    }
    with pytest.raises(NotSharply2Transitive):
        involutions(sym4)


def test_certificate_of_a_small_group_builds_no_pair_mask():
    """Fewer than d(d - 1) elements cannot reach every ordered pair, so the
    certificate fails on order without the (d, d) pair mask: at degree
    20,000, where the mask alone is 381 MiB, the trivial group's certificate
    peaks under 8 MiB traced. The group is built directly: parse_group_doc
    refuses this degree, as 20,000 * 19,999 exceeds the default order cap."""
    identity = identity_perm(20000)[None, :]
    G = PermGroup(20000, identity, np.empty((0, 20000), dtype=np.int32), naive_chain(identity))
    tracemalloc.start()
    try:
        cert = certify_sharply_2_transitive(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert cert.as_dict() == {
        "degree": 20000, "order": 1, "order_ok": False, "pair_transitive": False,
        "valid": False, "failure": {"check": "order", "expected": 20000 * 19999, "actual": 1},
        "involution_count": None, "fixed_point_profile": None, "characteristic": None,
        "j_single_class": None, "j2_single_class": None,
    }


def test_certificate_pair_orbit_failure():
    """Order d(d-1) alone is not enough: translations of the 3x3 grid extended
    by the dihedral linear part give order 72 on 9 points, but the linear part
    has two orbits on nonzero vectors, so pairs split into two orbits."""
    from involq import parse_group_doc

    def perm(f):
        return [
            (lambda a, b: (a % 3) + 3 * (b % 3))(*f(i % 3, i // 3))
            for i in range(9)
        ]

    doc = {
        "degree": 9,
        "generators": [
            perm(lambda a, b: (a + 1, b)),
            perm(lambda a, b: (a, b + 1)),
            perm(lambda a, b: (b, a)),
            perm(lambda a, b: (-b, a)),
        ],
    }
    G = parse_group_doc(doc)
    assert G.order == 72
    cert = certify_sharply_2_transitive(G)
    assert cert.order_ok and not cert.pair_transitive and not cert.valid
    assert cert.failure["check"] == "pair-orbit"
    assert cert.failure["missing_pair"] == [0, 4]  # (0,0) -> (1,1) unreachable


@pytest.mark.parametrize("group", ["agl_f7", "agl_d9", "d9_relabelled"])
def test_translation_orders_match_perm_order(group, request):
    """The certificate reads the characteristic as the order of one
    translation; every nontrivial translation has that order."""
    G = request.getfixturevalue(group)
    trans = translations(G)
    nontrivial = trans[trans != G.identity_index]
    assert len(nontrivial) == G.degree - 1
    expected = [naive_order(G.rows(int(t))) for t in nontrivial]
    assert [_perm_order(G.rows(int(t))) for t in nontrivial] == expected
    assert set(expected) == {certify_sharply_2_transitive(G).characteristic}


def _finite_theory_groups(monkeypatch):
    """Every odd default catalog entry of degree <= 49, the documents of
    tests/data and the seed-1 ingest documents."""
    entries = [build_entry(e) for e in run_catalog()
               if e.expected_certified and e.expected_characteristic != 2 and e.degree <= 49]
    documents = [json.loads(path.read_text())
                 for path in sorted((Path(__file__).parent / "data").glob("*.json"))]
    return entries + [parse_group_doc(doc) for doc in documents + ingest_documents(1, monkeypatch)]


def test_certified_sets_meet_the_finite_theory(monkeypatch):
    """What the certificate reads off an odd certified group without checking
    it, by loops over image lists: each involution fixes one point, and
    fix(J) is every point; every nontrivial translation has the order of the
    characteristic, a prime; J.J is conjugation-stable under the generators
    and, where it is product-closed, abelian."""
    for G in _finite_theory_groups(monkeypatch):
        cert, d = certify_sharply_2_transitive(G), G.degree
        fixed = [[x for x, y in enumerate(G.rows(int(j)).tolist()) if x == y]
                 for j in involutions(G)]
        assert sorted(fixed) == [[x] for x in range(d)]

        trans = translations(G)
        p = cert.characteristic
        assert {naive_order(G.rows(int(t))) for t in trans if t != G.identity_index} == {p}
        assert p > 2 and all(p % k for k in range(2, p))

        rows = G.rows(trans)
        members = {row.tobytes() for row in rows}
        for g in G.generators:
            g_inv = np.argsort(g)
            assert all(g[t[g_inv]].tobytes() in members for t in rows)
        products = rows[:, rows]  # (a, b, x): a(b(x))
        if all(row.tobytes() in members for row in products.reshape(-1, d)):
            assert np.array_equal(products, products.transpose(1, 0, 2))


def test_translations_meeting_a_centralizer_witness(monkeypatch):
    from involq import affine_group, make_field

    G = affine_group(make_field(7, 1))
    first = int(involutions(G)[0])
    extra = int(centralizer(G, first)[-1])
    assert extra != G.identity_index
    tamper_sets(monkeypatch, G,
                translations=np.union1d(_require_certified(G).translations, [extra]))
    check = verify_basic_properties(G).checks[2]
    assert check.name == "translations-meet-centralizers-trivially"
    assert not check.passed
    assert check.witness == (first, sorted([G.identity_index, extra]))


def test_certificate_dickson(agl_d9):
    cert = certify_sharply_2_transitive(agl_d9)
    assert cert.valid and cert.degree == 9 and cert.order == 72
    assert cert.characteristic == 3


def test_certificate_gf4(agl_f4):
    cert = certify_sharply_2_transitive(agl_f4)
    assert cert.valid
    assert cert.fixed_point_profile == "all-zero-fixed"
    assert cert.characteristic == 2
    assert characteristic(agl_f4) == 2


def test_involution_counts(agl_f3, agl_f9, agl_f4):
    assert len(involutions(agl_f3)) == 3
    assert len(involutions(agl_f9)) == 9
    j4 = involutions(agl_f4)
    assert len(j4) == 3
    for idx in j4:  # all fixed-point-free
        assert not np.any(agl_f4.elements[idx] == np.arange(4))


def test_involutions_are_negation_maps(agl_f5):
    expected = {tuple((b - x) % 5 for x in range(5)) for b in range(5)}
    got = {tuple(agl_f5.elements[i]) for i in involutions(agl_f5)}
    assert got == expected


def test_involution_count_equals_degree_when_char_odd(agl_f5, agl_f7, agl_f9, agl_d9, agl_d25):
    for G in (agl_f5, agl_f7, agl_f9, agl_d9, agl_d25):
        assert len(involutions(G)) == G.degree
        # involution -> fixed point is a bijection onto the points
        fixed = [np.flatnonzero(G.elements[j] == np.arange(G.degree)).tolist()
                 for j in involutions(G)]
        assert sorted(fixed) == [[point] for point in range(G.degree)]


def test_swap_involution_f5(agl_f5):
    assert naive_swappers(agl_f5, 0, 1) == [tuple((1 - x) % 5 for x in range(5))]  # x -> -x + 1


def test_swap_symmetry(agl_f5, agl_f7):
    """Exactly one element exchanges each pair of distinct points."""
    for G in (agl_f5, agl_f7):
        for x in range(G.degree):
            for y in range(x + 1, G.degree):
                swappers = naive_swappers(G, x, y)
                assert len(swappers) == 1 and swappers == naive_swappers(G, y, x)


def test_swap_fixed_point_count(agl_f7):
    (swap,) = naive_swappers(agl_f7, 2, 5)
    assert sum(image == x for x, image in enumerate(swap)) == 1


def test_translations_f5(agl_f5):
    trans = translations(agl_f5)
    assert len(trans) == 5
    assert agl_f5.identity_index in set(int(t) for t in trans)
    expected = {tuple((x + c) % 5 for x in range(5)) for c in range(5)}
    assert {tuple(agl_f5.elements[t]) for t in trans} == expected


def test_translation_fiber_identity(agl_f5, agl_f7, agl_f9, agl_d9):
    # |J.J| * |Cen(sigma)| == |J|^2 for any nontrivial translation sigma
    for G in (agl_f5, agl_f7, agl_f9, agl_d9):
        J = involutions(G)
        trans = translations(G)
        nontrivial = [t for t in trans if t != G.identity_index]
        for t in nontrivial:
            cen = centralizer(G, G.elements[t])
            assert len(trans) * len(cen) == len(J) ** 2


def test_characteristics(agl_f7, agl_d9, agl_f4):
    assert characteristic(agl_f7) == 7
    assert characteristic(agl_d9) == 3
    assert characteristic(agl_f4) == 2


def test_basic_properties_pass(agl_f5, agl_f7, agl_d9):
    for G in (agl_f5, agl_f7, agl_d9):
        report = verify_basic_properties(G)
        assert report.ok
        assert [c.name for c in report.checks] == [
            "centralizer-regular-on-other-involutions",
            "involution-conjugation-regular",
            "translations-meet-centralizers-trivially",
        ]


def test_basic_properties_unique_selfconjugator(agl_f5):
    """i == j forces k == i in the unique-conjugator property: conjugating i
    by any other involution moves it."""
    J = involutions(agl_f5)
    for i in J:
        irow = agl_f5.elements[i]
        for k in J:
            krow = agl_f5.elements[k]
            conj = krow[irow[krow]]  # k i k with k its own inverse
            if np.array_equal(conj, irow):
                assert k == i


def test_basic_properties_char2_raises(agl_f4):
    with pytest.raises(CharacteristicTwo):
        verify_basic_properties(agl_f4)


def test_every_odd_characteristic_entry_point_shares_one_guard(agl_f4):
    calls = (
        verify_basic_properties,
        check_geometry_conditions,
        build_geometry,
        census,
        lambda G: verify_xalpha_covering(G, None),  # refused before the geometry is read
    )
    messages = set()
    for call in calls:
        with pytest.raises(CharacteristicTwo) as exc:
            call(agl_f4)
        messages.add(str(exc.value))
    assert messages == {"involutions have no fixed points in characteristic 2"}


def test_fixed_point_equivariance(agl_f5, agl_d9):
    """fix(h^-1 j h) == h(fix(j)): the bijection between involutions and
    points commutes with the group action. Exhaustive over J x G."""
    for G in (agl_f5, agl_d9):
        ident = np.arange(G.degree)
        for j in involutions(G):
            jrow = G.elements[j]
            fix_j = int(np.nonzero(jrow == ident)[0][0])
            for h in range(G.order):
                hrow = G.elements[h]
                conj = hrow[jrow[np.argsort(hrow)]]
                fixes = np.nonzero(conj == ident)[0]
                assert len(fixes) == 1
                assert int(fixes[0]) == hrow[fix_j]


def test_swap_is_always_an_involution_in_j(agl_f7):
    """The unique swapper of x != y is an involution, and lies in J."""
    jset = {tuple(agl_f7.elements[i]) for i in involutions(agl_f7)}
    for x in range(7):
        for y in range(7):
            if x != y:
                (swap,) = naive_swappers(agl_f7, x, y)
                assert naive_order(swap) == 2 and swap in jset


def test_certificate_json_shape(agl_f5):
    import json

    cert = certify_sharply_2_transitive(agl_f5)
    doc = cert.as_dict()
    assert list(doc) == [
        "degree", "order", "order_ok", "pair_transitive", "valid", "failure",
        "involution_count", "fixed_point_profile", "characteristic",
        "j_single_class", "j2_single_class",
    ]
    json.dumps(doc)  # everything serializable


# ---------------------------------------------------------------------------
# conjugation of involutions read through their fixed points


def _odd_groups_up_to_31():
    from involq.catalog import build_entry, run_catalog

    for entry in run_catalog(max_degree=31):
        G = build_entry(entry)
        cert = certify_sharply_2_transitive(G)
        if cert.valid and cert.characteristic != 2:
            yield entry.id, G


def test_conjugation_by_fixed_points_matches_group_conjugation(d9_relabelled):
    """The conjugation table j_conj, and the fixed points of the conjugates
    scanned by verify_basic_properties (a), agree with G.conj on every odd
    catalog entry of degree <= 31 and on a group whose elements are not in
    affine order."""
    from involq.s2t import _conjugate_fixed_points

    groups = list(_odd_groups_up_to_31()) + [("d9-relabelled", d9_relabelled)]
    assert len(groups) >= 10
    for _, G in groups:
        sets = _require_certified(G)
        j = sets.j
        n = len(j)
        assert np.array_equal(sets.j_conj, sets.jpos[G.conj(j[None, :], j[:, None])])
        for ipos in range(n):
            cen = centralizer(G, int(j[ipos]))
            others = np.delete(np.arange(n), ipos)
            by_conj = sets.jpos[G.conj(j[others][None, :], cen[:, None])]
            assert np.array_equal(_conjugate_fixed_points(G, sets.fix_points, cen, others),
                                  sets.fix_points[by_conj])


ODD_ENTRIES = [e.id for e in run_catalog() if e.expected_certified and e.degree % 2]
DATA_DOCS = sorted((Path(__file__).parent / "data").glob("*.json"))


@pytest.mark.parametrize("source", ODD_ENTRIES + [p.name for p in DATA_DOCS] + [1, 2, 3],
                         ids=lambda s: f"ingest-seed-{s}" if isinstance(s, int) else s)
def test_certificate_classes_equal_one_conjugation_pass(source, monkeypatch):
    """The certificate gathers the conjugates of J[0] and of the first
    nontrivial translation from the fixed points of J, and hands them to
    the class pass, so no conjugation pass over G runs: the class and the
    least conjugators it keeps for each equal those of one conjugation pass
    (permgroup._conjugators), on every odd default catalog entry up to
    degree 121, on the documents of tests/data and on the documents of the
    ingest benchmark's seeds 1-3, whose elements are not in affine order."""
    if isinstance(source, int):
        groups = [parse_group_doc(doc) for doc in ingest_documents(source, monkeypatch)]
    elif source.endswith(".json"):
        groups = [parse_group_doc(json.loads((DATA_DOCS[0].parent / source).read_text()))]
    else:
        groups = [build_entry(find_entry(source))]
    conjugators, handed = permgroup._conjugators, []
    monkeypatch.setattr(permgroup, "_conjugators", lambda G, gi, conjugates=None:
                        handed.append(conjugates is not None) or conjugators(G, gi, conjugates))
    for G in groups:
        sets = _require_certified(G)
        t0 = int(sets.translations[sets.translations != G.identity_index][0])
        assert sorted(G._class_cache) == sorted([t0, int(sets.j[0])])
        for gi, (cls, least) in G._class_cache.items():
            want_cls, want_least = conjugators(G, gi)
            assert np.array_equal(cls, want_cls) and np.array_equal(least, want_least)
    assert handed == [True, True] * len(groups)


def _basic_a_by_conjugation(G):
    """Basic property (a) as one G.conj table per involution: the witness of
    the scan before conjugates were read through fixed points."""
    sets = _require_certified(G)
    j = sets.j
    n = len(j)
    positions = np.arange(n)
    for ipos in range(n):
        cen = centralizer(G, int(j[ipos]))
        if len(cen) != n - 1:
            return (int(j[ipos]), "centralizer-size", len(cen), n - 1)
        others = positions[positions != ipos]
        table = sets.jpos[G.conj(j[others][None, :], cen[:, None])]
        assert (table >= 0).all()
        bad = np.nonzero(np.any(np.sort(table, axis=0) != others[:, None], axis=0))[0]
        if len(bad):
            return (int(j[ipos]), int(j[others[bad[0]]]))
    return None


def _fresh_groups():
    """New group objects, so tampered centralizer caches stay local."""
    from involq import affine_group, make_dickson, make_field

    return [affine_group(make_field(7, 1)), affine_group(make_dickson(3, 2))]


@pytest.mark.parametrize("tamper", ["drop-member", "foreign-member", "duplicate-member"])
def test_basic_a_witness_on_tampered_centralizers(tamper):
    """A centralizer one element short fails (a) on its size; one with a
    member swapped for another involution, or for a second copy of a member,
    fails on a column. Either way the witness is the one the G.conj table
    gives."""
    for G in _fresh_groups():
        j = _require_certified(G).j
        target = int(j[3])
        cen = centralizer(G, target)
        if tamper == "drop-member":
            tampered = cen[:-1]
        elif tamper == "foreign-member":
            tampered = np.sort(np.append(cen[:-1], j[5]))
        else:
            tampered = np.sort(np.append(cen[:-1], cen[0]))
        G._centralizer_cache[target] = tampered
        expected = _basic_a_by_conjugation(G)
        assert expected is not None and expected[0] == target
        assert (expected[1] == "centralizer-size") == (tamper == "drop-member")
        check = verify_basic_properties(G).check("centralizer-regular-on-other-involutions")
        assert not check.passed
        assert check.witness == expected


def _basic_c_by_loop(G):
    """Basic property (c) one involution at a time: the scan before the
    centralizers were stacked."""
    sets = _require_certified(G)
    is_translation = np.zeros(G.order, dtype=bool)
    is_translation[sets.translations] = True
    for i in sets.j.tolist():
        cen = centralizer(G, i)
        meet = cen[is_translation[cen]].tolist()
        if meet != [G.identity_index]:
            return (i, meet)
    return None


@pytest.mark.parametrize("tamper", ["drop-identity", "duplicate-identity", "add-translation"])
def test_basic_c_witness_on_tampered_centralizers(tamper):
    """A centralizer without 1, with 1 twice, or with a translation besides
    1 meets the translations in something other than {1}; the stacked scan
    names the involution and the meet the loop names."""
    for G in _fresh_groups():
        sets = _require_certified(G)
        assert _basic_c_by_loop(G) is None
        target = int(sets.j[3])
        cen = centralizer(G, target)
        if tamper == "drop-identity":
            tampered = cen[cen != G.identity_index]
        elif tamper == "duplicate-identity":
            tampered = np.sort(np.append(cen, G.identity_index))
        else:
            tampered = np.sort(np.append(cen[:-1], sets.translations[-1]))
        G._centralizer_cache[target] = tampered
        expected = _basic_c_by_loop(G)
        assert expected is not None and expected[0] == target
        check = verify_basic_properties(G).check("translations-meet-centralizers-trivially")
        assert not check.passed
        assert check.witness == expected


@pytest.mark.parametrize("entry_id", ["agl-field-7", "agl-dickson-3-2", "agl-field-4"])
def test_certified_sets_are_frozen_and_go_with_their_group(entry_id):
    """After every stage has run, the certificate refuses a new field value,
    every array of the certified sets refuses a write and still holds the
    bytes it held right after certification, and the caches of involq.s2t
    keep no group alive: once the group is dropped, none holds an entry for
    it, its sets or their product tables. agl-field-4 has characteristic 2,
    where the sets hold no fixed points or conjugation table, and only the
    split test reads a shared table (T.T); in odd characteristic J.J.J and
    the X_alpha table join it."""
    entry = find_entry(entry_id)
    G = build_entry(entry)
    cert = certify_sharply_2_transitive(G)
    sets = _require_certified(G)
    arrays = {name: value for name, value in vars(sets).items() if value is not None}
    assert (len(arrays) == 4) is (entry_id == "agl-field-4")
    before = {name: array.copy() for name, array in arrays.items()}
    assert verify_group(G, entry)["conforms"]
    assert certify_sharply_2_transitive(G) is cert and _require_certified(G) is sets
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.characteristic = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sets.j = sets.j[:1]
    for name, array in arrays.items():
        assert array.dtype == before[name].dtype and array.shape == before[name].shape
        assert array.tobytes() == before[name].tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    tables = s2t._tables[sets]
    assert len(tables) == 1 + 2 * (entry_id != "agl-field-4")
    for table in tables.values():
        for array in table if isinstance(table, tuple) else (table,):
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0
    caches = (s2t._certified, s2t._tables)
    gc.collect()  # groups of earlier tests that wait in reference cycles go first
    sizes = [len(cache) for cache in caches]
    held = [G in s2t._certified, True]
    alive, sets_alive = weakref.ref(G), weakref.ref(sets)
    del G, sets, arrays, tables
    gc.collect()
    assert alive() is None and sets_alive() is None
    assert [len(cache) for cache in caches] == [n - h for n, h in zip(sizes, held)]


def test_one_verify_group_builds_each_shared_table_once(monkeypatch):
    """In one verify_group of agl-field-25, the certified translations are
    multiplied by themselves once, J by the translations once, and the
    X_alpha products are built once: the split test, the odd-subgroup scan
    and geometry condition (a) read the one T.T table, the census (twice:
    its alpha sample is drawn from J.J.J) and the covering scan the one
    J.J.J, and the census and the covering scan the one X_alpha table.
    (The abelian test of condition (c) multiplies each centralizer set
    apart, a cross-check.) No conjugation pass over G runs: the certificate
    hands the class pass of the first nontrivial translation and of J[0]
    the conjugates it gathers from the fixed points of J, and the first
    centralizer miss on each reads the pass it keeps."""
    census_mod = importlib.import_module("involq.census")
    entry = find_entry("agl-field-25")
    G = build_entry(entry)
    reads, builds, passes, tt_products, jt_products = [], [], [], [], []
    shared, conjugators, mul = s2t._shared_table, permgroup._conjugators, G.mul

    def spy_table(sets, key, build):
        reads.append(key)
        return shared(sets, key, lambda: builds.append(key) or build())

    def spy_mul(a, b):
        tt_products.append(np.shares_memory(a, sets.translations)
                           and np.shares_memory(b, sets.translations))
        jt_products.append(np.shares_memory(a, sets.j) and np.shares_memory(b, sets.translations))
        return mul(a, b)

    monkeypatch.setattr(s2t, "_shared_table", spy_table)
    monkeypatch.setattr(census_mod, "_shared_table", spy_table)
    monkeypatch.setattr(permgroup, "_conjugators", lambda G, gi, conjugates=None:
                        passes.append((gi, conjugates is None)) or conjugators(G, gi, conjugates))
    sets = _require_certified(G)  # certified first: the product spy watches the stages
    monkeypatch.setattr(G, "mul", spy_mul)
    assert verify_group(G, entry)["conforms"]

    tt, j3, x_alpha = ("translation products", "triple products",
                       ("x_alpha", census_mod.DEFAULT_ALPHA_CAP))
    assert builds == [tt, j3, x_alpha]
    assert (reads.count(tt), reads.count(j3), reads.count(x_alpha), len(reads)) == (3, 3, 2, 8)
    assert sum(tt_products) == sum(jt_products) == 1
    nontrivial = sets.translations[sets.translations != G.identity_index]
    assert passes == [(int(nontrivial[0]), False), (int(sets.j[0]), False)]


def test_one_verify_group_certifies_once(monkeypatch):
    """The stages read the certified sets from the cache, and certify only
    on a miss: one verify_group of agl-field-25 calls
    certify_sharply_2_transitive once, in the certificate stage, so a count
    of its calls counts certifications, not cached reads."""
    entry = find_entry("agl-field-25")
    G = build_entry(entry)
    certify, calls = s2t.certify_sharply_2_transitive, []
    monkeypatch.setattr(s2t, "certify_sharply_2_transitive", lambda G: calls.append(G) or certify(G))
    assert verify_group(G, entry)["conforms"]
    assert calls == [G]


def test_characteristic_two_finds_the_class_of_j_by_a_conjugation_pass(monkeypatch):
    """In characteristic 2 the involutions fix no point, so one verify_group
    of agl-field-4 runs the one conjugation pass over G, on J[0], and no
    translation class is compared."""
    entry = find_entry("agl-field-4")
    G = build_entry(entry)
    conjugators, passes = permgroup._conjugators, []
    monkeypatch.setattr(permgroup, "_conjugators", lambda G, gi, conjugates=None:
                        passes.append((gi, conjugates is None)) or conjugators(G, gi, conjugates))
    assert verify_group(G, entry)["conforms"]
    cert = certify_sharply_2_transitive(G)
    assert cert.j_single_class and cert.j2_single_class is None
    assert passes == [(int(involutions(G)[0]), True)]
