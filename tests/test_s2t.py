"""Sharp 2-transitivity certificates and the derived element sets."""

import tracemalloc

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    InvolqError,
    NotSharply2Transitive,
    PointOutOfRange,
    PointsEqual,
    build_geometry,
    census,
    certify_sharply_2_transitive,
    characteristic,
    centralizer,
    check_geometry_conditions,
    involutions,
    parse_group_doc,
    swap_involution,
    translations,
    verify_basic_properties,
    verify_xalpha_covering,
    x_alpha,
)
from involq.permgroup import PermGroup, identity_perm, perm_order
from involq.s2t import _element_orders, fixed_point_bijection_ok


def test_certificate_agl_f5(agl_f5):
    cert = certify_sharply_2_transitive(agl_f5)
    assert cert.valid
    assert cert.degree == 5 and cert.order == 20
    assert cert.involution_count == 5
    assert cert.fixed_point_profile == "all-one-fixed"
    assert cert.characteristic == 5
    assert cert.j_single_class and cert.j2_single_class


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
    G = PermGroup(20000, identity_perm(20000)[None, :], np.empty((0, 20000), dtype=np.int32))
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
    G = request.getfixturevalue(group)
    trans = translations(G)
    nontrivial = trans[trans != G.identity_index]
    assert len(nontrivial) == G.degree - 1
    expected = [perm_order(G.elements[t]) for t in nontrivial]
    assert _element_orders(G, nontrivial).tolist() == expected


def test_translation_order_errors(monkeypatch):
    """A translation set of mixed or composite element orders is refused.
    AGL(1, 7) is rebuilt for each case: the certificate is cached on the group."""
    from involq import CharacteristicAnomaly, affine_group, make_field
    from involq import s2t

    f7 = make_field(7, 1)
    G = affine_group(f7)
    # add the involution x -> -x to the translations: orders 2 and 7
    negation = G.index_of(np.array([(-x) % 7 for x in range(7)], dtype=np.int32))
    real = s2t._translation_indices
    monkeypatch.setattr(s2t, "_translation_indices",
                        lambda G, cert: np.union1d(real(G, cert), [negation]))
    with pytest.raises(CharacteristicAnomaly, match=r"translation orders not constant: \[2, 7\]"):
        certify_sharply_2_transitive(G)

    G = affine_group(f7)
    # the maps x -> 3x + a all have order 6, as 3 is primitive mod 7
    times3 = [G.index_of(np.array([(3 * x + a) % 7 for x in range(7)], dtype=np.int32))
              for a in range(7)]
    monkeypatch.setattr(s2t, "_translation_indices",
                        lambda G, cert: np.array([G.identity_index, *sorted(times3)]))
    with pytest.raises(CharacteristicAnomaly, match="translation order 6 is not prime"):
        certify_sharply_2_transitive(G)


def test_translations_meeting_a_centralizer_witness():
    from involq import affine_group, make_field

    G = affine_group(make_field(7, 1))
    cert = certify_sharply_2_transitive(G)
    first = int(involutions(G)[0])
    extra = int(centralizer(G, first)[-1])
    assert extra != G.identity_index
    cert._translations = np.union1d(cert._translations, [extra])
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
        assert fixed_point_bijection_ok(G)


def test_swap_involution_f5(agl_f5):
    swap = swap_involution(agl_f5, 0, 1)
    assert swap.tolist() == [(1 - x) % 5 for x in range(5)]  # x -> -x + 1


def test_swap_symmetry(agl_f5, agl_f7):
    for G in (agl_f5, agl_f7):
        for x in range(G.degree):
            for y in range(x + 1, G.degree):
                assert np.array_equal(
                    swap_involution(G, x, y), swap_involution(G, y, x)
                )


def test_swap_fixed_point_count(agl_f7):
    swap = swap_involution(agl_f7, 2, 5)
    assert int((swap == np.arange(7)).sum()) == 1


def test_swap_points_equal(agl_f5):
    with pytest.raises(PointsEqual):
        swap_involution(agl_f5, 2, 2)


@pytest.mark.parametrize("point", [5, -1])
def test_swap_points_out_of_range(agl_f5, point):
    """Point 5 raised numpy's IndexError; point -1 was read as point 4, and
    the group was blamed: "0 elements swap -1 and 0; input is not sharply
    2-transitive"."""
    for x, y in ((point, 0), (0, point)):
        with pytest.raises(PointOutOfRange, match=rf"^point {point} is not in 0\.\.4$") as err:
            swap_involution(agl_f5, x, y)
        assert isinstance(err.value, InvolqError)


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
        fixed_point_bijection_ok,
        check_geometry_conditions,
        build_geometry,
        census,
        lambda G: x_alpha(G, G.identity_index),
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
    jset = {tuple(agl_f7.elements[i]) for i in involutions(agl_f7)}
    for x in range(7):
        for y in range(7):
            if x != y:
                assert tuple(swap_involution(agl_f7, x, y)) in jset


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
    """cert._j_conj, and the fixed points of the conjugates scanned by
    verify_basic_properties (a), agree with G.conj on every odd catalog entry
    of degree <= 31 and on a group whose elements are not in affine order."""
    from involq.s2t import _conjugate_fixed_points

    groups = list(_odd_groups_up_to_31()) + [("d9-relabelled", d9_relabelled)]
    assert len(groups) >= 10
    for _, G in groups:
        cert = certify_sharply_2_transitive(G)
        j = cert._j
        n = len(j)
        assert np.array_equal(cert._j_conj, cert._jpos[G.conj(j[None, :], j[:, None])])
        for ipos in range(n):
            cen = centralizer(G, int(j[ipos]))
            others = np.delete(np.arange(n), ipos)
            by_conj = cert._jpos[G.conj(j[others][None, :], cen[:, None])]
            assert np.array_equal(_conjugate_fixed_points(G, cert, cen, others),
                                  cert._fix_points[by_conj])


def _basic_a_by_conjugation(G):
    """Basic property (a) as one G.conj table per involution: the witness of
    the scan before conjugates were read through fixed points."""
    cert = certify_sharply_2_transitive(G)
    j = cert._j
    n = len(j)
    positions = np.arange(n)
    for ipos in range(n):
        cen = centralizer(G, int(j[ipos]))
        if len(cen) != n - 1:
            return (int(j[ipos]), "centralizer-size", len(cen), n - 1)
        others = positions[positions != ipos]
        table = cert._jpos[G.conj(j[others][None, :], cen[:, None])]
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
        cert = certify_sharply_2_transitive(G)
        j = cert._j
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
    cert = certify_sharply_2_transitive(G)
    is_translation = np.zeros(G.order, dtype=bool)
    is_translation[cert._translations] = True
    for i in cert._j.tolist():
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
        cert = certify_sharply_2_transitive(G)
        assert _basic_c_by_loop(G) is None
        target = int(cert._j[3])
        cen = centralizer(G, target)
        if tamper == "drop-identity":
            tampered = cen[cen != G.identity_index]
        elif tamper == "duplicate-identity":
            tampered = np.sort(np.append(cen, G.identity_index))
        else:
            tampered = np.sort(np.append(cen[:-1], cert._translations[-1]))
        G._centralizer_cache[target] = tampered
        expected = _basic_c_by_loop(G)
        assert expected is not None and expected[0] == target
        check = verify_basic_properties(G).check("translations-meet-centralizers-trivially")
        assert not check.passed
        assert check.witness == expected


def test_fixed_point_map_must_be_a_bijection(monkeypatch):
    """With one involution missing, a point is fixed by no listed involution:
    the certificate refuses to conjugate through fixed points."""
    from involq import CharacteristicAnomaly, s2t

    G = _fresh_groups()[0]
    listed = s2t._involution_indices
    monkeypatch.setattr(s2t, "_involution_indices", lambda G: listed(G)[1:])
    with pytest.raises(CharacteristicAnomaly, match="not a bijection"):
        certify_sharply_2_transitive(G)
