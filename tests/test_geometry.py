"""Incidence structure construction and the scans over it."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    Geometry,
    Line,
    PointsEqual,
    build_geometry,
    centralizer,
    check_geometry_conditions,
    divisible_subgroup_scan,
    involutions,
    line_through,
    plane_closure,
    translations,
    verify_line_lemma,
    verify_no_proper_plane,
)
from involq import geometry as geometry_mod
from involq import pipeline
from involq.catalog import build_entry, find_entry, run_catalog
from involq.geometry import close_point_masks, no_plane_verdicts
from involq.reporting import least_cell, least_cells
from involq.s2t import certify_sharply_2_transitive


def test_conditions_hold_and_agree(agl_f5, agl_f7, agl_d9):
    for G in (agl_f5, agl_f7, agl_d9):
        report = check_geometry_conditions(G)
        assert report.ok
        names = [c.name for c in report.checks]
        assert names == [
            "commuting-transitive-on-translations",
            "unique-square-roots-in-product-meets",
            "centralizers-match-products-abelian-inverted",
            "centralizer-classes-partition-translations",
            "conditions-agree",
        ]
        assert all(c.passed for c in report.checks)


@pytest.mark.parametrize("group, outside", [("agl_f7", 6), ("agl_d9", 8)])
def test_conditions_witnesses_on_tampered_certificate(group, outside, request, monkeypatch):
    """With the last translation dropped from the certificate, only (d) fails:
    its least element outside the listed translations is the dropped one."""
    G = request.getfixturevalue(group)
    cert = certify_sharply_2_transitive(G)
    monkeypatch.setattr(cert, "_translations", cert._translations[:-1])
    report = check_geometry_conditions(G)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("commuting-transitive-on-translations", True, None),
        ("unique-square-roots-in-product-meets", True, None),
        ("centralizers-match-products-abelian-inverted", True, None),
        ("centralizer-classes-partition-translations", False, (outside, "outside-translations")),
        ("conditions-agree", False, None),
    ]


def _condition_c_by_loop(G):
    """Condition (c) one involution at a time, with the masks built directly:
    the witness of the scan before it read the (i, k, c) cube."""
    cert = certify_sharply_2_transitive(G)
    j, ij = cert._j, cert._jj
    n = len(j)
    in_ij = np.zeros((n, G.order), dtype=bool)
    in_ij[np.arange(n)[:, None], ij] = True
    every = np.arange(G.order)
    inverted = G.conj(every[None, :], j[:, None]) == G.inv(every)[None, :]
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            cen = np.zeros(G.order, dtype=bool)
            members = centralizer(G, int(ij[i, k]))
            cen[members] = True
            products = G.mul(members[:, None], members[None, :])
            failed = [
                (cen[ij[i]] != in_ij[k, ij[i]]).any() or cen[ij[i]].sum() != len(members),
                not np.array_equal(products, products.T),
                (cen[ij[i]] & ~inverted[k, ij[i]]).any(),
            ]
            if any(failed):
                return (int(j[i]), int(j[k]), geometry_mod._C_REASONS[failed.index(True)])
    return None


def _fresh_groups():
    """New group objects, so tampering stays local to the test."""
    from involq import affine_group, make_dickson, make_field

    return [affine_group(make_field(7, 1)), affine_group(make_dickson(3, 2)),
            affine_group(make_field(5, 2))]


@pytest.mark.parametrize("chunk_cells", [1 << 18, 1])
@pytest.mark.parametrize("tamper, reason", [
    ("drop-centralizer-member", "centralizer-mismatch"),
    ("wrong-inverse", "not-inverted"),
])
def test_condition_c_witness_matches_the_loop(tamper, reason, chunk_cells, monkeypatch):
    """A translation whose cached centralizer lost a member fails (c) as a
    mismatch. Not-inverted cannot be reached through the centralizer cache:
    a row that matches iJ meet kJ is inverted by k. It is reached through a
    wrong inverse of the first involution k, which breaks conjugation by k,
    so the first failing pair has i = 1. Either way, in one chunk or one
    chunk per involution, the cube's witness is the loop's."""
    monkeypatch.setattr(geometry_mod, "_CHUNK_CELLS", chunk_cells)
    for G in _fresh_groups():
        cert = certify_sharply_2_transitive(G)
        assert _condition_c_by_loop(G) is None
        if tamper == "drop-centralizer-member":
            sigma = int(cert._jj[3, 5])
            cen = centralizer(G, sigma)
            G._centralizer_cache[sigma] = cen[cen != sigma]
        else:
            G._inverse = G._inverse.copy()
            G._inverse[cert._j[0]] = G.identity_index
        expected = _condition_c_by_loop(G)
        assert expected is not None and expected[2] == reason
        check = check_geometry_conditions(G).check(
            "centralizers-match-products-abelian-inverted")
        assert not check.passed
        assert check.witness == expected


def test_conditions_char2_raises(agl_f4):
    with pytest.raises(CharacteristicTwo):
        check_geometry_conditions(agl_f4)
    with pytest.raises(CharacteristicTwo):
        build_geometry(agl_f4)


def test_single_line_geometry_f5(agl_f5):
    geom = build_geometry(agl_f5)
    assert geom.n_points == 5
    assert len(geom.lines) == 1
    assert geom.lines[0].points == tuple(range(5))
    assert len(geom.classes) == 1


def test_single_line_geometry_dickson(agl_d9):
    geom = build_geometry(agl_d9)
    assert geom.n_points == 9
    assert len(geom.lines) == 1
    assert geom.lines[0].points == tuple(range(9))


def test_line_size_equals_centralizer_size(agl_f7):
    geom = build_geometry(agl_f7)
    line = line_through(geom, 0, 1)
    assert len(line.points) == 7
    sigma = int(np.flatnonzero(geom.line_of_translation >= 0)[0])
    assert len(centralizer(agl_f7, agl_f7.elements[sigma])) == 7


def test_line_through_basics(agl_f5):
    geom = build_geometry(agl_f5)
    for i in range(5):
        for j in range(5):
            if i == j:
                with pytest.raises(PointsEqual):
                    line_through(geom, i, j)
            else:
                line = line_through(geom, i, j)
                assert line == line_through(geom, j, i)
                assert i in line.points and j in line.points


def test_unique_line_through_pairs(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        geom = build_geometry(G)
        n = geom.n_points
        for i in range(n):
            for j in range(n):
                if i != j:
                    containing = [
                        lid for lid, line in enumerate(geom.lines)
                        if i in line.points and j in line.points
                    ]
                    assert len(containing) == 1
                    assert containing[0] == geom.line_of_pair[i, j]


def test_lines_meet_in_at_most_one_point(agl_d25):
    geom = build_geometry(agl_d25)
    for a in range(len(geom.lines)):
        for b in range(a + 1, len(geom.lines)):
            common = set(geom.lines[a].points) & set(geom.lines[b].points)
            assert len(common) <= 1


def test_incidence_constant_line_count(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        geom = build_geometry(G)
        counts = {int(geom.incidence[:, p].sum()) for p in range(geom.n_points)}
        assert len(counts) == 1
        assert counts.pop() >= 1


def test_one_line_theorem_on_the_catalog():
    """Every finite sharply 2-transitive group splits, and in K x| K* the
    centralizer of a nontrivial translation is the translation group T; so
    every line a.Cen(ab) is a.T = J, and the geometry has exactly one line."""
    odd = [e for e in run_catalog(31)
           if e.expected_certified and e.expected_characteristic != 2]
    assert len(odd) == 15
    for entry in odd:
        G = build_entry(entry)
        trans = translations(G)
        for t in trans[trans != G.identity_index].tolist():
            assert np.array_equal(centralizer(G, t), trans), (entry.id, t)
        assert len(build_geometry(G).lines) == 1, entry.id


def test_line_products_lie_in_class(agl_f7):
    """The product of two points of a line centralizes the defining translation."""
    geom = build_geometry(agl_f7)
    G = agl_f7
    line = geom.lines[0]
    cls = set(geom.classes[line.class_id]) | {G.identity_index}
    for a in line.points:
        for b in line.points:
            arow = G.elements[geom.points[a]]
            brow = G.elements[geom.points[b]]
            assert G.index_of(brow[arow]) in cls


def test_conjugation_inverts_defining_translation(agl_f5):
    """For every point k of the line of (i, j): k (ij) k == ji."""
    G = agl_f5
    geom = build_geometry(G)
    J = geom.points
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            arow, brow = G.elements[J[a]], G.elements[J[b]]
            sigma = brow[arow]        # a then b
            sigma_rev = arow[brow]    # b then a
            for k in line_through(geom, a, b).points:
                krow = G.elements[J[k]]
                assert np.array_equal(krow[sigma[krow]], sigma_rev)


def test_line_lemma(agl_f5, agl_f7, agl_d9, agl_d25):
    for G in (agl_f5, agl_f7, agl_d9, agl_d25):
        report = verify_line_lemma(build_geometry(G))
        assert report.ok


def test_geometry_json(agl_f5):
    geom = build_geometry(agl_f5)
    doc = geom.as_json_dict()
    assert set(doc) == {"points", "lines", "classes"}
    assert doc["points"] == [int(j) for j in involutions(agl_f5)]
    assert doc["lines"] == [[0, 1, 2, 3, 4]]
    assert len(doc["classes"]) == 1


# ---------------------------------------------------------------------------
# closures


def test_closure_basics(agl_f5):
    geom = build_geometry(agl_f5)
    assert plane_closure(geom, []).points == ()
    assert plane_closure(geom, [2]).points == (2,)
    full = plane_closure(geom, [0, 1])
    assert full.points == (0, 1, 2, 3, 4)
    assert full.contained_lines == (0,)
    assert full.pairwise_meeting


def test_closure_idempotent(agl_d9):
    geom = build_geometry(agl_d9)
    for seed in ([], [3], [0, 5], [1, 2, 7], list(range(9))):
        once = plane_closure(geom, seed)
        again = plane_closure(geom, once.points)
        assert once.points == again.points
        assert set(seed) <= set(once.points)


def test_no_proper_plane_on_full_point_set(agl_f5, agl_d9, agl_d25):
    for G in (agl_f5, agl_d9, agl_d25):
        geom = build_geometry(G)
        verdict = verify_no_proper_plane(geom, range(geom.n_points))
        assert verdict.hypotheses_met
        assert verdict.line_count == 1
        assert verdict.ok


def test_no_proper_plane_on_single_line(agl_f7):
    geom = build_geometry(agl_f7)
    verdict = verify_no_proper_plane(geom, geom.lines[0].points)
    assert verdict.hypotheses_met and verdict.line_count == 1


def test_no_proper_plane_detects_unclosed_set(agl_f5):
    geom = build_geometry(agl_f5)
    verdict = verify_no_proper_plane(geom, [0, 1])  # the line through 0,1 leaves {0,1}
    assert not verdict.hypotheses_met
    assert verdict.failed_hypothesis == "a"
    assert verdict.ok  # hypotheses not met: nothing to refute


def test_singleton_and_empty_sets_meet_hypotheses(agl_f5):
    geom = build_geometry(agl_f5)
    for X in ([], [3]):
        verdict = verify_no_proper_plane(geom, X)
        assert verdict.hypotheses_met and verdict.line_count == 0


# ---------------------------------------------------------------------------
# odd-order subgroup scan


def test_subgroup_scan_f5(agl_f5):
    geom = build_geometry(agl_f5)
    report = divisible_subgroup_scan(geom)
    assert report.ok and report.complete
    assert report.found == 1
    assert report.size_histogram == {5: 1}


def test_subgroup_scan_f7(agl_f7):
    geom = build_geometry(agl_f7)
    report = divisible_subgroup_scan(geom)
    assert report.ok
    assert report.size_histogram == {7: 1}


def test_subgroup_scan_dickson9(agl_d9):
    # translations form an elementary abelian group of order 9:
    # four subgroups of order 3 plus the whole group
    geom = build_geometry(agl_d9)
    report = divisible_subgroup_scan(geom)
    assert report.ok and report.complete
    assert report.found == 5
    assert report.size_histogram == {3: 4, 9: 1}


def test_subgroup_scan_found_groups_are_inverted(agl_d9):
    """Every involution inverts every translation, so it normalizes every
    subgroup of the translations: each subgroup the scan examines is found,
    and each lies in the translation group, the centralizer of its members."""
    for G, found, histogram in (
        (agl_d9, 5, {3: 4, 9: 1}),
        (build_entry(find_entry("agl-field-27")), 26, {3: 13, 9: 13}),
    ):
        for t in translations(G):
            trow = G.elements[t]
            for j in involutions(G):
                jrow = G.elements[j]
                assert np.array_equal(jrow[trow[jrow]], np.argsort(trow))  # t^j == t^-1
        report = divisible_subgroup_scan(build_geometry(G))
        assert report.found == report.examined == found
        assert report.size_histogram == histogram
        assert report.violations == []


def test_subgroup_scan_cap(agl_d9, monkeypatch):
    monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", 5)
    geom = build_geometry(agl_d9)
    report = divisible_subgroup_scan(geom)
    assert not report.complete
    assert report.skipped_over_cap > 0
    assert report.size_histogram == {3: 4}  # order-9 closure was abandoned


def naive_subgroup_scan(geom, cap):
    """Test-local oracle for divisible_subgroup_scan on permutation rows.

    Cyclic subgroups come from walking the powers of each translation, pair
    closures from multiplying every member by every member until nothing new
    appears; a power or product outside the translations discards the
    candidate, and passing ``cap`` members abandons it (counted once per
    translation or pair). Normalizers and centralizers are found by composing
    rows."""
    G = geom.group
    rows = [tuple(int(x) for x in row) for row in G.elements]
    index = {row: i for i, row in enumerate(rows)}
    trans = {int(t) for t in geom.translation_ids}
    identity = G.identity_index

    def mul(a, b):  # a then b
        return index[tuple(rows[b][x] for x in rows[a])]

    over_cap = "over cap"

    def cyclic(k):
        members, power = {identity, k}, k
        while True:
            power = mul(power, k)
            if power not in trans:
                return None
            if power in members:
                return frozenset(members)
            members.add(power)
            if len(members) > cap:
                return over_cap

    def close(members):
        while True:
            products = {mul(a, b) for a in members for b in members}
            if not products <= trans:
                return None
            if products <= members:
                return frozenset(members)
            members = members | products
            if len(members) > cap:
                return over_cap

    outcomes = [cyclic(k) for k in sorted(trans - {identity})]
    distinct = sorted({c for c in outcomes if c not in (None, over_cap)}, key=sorted)
    outcomes += [close(a | b) for i, a in enumerate(distinct) for b in distinct[i + 1:]]
    subgroups = {c for c in outcomes if c not in (None, over_cap)}
    skipped = outcomes.count(over_cap)

    def conj(t, j):  # j t j, for an involution j
        return mul(mul(j, t), j)

    normalizers = [j for j in geom.points.tolist() if all(conj(t, j) in trans for t in trans)]
    centralizers = [{c for c in range(G.order) if mul(c, cls[0]) == mul(cls[0], c)}
                    for cls in geom.classes]
    found = sorted((s for s in subgroups
                    if len(s) % 2 == 1 and len(s) > 1
                    and any({conj(t, j) for t in s} == s for j in normalizers)),
                   key=lambda s: (len(s), sorted(s)))
    histogram = {}
    for s in found:
        histogram[len(s)] = histogram.get(len(s), 0) + 1
    return {
        "examined": len(subgroups),
        "found": len(found),
        "size_histogram": histogram,
        "violations": [tuple(sorted(s)) for s in found
                       if not any(s <= cen for cen in centralizers)],
        "skipped_over_cap": skipped,
    }


ODD_UP_TO_27 = [e.id for e in run_catalog(27)
                if e.expected_certified and e.expected_characteristic != 2]


@pytest.mark.parametrize("entry_id", ODD_UP_TO_27)
def test_subgroup_scan_matches_naive_oracle(entry_id, monkeypatch):
    geom = build_geometry(build_entry(find_entry(entry_id)))
    for cap in (3, 5, 512):
        monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
        report = divisible_subgroup_scan(geom)
        expected = naive_subgroup_scan(geom, cap)
        assert {key: getattr(report, key) for key in expected} == expected, cap
        assert report.complete is (expected["skipped_over_cap"] == 0)


def test_subgroup_scan_escapes_and_violations_match_naive_oracle(agl_f7, agl_d9,
                                                                 monkeypatch):
    """With an inverse pair of translations dropped, candidates that reach it
    are discarded: on agl_f7 at cap 3 the escape at the third power is found
    before the cap, at cap 2 two walks pass the cap first. With no translation
    class every found subgroup is a violation, listed by size, then members."""
    skipped = {}
    for G in (agl_f7, agl_d9):
        thinned = build_geometry(G)
        t = int(thinned.translation_ids[2])
        thinned.translation_ids = np.setdiff1d(thinned.translation_ids, [t, G.inv(t)])
        no_classes = build_geometry(G)
        no_classes.classes = []
        for name, geom in (("thinned", thinned), ("no classes", no_classes)):
            for cap in (2, 3, 512):
                monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
                report = divisible_subgroup_scan(geom)
                expected = naive_subgroup_scan(geom, cap)
                assert {key: getattr(report, key) for key in expected} == expected
                skipped[G.degree, name, cap] = report.skipped_over_cap
    assert skipped[7, "thinned", 2] == 2 and skipped[7, "thinned", 3] == 0
    monkeypatch.undo()
    assert divisible_subgroup_scan(no_classes).violations == [
        (0, 1, 2), (0, 3, 6), (0, 4, 8), (0, 5, 7), tuple(range(9)),
    ]


# ---------------------------------------------------------------------------
# hand-built geometries with more than one line


def hand_geometry(lines, n_points) -> Geometry:
    """A Geometry on points 0..n_points-1 with the given lines (a linear
    space: every pair of points on exactly one line), numbered in sorted
    order. It has no group, so only the closure and verdict scans apply."""
    lines = sorted(tuple(sorted(line)) for line in lines)
    geom = Geometry(None)
    geom.points = np.arange(n_points)
    geom.lines = [Line(points=line, class_id=lid) for lid, line in enumerate(lines)]
    geom.incidence = np.zeros((len(lines), n_points), dtype=bool)
    geom.line_of_pair = np.full((n_points, n_points), -1)
    for lid, line in enumerate(lines):
        geom.incidence[lid, list(line)] = True
        for a in line:
            for b in line:
                if a != b:
                    geom.line_of_pair[a, b] = lid
    return geom


FANO = hand_geometry([(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)], 7)
AG22 = hand_geometry([(a, b) for a in range(4) for b in range(a + 1, 4)], 4)


def _affine_plane_3():
    """AG(2,3): the point (x, y) of GF(3)^2 is 3x + y; a line is
    {p + t d : t in GF(3)} for a point p and a direction d != 0."""
    vectors = list(itertools.product(range(3), repeat=2))
    lines = {
        tuple(sorted(3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3)))
        for x, y in vectors for dx, dy in vectors if (dx, dy) != (0, 0)
    }
    return hand_geometry(lines, 9)


def _projective_plane_3():
    """PG(2,3): points are the vectors of GF(3)^3 whose first nonzero
    coordinate is 1, numbered in lexicographic order; the line of w is the
    set of points orthogonal to w."""
    points = [v for v in itertools.product(range(3), repeat=3)
              if any(v) and v[next(k for k in range(3) if v[k])] == 1]
    lines = [
        [i for i, v in enumerate(points) if sum(a * b for a, b in zip(v, w)) % 3 == 0]
        for w in points
    ]
    return hand_geometry(lines, 13)


def _projective_space_2():
    """PG(3,2): the point i is the nonzero vector i + 1 of GF(2)^4; the line
    through a and b holds a, b and a + b."""
    lines = {tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
             for a in range(1, 16) for b in range(1, 16) if a != b}
    return hand_geometry(lines, 15)


AG23 = _affine_plane_3()
PG23 = _projective_plane_3()
PG32 = _projective_space_2()


def test_hand_geometries_are_linear_spaces():
    assert [line.points for line in FANO.lines] == [
        (0, 1, 3), (0, 2, 6), (0, 4, 5), (1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6),
    ]
    for geom, n_points, n_lines, line_size in (
        (AG23, 9, 12, 3), (PG23, 13, 13, 4), (PG32, 15, 35, 3),
    ):
        assert (geom.n_points, len(geom.lines)) == (n_points, n_lines)
        assert (geom.incidence.sum(axis=1) == line_size).all()
        inc = geom.incidence.astype(int)
        assert (np.triu(inc @ inc.T, 1) <= 1).all()  # two lines share at most a point
    for geom in (FANO, AG22, AG23, PG23, PG32):
        n = geom.n_points
        assert (geom.line_of_pair[~np.eye(n, dtype=bool)] >= 0).all()


@pytest.mark.parametrize("geom, seed, points, contained, meeting", [
    (FANO, [0, 1], (0, 1, 3), (0,), True),
    (FANO, [0, 1, 2], tuple(range(7)), tuple(range(7)), True),
    (FANO, [3], (3,), (), True),
    (AG22, [0, 1], (0, 1), (0,), True),
    (AG22, [0, 1, 2], (0, 1, 2), (0, 1, 3), True),
    (AG22, [2, 3], (2, 3), (5,), True),
    (AG22, [0, 1, 2, 3], (0, 1, 2, 3), tuple(range(6)), False),
])
def test_closures_with_many_lines(geom, seed, points, contained, meeting):
    closure = plane_closure(geom, seed)
    assert closure.points == points
    assert closure.contained_lines == contained
    assert closure.pairwise_meeting is meeting
    assert plane_closure(geom, closure.points) == closure


def test_whole_fano_plane_refutes_the_verdict():
    verdict = verify_no_proper_plane(FANO, range(7))
    assert verdict.hypotheses_met and verdict.line_count == 7
    assert verdict.ok is False
    triangle = verify_no_proper_plane(AG22, [0, 1, 2])
    assert triangle.hypotheses_met and triangle.line_count == 3 and not triangle.ok


@pytest.mark.parametrize("geom, n_points, n_lines, meeting, failed, ok", [
    (AG23, 9, 12, False, "b", True),
    (PG23, 13, 13, True, None, False),
    (PG32, 7, 7, True, None, False),  # a Fano plane inside PG(3,2)
], ids=["AG(2,3)", "PG(2,3)", "PG(3,2)"])
def test_closure_of_a_triangle_in_real_linear_spaces(geom, n_points, n_lines,
                                                      meeting, failed, ok):
    """The closure of {0, 1, c}, c the least point off the line through 0
    and 1, is the plane the three points span."""
    c = int(np.flatnonzero(~geom.incidence[geom.line_of_pair[0, 1]])[0])
    closure = plane_closure(geom, [0, 1, c])
    assert len(closure.points) == n_points
    assert len(closure.contained_lines) == n_lines
    assert closure.pairwise_meeting is meeting
    verdict = verify_no_proper_plane(geom, closure.points)
    assert verdict.hypotheses_met is (failed is None)
    assert verdict.failed_hypothesis == failed
    assert verdict.line_count == (n_lines if failed is None else None)
    assert verdict.ok is ok


def test_failed_hypothesis_witnesses_with_many_lines():
    for X in ([0, 1], [0, 1, 2]):
        verdict = verify_no_proper_plane(FANO, X)
        assert (verdict.failed_hypothesis, verdict.witness) == ("a", (0, 1))
        assert verdict.ok
    verdict = verify_no_proper_plane(AG22, range(4))  # lines {0,1} and {2,3} are parallel
    assert (verdict.hypotheses_met, verdict.failed_hypothesis, verdict.witness) == (False, "b", (0, 5))
    assert verdict.ok


# ---------------------------------------------------------------------------
# the batched closure and verdict kernels against naive set loops


def naive_closure(geom, seed):
    """The least superset of ``seed`` holding the line of each of its pairs,
    by a loop over Python sets."""
    lines = [set(line.points) for line in geom.lines]
    current = set(seed)
    while True:
        grown = set(current)
        for a, b in itertools.permutations(current, 2):
            grown |= lines[geom.line_of_pair[a, b]]
        if grown == current:
            return current
        current = grown


def naive_verdict(geom, point_set):
    """(failed hypothesis, witness, line count) of the set, pair by pair:
    (a) the least member pair whose line leaves the set, then (b) the least
    pair of contained lines that do not meet."""
    X = set(point_set)
    lines = [set(line.points) for line in geom.lines]
    inside = [lid for lid, points in enumerate(lines) if points <= X]
    for a, b in itertools.combinations(sorted(X), 2):
        if not lines[geom.line_of_pair[a, b]] <= X:
            return "a", (a, b), None
    for l, m in itertools.combinations(inside, 2):
        if not lines[l] & lines[m]:
            return "b", (l, m), None
    return None, None, len(inside)


def test_least_cells_reads_the_witness_rule_per_mask():
    masks = np.zeros((3, 2, 4), dtype=bool)
    masks[0, 1, 2] = masks[0, 1, 3] = masks[2, 0, 3] = masks[2, 1, 0] = True
    assert least_cells(masks).tolist() == [[1, 2], [-1, -1], [0, 3]]
    assert [least_cell(m) for m in masks] == [(1, 2), None, (0, 3)]
    assert least_cells(np.zeros((2, 0, 0), dtype=bool)).tolist() == [[-1, -1], [-1, -1]]
    assert least_cell(np.zeros((0, 3), dtype=bool)) is None


def assert_kernels_match_naive(geom, seeds):
    masks = np.zeros((len(seeds), geom.n_points), dtype=bool)
    for row, seed in enumerate(seeds):
        masks[row, list(seed)] = True
    closed = close_point_masks(geom, masks)
    # the verdicts of the seeds themselves reach (a), those of closures (b)
    for stack, sets in ((masks, seeds), (closed, [naive_closure(geom, s) for s in seeds])):
        failed, witness, line_count = no_plane_verdicts(geom, stack)
        for row, point_set in enumerate(sets):
            hypothesis, pair, lines = naive_verdict(geom, point_set)
            assert geometry_mod.HYPOTHESES[failed[row]] == hypothesis, point_set
            assert tuple(witness[row]) == (pair or (-1, -1)), point_set
            if hypothesis is None:
                assert line_count[row] == lines, point_set
            verdict = verify_no_proper_plane(geom, point_set)
            assert (verdict.failed_hypothesis, verdict.witness, verdict.line_count) == (
                hypothesis, pair, lines)
    for row, seed in enumerate(seeds):
        points = naive_closure(geom, seed)
        assert set(np.flatnonzero(closed[row])) == points, seed
        closure = plane_closure(geom, seed)
        inside = [lid for lid, line in enumerate(geom.lines) if set(line.points) <= points]
        assert closure == geometry_mod.ClosureResult(
            points=tuple(sorted(points)),
            contained_lines=tuple(inside),
            pairwise_meeting=naive_verdict(geom, points)[0] != "b",
        ), seed


@pytest.mark.parametrize("geom", [FANO, AG22, AG23, PG23, PG32],
                         ids=["Fano", "AG(2,2)", "AG(2,3)", "PG(2,3)", "PG(3,2)"])
def test_kernels_match_naive_loops_on_small_subsets(geom):
    """Every subset of at most three points: closures, verdicts, witnesses."""
    seeds = [list(c) for size in range(4)
             for c in itertools.combinations(range(geom.n_points), size)]
    assert_kernels_match_naive(geom, seeds)


@pytest.mark.parametrize("chunk_cells", [geometry_mod._CHUNK_CELLS, 1])
def test_kernels_match_naive_loops_on_the_stage_seeds(chunk_cells, monkeypatch):
    """The 100 seeds of the no_proper_plane stage on every odd catalog entry
    of degree <= 31, with the default chunks and with one seed per chunk."""
    monkeypatch.setattr(geometry_mod, "_CHUNK_CELLS", chunk_cells)
    odd = [e for e in run_catalog(31)
           if e.expected_certified and e.expected_characteristic != 2]
    for entry in odd:
        geom = build_geometry(build_entry(entry))
        seeds = pipeline._closure_seed_sets(pipeline.DEFAULT_CLOSURE_SEEDS, geom.n_points)
        assert_kernels_match_naive(geom, seeds)
    assert_kernels_match_naive(PG32, pipeline._closure_seed_sets(100, PG32.n_points))


@pytest.mark.parametrize("geom, section", [
    (FANO, {"status": "fail", "seeds": 100, "closures_meeting_hypotheses": 100,
            "max_contained_lines": 7, "idempotence_ok": True}),
    (PG32, {"status": "fail", "seeds": 100, "closures_meeting_hypotheses": 92,
            "max_contained_lines": 7, "idempotence_ok": True}),
], ids=["Fano", "PG(3,2)"])
def test_no_proper_plane_stage_fails_on_a_projective_plane(geom, section):
    """The stage's fail branch: some seed closes to a Fano plane, which meets
    both hypotheses and holds 7 lines."""
    assert pipeline._no_proper_plane(SimpleNamespace(geometry=geom)) == (None, section)


def test_no_proper_plane_stage_on_a_one_line_geometry(agl_d9):
    """Each seed closes to itself (fewer than two points) or to the line J:
    every closure meets both hypotheses and holds at most one line."""
    value, section = pipeline._no_proper_plane(SimpleNamespace(geometry=build_geometry(agl_d9)))
    assert value is None
    assert section == {"status": "pass", "seeds": 100, "closures_meeting_hypotheses": 100,
                       "max_contained_lines": 1, "idempotence_ok": True}
