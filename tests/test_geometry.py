"""Incidence structure construction and the scans over it."""

import itertools
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from involq import (
    CharacteristicAnomaly,
    CharacteristicTwo,
    CharacterizationMismatch,
    Geometry,
    GeometryConditionsFailed,
    build_geometry,
    centralizer,
    check_geometry_conditions,
    divisible_subgroup_scan,
    involutions,
    translations,
    verify_line_lemma,
)
from involq import geometry as geometry_mod
from involq import pipeline, reporting
from involq.catalog import build_entry, find_entry, run_catalog
from involq.geometry import close_point_masks, no_plane_verdicts
from involq.reporting import least_cell
from involq.s2t import _require_certified, certify_sharply_2_transitive
from conftest import tamper_sets
from naive import line_sets, naive_closure, naive_verdict

CODES = {None: 0, "a": 1, "b": 2}  # no_plane_verdicts code of each failed hypothesis


def mask_of(geom, *point_sets):
    """An (S, n_points) stack of point masks, one row per point set."""
    masks = np.zeros((len(point_sets), geom.n_points), dtype=bool)
    for row, points in enumerate(point_sets):
        masks[row, list(points)] = True
    return masks


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
    tamper_sets(monkeypatch, G, translations=_require_certified(G).translations[:-1])
    report = check_geometry_conditions(G)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("commuting-transitive-on-translations", True, None),
        ("unique-square-roots-in-product-meets", True, None),
        ("centralizers-match-products-abelian-inverted", True, None),
        ("centralizer-classes-partition-translations", False, (outside, "outside-translations")),
        ("conditions-agree", False, None),
    ]


def _condition_a_by_loop(G):
    """Condition (a) one triple at a time on permutation rows: the least pair
    (a, c) of listed nontrivial translations that do not commute although
    some b commutes with both, with the least such b."""
    listed = [t for t in _require_certified(G).translations.tolist() if t != G.identity_index]
    rows = G.elements[listed]
    commute = [[np.array_equal(x[y], y[x]) for y in rows] for x in rows]
    for a, c in itertools.product(range(len(listed)), repeat=2):
        if not commute[a][c]:
            for b in range(len(listed)):
                if commute[a][b] and commute[b][c]:
                    return listed[a], listed[b], listed[c]
    return None


def test_condition_a_witness_matches_the_loop(monkeypatch):
    """With the stabilizer of point 0 listed among the translations, commuting
    stays transitive over a field, where the nonidentity elements fall into
    abelian centralizers, but not over a Dickson near-field, whose
    multiplicative group is not abelian: there (a) names the loop's triple."""
    from involq import affine_group, make_dickson

    witnesses = []
    for G in _fresh_groups() + [affine_group(make_dickson(5, 2))]:
        assert _condition_a_by_loop(G) is None
        stabilizer = np.flatnonzero(G.elements[:, 0] == 0)
        tamper_sets(monkeypatch, G,
                    translations=np.union1d(_require_certified(G).translations, stabilizer))
        expected = _condition_a_by_loop(G)
        check = check_geometry_conditions(G).check("commuting-transitive-on-translations")
        assert check.passed is (expected is None) and check.witness == expected
        witnesses.append(expected)
    assert witnesses[0] is witnesses[2] is None
    assert witnesses[1] is not None and witnesses[3] is not None


ODD_UP_TO_49 = [e.id for e in run_catalog(49)
                if e.expected_certified and e.expected_characteristic != 2]


@pytest.mark.parametrize("entry_id", ODD_UP_TO_49)
def test_condition_a_matches_the_loop_on_the_catalog(entry_id, monkeypatch):
    """The row labels decide (a) as the triple loop does on every odd entry up
    to degree 49, as listed and with the stabilizer of point 0 listed among
    the translations, where a Dickson near-field fails (a)."""
    G = build_entry(find_entry(entry_id))
    for tamper in (False, True):
        if tamper:
            stabilizer = np.flatnonzero(G.elements[:, 0] == 0)
            tamper_sets(monkeypatch, G,
                        translations=np.union1d(_require_certified(G).translations, stabilizer))
        expected = _condition_a_by_loop(G)
        assert (expected is None) is (not tamper or entry_id.startswith("agl-field"))
        check = check_geometry_conditions(G).check("commuting-transitive-on-translations")
        assert check.passed is (expected is None) and check.witness == expected


def test_build_refuses_failed_conditions(agl_f7, monkeypatch):
    """With the last translation dropped, (d) fails and the build names it."""
    tamper_sets(monkeypatch, agl_f7, translations=_require_certified(agl_f7).translations[:-1])
    with pytest.raises(GeometryConditionsFailed,
                       match="centralizer-classes-partition-translations"):
        build_geometry(agl_f7)


def _condition_c_by_loop(G):
    """Condition (c) one involution at a time, with the masks built directly:
    the witness of the scan before it read the (i, k, c) cube."""
    sets = _require_certified(G)
    j, ij = sets.j, sets.jj
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


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
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
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for G in _fresh_groups():
        sets = _require_certified(G)
        assert _condition_c_by_loop(G) is None
        if tamper == "drop-centralizer-member":
            sigma = int(sets.jj[3, 5])
            cen = centralizer(G, sigma)
            G._centralizer_cache[sigma] = cen[cen != sigma]
        else:
            G._inverse = G._inverse.copy()
            G._inverse[sets.j[0]] = G.identity_index
        expected = _condition_c_by_loop(G)
        assert expected is not None and expected[2] == reason
        check = check_geometry_conditions(G).check(
            "centralizers-match-products-abelian-inverted")
        assert not check.passed
        assert check.witness == expected


def test_condition_c_foreign_member_matches_the_loop(monkeypatch):
    """A cached centralizer with a member swapped for an involution, which
    lies outside every iJ, has the size of iJ meet kJ but is not inside it:
    (c) fails as a mismatch at the loop's pair."""
    for G in _fresh_groups():
        sets = _require_certified(G)
        sigma = int(sets.jj[3, 5])
        cen = centralizer(G, sigma)
        G._centralizer_cache[sigma] = np.sort(np.append(cen[:-1], sets.j[0]))
        expected = _condition_c_by_loop(G)
        assert expected is not None and expected[2] == "centralizer-mismatch"
        check = check_geometry_conditions(G).check(
            "centralizers-match-products-abelian-inverted")
        assert check.witness == expected


def _condition_b_by_loop(G):
    """Condition (b) one pair i < k at a time, squaring the members of
    iJ meet kJ: the witness of the scan before it ran per pair of distinct
    iJ rows."""
    sets = _require_certified(G)
    j, ij = sets.j, sets.jj
    n = len(j)
    for i in range(n):
        for k in range(i + 1, n):
            meet = set(ij[i].tolist()) & set(ij[k].tolist())
            squares = set(G.mul(np.array(sorted(meet)), np.array(sorted(meet))).tolist())
            if squares != meet:
                return (int(j[i]), int(j[k]))
    return None


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
@pytest.mark.parametrize("rows, column, expected", [
    ((3, 5), "diagonal", (3, 5)),    # only the pair of tampered rows fails
    ((3,), "diagonal", None),        # 1 leaves one row: squaring still maps meets onto themselves
    ((3,), "off-diagonal", (0, 3)),  # a translation leaves: its square root's square leaves too
    ((2, 4, 6), "diagonal", (2, 4)),
])
def test_condition_b_on_distinct_product_sets(rows, column, expected, chunk_cells,
                                              monkeypatch):
    """Rows of the product table whose identity (on the diagonal) or one
    translation (the product with the next involution) is replaced by the
    first involution give two distinct sets iJ. Squaring maps iJ meet kJ
    onto itself unless a square leaves it: the involution squares to 1, and
    the square root of a dropped translation squares to it. The witness is
    the loop's, read back from the pair of distinct rows to the least
    involution pair."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for G in _fresh_groups():
        sets = _require_certified(G)
        ij = sets.jj.copy()
        for r in rows:
            ij[r, r if column == "diagonal" else r + 1] = sets.j[0]
        tamper_sets(monkeypatch, G, jj=ij)
        assert len(geometry_mod._distinct_rows(
            np.sort(ij, axis=1))[0]) == 2
        want = None if expected is None else tuple(int(sets.j[p]) for p in expected)
        assert _condition_b_by_loop(G) == want
        check = check_geometry_conditions(G).check("unique-square-roots-in-product-meets")
        assert check.passed == (want is None)
        assert check.witness == want


def _coset_failure_by_loop(G):
    """The coset form one pair at a time, by distinct translation in order
    of first appearance: the message the build raised before every coset
    was a gather from one table."""
    sets = _require_certified(G)
    j = sets.j
    a, b = np.triu_indices(len(j), 1)
    sigma_of_pair = sets.jj[a, b]
    sigmas = list(dict.fromkeys(sigma_of_pair.tolist()))
    for sigma in sigmas:
        line = set(np.flatnonzero(sets.jpos[G.mul(j, sigma)] >= 0).tolist())
        for p in np.flatnonzero(sigma_of_pair == sigma):
            coset = sets.jpos[G.mul(j[a[p]], centralizer(G, sigma))]
            what = ("leaves J" if (coset < 0).any()
                    else "disagrees with membership" if set(coset.tolist()) != line else None)
            if what:
                return f"coset of pair ({int(j[a[p]])},{int(j[b[p]])}) {what}"
    return None


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
@pytest.mark.parametrize("tamper, what", [
    ("involution-member", "leaves J"),
    ("involution-added", "leaves J"),
    ("drop-member", "disagrees with membership"),
    ("duplicate-member", "disagrees with membership"),
])
def test_coset_form_mismatch_matches_the_loop(tamper, what, chunk_cells, monkeypatch):
    """With a cached centralizer tampered after the conditions passed, the
    coset a.Cen(sigma) of each pair with that product leaves J (a member
    swapped for an involution, or an involution added, so that the coset
    also holds the whole line: a times it is a translation) or misses a
    point of the line (a member dropped, or swapped for a second copy of
    another). The build raises the loop's message, naming its first pair."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for G in _fresh_groups():
        sets = _require_certified(G)
        conditions = check_geometry_conditions(G)
        assert conditions.ok and _coset_failure_by_loop(G) is None
        sigma = int(sets.jj[3, 5])
        cen = centralizer(G, sigma)
        G._centralizer_cache[sigma] = {
            "involution-member": np.sort(np.append(cen[:-1], sets.j[0])),
            "involution-added": np.sort(np.append(cen, sets.j[0])),
            "drop-member": cen[:-1],
            "duplicate-member": np.sort(np.append(cen[:-1], cen[0])),
        }[tamper]
        expected = _coset_failure_by_loop(G)
        assert expected is not None and expected.endswith(what)
        with pytest.raises(CharacterizationMismatch) as raised:
            build_geometry(G, conditions)
        assert str(raised.value) == expected


def _build_failure_by_loop(G):
    """Every raise of the build after its conditions, one translation, point
    and pair at a time and in the build's order: membership against
    conjugation, the coset form (by :func:`_coset_failure_by_loop`), two
    lines sharing points, then a line whose point products leave the class
    of its first translation (no class when that is not a listed one)."""
    sets = _require_certified(G)
    j = sets.j.tolist()
    n = len(j)
    sigmas = dict.fromkeys(int(sets.jj[a, b]) for a, b in itertools.combinations(range(n), 2))
    lines = {}  # points -> the first translation of the line, in order of appearance
    for sigma in sigmas:
        member = frozenset(k for k in range(n) if sets.jpos[G.mul(j[k], sigma)] >= 0)
        by_conj = frozenset(k for k in range(n) if G.conj(sigma, j[k]) == G.inv(sigma))
        if member != by_conj:
            return f"membership and conjugation disagree for translation {sigma}"
        lines.setdefault(member, sigma)
    if (coset := _coset_failure_by_loop(G)) is not None:
        return coset
    points = list(lines)
    for la, lb in itertools.combinations(range(len(points)), 2):
        if len(points[la] & points[lb]) > 1:
            return f"lines {la} and {lb} share {len(points[la] & points[lb])} points"
    listed = set(sets.translations.tolist()) - {G.identity_index}
    for lid, (line, sigma) in enumerate(lines.items()):
        cls = set(centralizer(G, sigma).tolist()) if sigma in listed else {G.identity_index}
        if any(int(G.mul(j[p], j[q])) not in cls for p in line for q in line):
            return f"line {lid} is not closed into its translation class"
    return None


def _identity_as_a_point(G, monkeypatch):
    """Append the identity to the points of the certified sets, with the
    products of the new pairs. The pair (j, 1) has product j, whose
    membership and conjugation lines are both {j, 1}, and caching {1, j} as
    the centralizer of each involution j makes its coset {j, 1} too."""
    sets = _require_certified(G)
    points = np.append(sets.j, G.identity_index)
    jpos = sets.jpos.copy()
    jpos[G.identity_index] = len(sets.j)
    for k in sets.j.tolist():
        G._centralizer_cache[k] = np.array(sorted([G.identity_index, k]))
    return tamper_sets(monkeypatch, G, j=points, jpos=jpos,
                       jj=G.mul(points[:, None], points[None, :]))


@pytest.mark.parametrize("tamper, what", [
    ("wrong-inverses", "membership and conjugation disagree for translation"),
    ("identity-product", "share"),
    ("identity-point", "not closed into its translation class"),
])
def test_partial_plane_raises_match_the_loop(tamper, what, monkeypatch):
    """The raises after the coset form, reached after the conditions passed:

    * two translations given the identity as inverse: no involution
      conjugates them to it, yet every involution times them is one;
    * the identity as a point, and the product of one pair (j2, 1) replaced
      by the identity, cached with the centralizer j2 times the points: the
      identity's line is every point, so it shares all of J with the line
      of the translations;
    * the identity as a point alone: the line {j0, 1} of the involution
      j0, which is in no translation class, is not closed into one.

    The build raises the loop's message."""
    for G in _fresh_groups():
        sets = _require_certified(G)
        conditions = check_geometry_conditions(G)
        assert conditions.ok and _build_failure_by_loop(G) is None
        if tamper == "wrong-inverses":
            G._inverse = G._inverse.copy()
            G._inverse[[sets.jj[3, 5], sets.jj[2, 6]]] = G.identity_index
        else:
            points = _identity_as_a_point(G, monkeypatch).j
            if tamper == "identity-product":
                jj = _require_certified(G).jj.copy()
                jj[2, -1] = jj[-1, 2] = G.identity_index
                tamper_sets(monkeypatch, G, jj=jj)
                G._centralizer_cache[G.identity_index] = np.sort(G.mul(points[2], points))
        expected = _build_failure_by_loop(G)
        assert expected is not None and what in expected
        with pytest.raises(CharacterizationMismatch) as raised:
            build_geometry(G, conditions)
        assert str(raised.value) == expected


def test_conditions_char2_raises(agl_f4, agl_f5):
    with pytest.raises(CharacteristicTwo):
        check_geometry_conditions(agl_f4)
    with pytest.raises(CharacteristicTwo):
        build_geometry(agl_f4)
    with pytest.raises(CharacteristicTwo):
        verify_line_lemma(agl_f4, build_geometry(agl_f5))


def test_single_line_geometry_f5(agl_f5):
    geom = build_geometry(agl_f5)
    assert geom.n_points == 5
    assert line_sets(geom) == [set(range(5))]
    assert len(geom.classes) == 1
    assert type(geom.classes) is tuple and type(geom.classes[0]) is tuple


def test_single_line_geometry_dickson(agl_d9):
    geom = build_geometry(agl_d9)
    assert geom.n_points == 9
    assert line_sets(geom) == [set(range(9))]


def test_line_size_equals_centralizer_size(agl_f7):
    geom = build_geometry(agl_f7)
    assert np.count_nonzero(geom.incidence[geom.line_of_pair[0, 1]]) == 7
    sigma = int(np.flatnonzero(geom.line_of_translation >= 0)[0])
    assert len(centralizer(agl_f7, agl_f7.elements[sigma])) == 7


def test_line_through_basics(agl_f5):
    geom = build_geometry(agl_f5)
    for i in range(5):
        for j in range(5):
            if i == j:
                assert geom.line_of_pair[i, j] == -1
            else:
                lid = geom.line_of_pair[i, j]
                assert lid == geom.line_of_pair[j, i]
                assert geom.incidence[lid, i] and geom.incidence[lid, j]


def test_unique_line_through_pairs(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        geom = build_geometry(G)
        n = geom.n_points
        for i in range(n):
            for j in range(n):
                if i != j:
                    containing = [
                        lid for lid, line in enumerate(line_sets(geom))
                        if i in line and j in line
                    ]
                    assert len(containing) == 1
                    assert containing[0] == geom.line_of_pair[i, j]


def test_lines_meet_in_at_most_one_point(agl_d25):
    lines = line_sets(build_geometry(agl_d25))
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            assert len(lines[a] & lines[b]) <= 1


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
        assert len(build_geometry(G).incidence) == 1, entry.id


def test_line_products_lie_in_class(agl_f7):
    """The product of two points of a line centralizes the defining translation."""
    geom = build_geometry(agl_f7)
    G = agl_f7
    sigma = int(np.flatnonzero(geom.line_of_translation == 0)[0])
    cls = next(set(c) for c in geom.classes if sigma in c) | {G.identity_index}
    line = np.flatnonzero(geom.incidence[0])
    for a in line:
        for b in line:
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
            for k in np.flatnonzero(geom.incidence[geom.line_of_pair[a, b]]):
                krow = G.elements[J[k]]
                assert np.array_equal(krow[sigma[krow]], sigma_rev)


def test_line_lemma(agl_f5, agl_f7, agl_d9, agl_d25):
    for G in (agl_f5, agl_f7, agl_d9, agl_d25):
        report = verify_line_lemma(G, build_geometry(G))
        assert report.ok


def _line_lemma_by_loop(G, geom):
    """The witnesses of verify_line_lemma, one (line, involution) at a time,
    each conjugate k^-1 j k composed from permutation rows:

    (a) of the classes of involutions with equal line images, taken by least
        member, the first of two or more involutions not all on the line
        names its least member off the line;
    (b) the least involution off the line whose image meets it;
    the least point of the line whose image is not the line;

    each on the first line that has one."""
    rows = G.elements[geom.points]
    position = {tuple(row): k for k, row in enumerate(rows)}
    n = len(rows)

    def conj(j, k):  # k^-1 j k for an involution k: x -> k(j(k(x)))
        return position[tuple(rows[k][rows[j][rows[k]]])]

    witness_a = witness_b = witness_fix = None
    for lid, on in enumerate(geom.incidence):
        line = set(np.flatnonzero(on).tolist())
        images = [{conj(j, k) for j in line} for k in range(n)]
        for k in range(n):
            if witness_fix is None and k in line and images[k] != line:
                witness_fix = (lid, int(geom.points[k]))
            if witness_b is None and k not in line and images[k] & line:
                witness_b = (lid, int(geom.points[k]))
            same = [m for m in range(n) if images[m] == images[k]]
            off = [m for m in same if m not in line]
            if witness_a is None and same[0] == k and len(same) >= 2 and off:
                witness_a = (lid, int(geom.points[off[0]]))
    return witness_a, witness_b, witness_fix


def test_line_lemma_witnesses_match_the_loop():
    """On geometries whose lines are replaced by J, the involutions fixing a
    point of the prime field, and those fixing 0, 1 or p, in both orders of
    the last two, each witness is the loop's. Conjugation by the involution
    fixing k reflects the fixed points through k, so a line on an additive
    subgroup is fixed by its own points and shares its image across a coset
    of involutions off it (a), while {0, 1, p} is moved by 0 (the sanity
    fact) and meets its image under an involution off it (b). These lines
    share points, which no Geometry allows; the scan reads only the points
    and the incidence, so a stand-in holds them."""
    found = set()
    for G in _fresh_groups():
        geom = build_geometry(G)
        assert _line_lemma_by_loop(G, geom) == (None, None, None)
        fix, p = _require_certified(G).fix_points, certify_sharply_2_transitive(G).characteristic
        prime_field, other = fix < p, np.isin(fix, [0, 1, p])
        for lines in ([prime_field, other], [other, prime_field]):
            incidence = np.array([np.ones(geom.n_points, dtype=bool)] + lines)
            with pytest.raises(CharacterizationMismatch, match="^lines 0 and 1 share"):
                replace(geom, incidence=incidence)
            stand_in = SimpleNamespace(points=geom.points, n_points=geom.n_points,
                                       incidence=incidence)
            expected = _line_lemma_by_loop(G, stand_in)
            report = verify_line_lemma(G, stand_in)
            assert tuple(c.witness for c in report.checks) == expected
            found.update(k for k, w in enumerate(expected) if w is not None)
    assert found == {0, 1, 2}


def test_geometry_json(agl_f5):
    """The catalog geometry has one line; the hand geometries, whose lines
    are given, pin the order and the points of each exported line."""
    geom = build_geometry(agl_f5)
    doc = geom.as_json_dict()
    assert set(doc) == {"points", "lines", "classes"}
    assert doc["points"] == [int(j) for j in involutions(agl_f5)]
    assert doc["lines"] == [[0, 1, 2, 3, 4]]
    assert doc["classes"] == [sorted(geom.classes[0])]
    for lines, n_points in ((FANO_LINES, 7), (AG23_LINES, 9), (PG32_LINES, 15)):
        doc = hand_geometry(lines, n_points).as_json_dict()
        assert doc["lines"] == sorted(sorted(line) for line in lines)
        assert doc["points"] == list(range(n_points))


# ---------------------------------------------------------------------------
# closures


def test_closure_basics(agl_f5):
    geom = build_geometry(agl_f5)
    closed = close_point_masks(geom, mask_of(geom, [], [2], [0, 1]))
    assert [np.flatnonzero(on).tolist() for on in closed] == [[], [2], [0, 1, 2, 3, 4]]
    assert np.flatnonzero(geom.lines_inside(closed)[2]).tolist() == [0]
    failed, line_count = no_plane_verdicts(geom, closed)
    assert failed.tolist() == [0, 0, 0] and line_count.tolist() == [0, 0, 1]


def test_closure_idempotent(agl_d9):
    geom = build_geometry(agl_d9)
    seeds = mask_of(geom, [], [3], [0, 5], [1, 2, 7], range(9))
    once = close_point_masks(geom, seeds)
    assert np.array_equal(close_point_masks(geom, once), once)
    assert not (seeds & ~once).any()


def test_no_proper_plane_on_full_point_set(agl_f5, agl_d9, agl_d25):
    for G in (agl_f5, agl_d9, agl_d25):
        geom = build_geometry(G)
        failed, line_count = no_plane_verdicts(geom, mask_of(geom, range(geom.n_points)))
        assert (failed[0], line_count[0]) == (0, 1)


def test_no_proper_plane_on_single_line(agl_f7):
    geom = build_geometry(agl_f7)
    failed, line_count = no_plane_verdicts(geom, geom.incidence[:1])
    assert (failed[0], line_count[0]) == (0, 1)


def test_no_proper_plane_detects_unclosed_set(agl_f5):
    geom = build_geometry(agl_f5)
    # the line through 0,1 leaves {0,1}: hypotheses not met, nothing to refute
    failed, line_count = no_plane_verdicts(geom, mask_of(geom, [0, 1]))
    assert (failed[0], line_count[0]) == (CODES["a"], 0)


def test_singleton_and_empty_sets_meet_hypotheses(agl_f5):
    geom = build_geometry(agl_f5)
    failed, line_count = no_plane_verdicts(geom, mask_of(geom, [], [3]))
    assert failed.tolist() == [0, 0] and line_count.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# odd-order subgroup scan


def test_subgroup_scan_f5(agl_f5):
    geom = build_geometry(agl_f5)
    report = divisible_subgroup_scan(agl_f5, geom)
    assert report.ok and report.complete
    assert report.found == 1
    assert report.size_histogram == {5: 1}


def test_subgroup_scan_f7(agl_f7):
    geom = build_geometry(agl_f7)
    report = divisible_subgroup_scan(agl_f7, geom)
    assert report.ok
    assert report.size_histogram == {7: 1}


def test_subgroup_scan_dickson9(agl_d9):
    # translations form an elementary abelian group of order 9:
    # four subgroups of order 3 plus the whole group
    geom = build_geometry(agl_d9)
    report = divisible_subgroup_scan(agl_d9, geom)
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
        report = divisible_subgroup_scan(G, build_geometry(G))
        assert report.found == report.examined == found
        assert report.size_histogram == histogram
        assert report.violations == []


def test_subgroup_scan_cap(agl_d9, monkeypatch):
    monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", 5)
    geom = build_geometry(agl_d9)
    report = divisible_subgroup_scan(agl_d9, geom)
    assert not report.complete
    assert report.skipped_over_cap > 0
    assert report.size_histogram == {3: 4}  # order-9 closure was abandoned


def naive_subgroup_scan(G, geom, cap):
    """Test-local oracle for divisible_subgroup_scan on permutation rows.

    Cyclic subgroups come from walking the powers of each translation, pair
    closures from multiplying every member by every member until nothing new
    appears; a power or product outside the translations discards the
    candidate, and passing ``cap`` members abandons it (counted once per
    translation or pair). Normalizers and centralizers are found by composing
    rows."""
    rows = [tuple(int(x) for x in row) for row in G.elements]
    index = {row: i for i, row in enumerate(rows)}
    trans = {int(t) for t in _require_certified(G).translations}
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


CHUNK_SIZES = (reporting.CHUNK_CELLS, 1)  # the default, and one row per chunk


@pytest.mark.parametrize("entry_id", ODD_UP_TO_27)
def test_subgroup_scan_matches_naive_oracle(entry_id, monkeypatch):
    """With the default chunks and with one subgroup per normalizer chunk."""
    G = build_entry(find_entry(entry_id))
    geom = build_geometry(G)
    for cap in (3, 5, 512):
        monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
        expected = naive_subgroup_scan(G, geom, cap)
        for chunk_cells in CHUNK_SIZES:
            monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
            report = divisible_subgroup_scan(G, geom)
            assert {key: getattr(report, key) for key in expected} == expected, (cap, chunk_cells)
            assert report.complete is (expected["skipped_over_cap"] == 0)


@pytest.mark.slow
def test_subgroup_scan_matches_naive_oracle_where_pairs_share_sets(monkeypatch):
    """On agl-dickson-9-2 the 780 pairs of the 40 cyclic subgroups of order 3
    close in two rounds, six pairs to each of the 130 subgroups of order 9:
    the second round grows each shared set once. At cap 3 every pair is
    counted over the cap, at cap 9 none is."""
    G = build_entry(find_entry("agl-dickson-9-2"))
    geom = build_geometry(G)
    for cap in (3, 9, 512):
        monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
        expected = naive_subgroup_scan(G, geom, cap)
        assert expected["skipped_over_cap"] == (780 if cap == 3 else 0)
        for chunk_cells in CHUNK_SIZES:
            monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
            report = divisible_subgroup_scan(G, geom)
            assert {key: getattr(report, key) for key in expected} == expected, (cap, chunk_cells)
    assert expected["size_histogram"] == {3: 40, 9: 130}


def test_subgroup_scan_counts_pairs_of_shared_sets_over_the_cap(sym4, monkeypatch):
    """With the whole of S4 as the translation set, the 120 pairs of its 16
    cyclic subgroups do not close in one round, and at some caps a set that
    several pairs reach passes the cap in a later round: each of those pairs
    is counted, as the oracle counts them. S4 is not sharply 2-transitive,
    so a stand-in certificate lists its translations."""
    involutions = np.flatnonzero((sym4.mul(np.arange(24), np.arange(24)) == sym4.identity_index)
                                 & (np.arange(24) != sym4.identity_index))
    tamper_sets(monkeypatch, sym4, translations=np.arange(24))
    geom = SimpleNamespace(points=involutions, classes=())
    skipped = {}
    for cap in range(2, 25):
        monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
        expected = naive_subgroup_scan(sym4, geom, cap)
        for chunk_cells in CHUNK_SIZES:
            monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
            report = divisible_subgroup_scan(sym4, geom)
            assert {key: getattr(report, key) for key in expected} == expected, (cap, chunk_cells)
        skipped[cap] = expected["skipped_over_cap"]
    assert skipped[24] == 0 and skipped[9] > skipped[12] > 0


def test_subgroup_scan_traced_peak_at_degree_243():
    """The scan of agl-field-243 (7,260 pairs, 1,331 subgroups) holds its
    stack of pair masks and its products, built in row chunks, within twice
    the 6.9 MiB traced peak of the per-pair loop it replaced."""
    G = build_entry(find_entry("agl-field-243", 243))
    geom = build_geometry(G)
    tracemalloc.start()
    try:
        report = divisible_subgroup_scan(G, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.found == report.examined == 1331 and report.complete
    assert peak <= 2 * 6.9 * 2**20


def test_subgroup_scan_escapes_and_violations_match_naive_oracle(agl_f7, agl_d9, monkeypatch):
    """With an inverse pair of translations dropped, candidates that reach it
    are discarded: on agl_f7 at cap 3 the escape at the third power is found
    before the cap, at cap 2 two walks pass the cap first. With no translation
    class every found subgroup is a violation, listed by size, then members.
    The same holds with the default chunks and with one subgroup per chunk."""
    skipped = {}
    for G in (agl_f7, agl_d9):
        listed = _require_certified(G).translations
        built = build_geometry(G)
        no_classes = replace(built, classes=())
        t = int(listed[2])
        thinned = np.setdiff1d(listed, [t, G.inv(t)])
        for name, geom, trans in (("thinned", built, thinned),
                                  ("no classes", no_classes, listed)):
            tamper_sets(monkeypatch, G, translations=trans)
            for cap in (2, 3, 512):
                monkeypatch.setattr(geometry_mod, "DEFAULT_SUBGROUP_CAP", cap)
                expected = naive_subgroup_scan(G, geom, cap)
                for chunk_cells in CHUNK_SIZES:
                    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
                    report = divisible_subgroup_scan(G, geom)
                    assert {key: getattr(report, key) for key in expected} == expected
                    skipped[G.degree, name, cap, chunk_cells] = report.skipped_over_cap
    for chunk_cells in CHUNK_SIZES:
        assert skipped[7, "thinned", 2, chunk_cells] == 2
        assert skipped[7, "thinned", 3, chunk_cells] == 0
    monkeypatch.undo()
    for chunk_cells in CHUNK_SIZES:
        monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
        assert divisible_subgroup_scan(agl_d9, no_classes).violations == [
            (0, 1, 2), (0, 3, 6), (0, 4, 8), (0, 5, 7), tuple(range(9)),
        ]


def test_subgroup_scan_refuses_translations_without_the_identity(agl_f7, monkeypatch):
    """The scan's Cayley table needs the identity among the translations."""
    geom = build_geometry(agl_f7)
    listed = _require_certified(agl_f7).translations
    tamper_sets(monkeypatch, agl_f7, translations=listed[listed != agl_f7.identity_index])
    assert agl_f7.identity_index not in _require_certified(agl_f7).translations.tolist()
    with pytest.raises(CharacteristicAnomaly, match="the identity is not a translation"):
        divisible_subgroup_scan(agl_f7, geom)


# ---------------------------------------------------------------------------
# hand-built geometries with more than one line


def hand_geometry(lines, n_points) -> Geometry:
    """A Geometry on points 0..n_points-1 with the given lines (a linear
    space: every pair of points on exactly one line), numbered in sorted
    order. It has no group, so only the closure and verdict scans apply,
    and no translation has a line."""
    lines = sorted(tuple(sorted(line)) for line in lines)
    incidence = np.zeros((len(lines), n_points), dtype=bool)
    line_of_pair = np.full((n_points, n_points), -1)
    for lid, line in enumerate(lines):
        incidence[lid, list(line)] = True
        for a in line:
            for b in line:
                if a != b:
                    line_of_pair[a, b] = lid
    return Geometry(np.arange(n_points), (), incidence, line_of_pair, np.empty(0, dtype=np.int64))


FANO_LINES = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
FANO = hand_geometry(FANO_LINES, 7)
AG22 = hand_geometry([(a, b) for a in range(4) for b in range(a + 1, 4)], 4)


def _affine_plane_3():
    """The lines of AG(2,3): the point (x, y) of GF(3)^2 is 3x + y; a line
    is {p + t d : t in GF(3)} for a point p and a direction d != 0."""
    vectors = list(itertools.product(range(3), repeat=2))
    return {
        tuple(sorted(3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3)))
        for x, y in vectors for dx, dy in vectors if (dx, dy) != (0, 0)
    }


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
    """The lines of PG(3,2): the point i is the nonzero vector i + 1 of
    GF(2)^4; the line through a and b holds a, b and a + b."""
    return {tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
            for a in range(1, 16) for b in range(1, 16) if a != b}


AG23_LINES = _affine_plane_3()
PG32_LINES = _projective_space_2()
AG23 = hand_geometry(AG23_LINES, 9)
PG23 = _projective_plane_3()
PG32 = hand_geometry(PG32_LINES, 15)


def test_hand_geometries_are_linear_spaces():
    assert [tuple(np.flatnonzero(on).tolist()) for on in FANO.incidence] == [
        (0, 1, 3), (0, 2, 6), (0, 4, 5), (1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6),
    ]
    for geom, n_points, n_lines, line_size in (
        (AG23, 9, 12, 3), (PG23, 13, 13, 4), (PG32, 15, 35, 3),
    ):
        assert (geom.n_points, len(geom.incidence)) == (n_points, n_lines)
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
    """Each closure is closed, so it meets (a), and its lines pairwise meet
    exactly when no_plane_verdicts does not fail (b)."""
    closed = close_point_masks(geom, mask_of(geom, seed))
    assert tuple(np.flatnonzero(closed[0]).tolist()) == points
    assert tuple(np.flatnonzero(geom.lines_inside(closed)[0]).tolist()) == contained
    assert no_plane_verdicts(geom, closed)[0][0] == (0 if meeting else CODES["b"])
    assert np.array_equal(close_point_masks(geom, closed), closed)


def test_whole_fano_plane_refutes_the_verdict():
    """Both sets meet both hypotheses and hold more than one line."""
    failed, line_count = no_plane_verdicts(FANO, mask_of(FANO, range(7)))
    assert (failed[0], line_count[0]) == (0, 7)
    failed, line_count = no_plane_verdicts(AG22, mask_of(AG22, [0, 1, 2]))
    assert (failed[0], line_count[0]) == (0, 3)


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
    closed = close_point_masks(geom, mask_of(geom, [0, 1, c]))
    assert np.count_nonzero(closed) == n_points
    inside = geom.lines_inside(closed)
    assert np.count_nonzero(inside) == n_lines
    lines = [line for line, on in zip(line_sets(geom), inside[0]) if on]
    assert all(a & b for a, b in itertools.combinations(lines, 2)) is meeting
    code, line_count = (v[0] for v in no_plane_verdicts(geom, closed))
    assert code == CODES[failed]
    assert line_count == n_lines
    assert bool(code != 0 or line_count <= 1) is ok


def test_failed_hypotheses_with_many_lines():
    failed, line_count = no_plane_verdicts(FANO, mask_of(FANO, [0, 1], [0, 1, 2]))
    assert failed.tolist() == [CODES["a"]] * 2 and line_count.tolist() == [0, 0]
    # lines {0,1} and {2,3} are parallel
    failed, line_count = no_plane_verdicts(AG22, mask_of(AG22, range(4)))
    assert (failed[0], line_count[0]) == (CODES["b"], 6)


# ---------------------------------------------------------------------------
# the batched closure and verdict kernels against naive set loops


def test_least_cell_reads_the_witness_rule_per_mask():
    masks = np.zeros((3, 2, 4), dtype=bool)
    masks[0, 1, 2] = masks[0, 1, 3] = masks[2, 0, 3] = masks[2, 1, 0] = True
    assert [least_cell(m) for m in masks] == [(1, 2), None, (0, 3)]
    assert least_cell(np.zeros((0, 3), dtype=bool)) is None


def stage_seed_sets(count, n_points):
    """The seeds of the no_proper_plane stage as sorted point lists."""
    return [np.flatnonzero(on).tolist() for on in pipeline._closure_seed_masks(count, n_points)]


def assert_verdicts_match_naive(geom, masks):
    """no_plane_verdicts of every row of ``masks`` equals naive_verdict: the
    code and the line count."""
    failed, line_count = no_plane_verdicts(geom, masks)
    for row, on in enumerate(masks):
        point_set = np.flatnonzero(on).tolist()
        hypothesis, lines = naive_verdict(geom, point_set)
        assert (failed[row], line_count[row]) == (CODES[hypothesis], lines), point_set


def assert_kernels_match_naive(geom, seeds):
    """The closure of every seed, its lines, whether they pairwise meet and
    the verdicts of seeds and closures equal the naive loops'."""
    masks = mask_of(geom, *seeds)
    closed = close_point_masks(geom, masks)
    # the verdicts of the seeds themselves reach (a), those of closures (b)
    assert_verdicts_match_naive(geom, masks)
    assert_verdicts_match_naive(geom, closed)
    inside = geom.lines_inside(closed)
    meeting = no_plane_verdicts(geom, closed)[0] != CODES["b"]
    lines = line_sets(geom)
    for row, seed in enumerate(seeds):
        points = naive_closure(geom, seed)
        assert set(np.flatnonzero(closed[row]).tolist()) == points, seed
        assert np.flatnonzero(inside[row]).tolist() == [
            lid for lid, line in enumerate(lines) if line <= points], seed
        assert meeting[row] == (naive_verdict(geom, points)[0] != "b"), seed


@pytest.mark.parametrize("geom", [FANO, AG22, AG23, PG23, PG32],
                         ids=["Fano", "AG(2,2)", "AG(2,3)", "PG(2,3)", "PG(3,2)"])
def test_kernels_match_naive_loops_on_small_subsets(geom):
    """Every subset of at most three points: closures, verdicts, witnesses."""
    seeds = [list(c) for size in range(4)
             for c in itertools.combinations(range(geom.n_points), size)]
    assert_kernels_match_naive(geom, seeds)


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
def test_kernels_match_naive_loops_on_the_stage_seeds(chunk_cells, monkeypatch):
    """The 100 seeds of the no_proper_plane stage on every odd catalog entry
    of degree <= 31. Neither kernel builds in chunks, so the default chunk
    size and one row per chunk give the same rows."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    odd = [e for e in run_catalog(31)
           if e.expected_certified and e.expected_characteristic != 2]
    for entry in odd:
        geom = build_geometry(build_entry(entry))
        seeds = stage_seed_sets(pipeline.DEFAULT_CLOSURE_SEEDS, geom.n_points)
        assert_kernels_match_naive(geom, seeds)
    assert_kernels_match_naive(PG32, stage_seed_sets(100, PG32.n_points))


# a linear space with a line of one point, {3}
ONE_POINT_LINE = hand_geometry([(0, 1, 2), (0, 3), (1, 3), (2, 3), (3,)], 4)


def fano_with_pair_off_its_line():
    """The Fano plane with line_of_pair[0, 1] sent to the line {2, 3, 5},
    which holds neither point: member counts alone would pass {0, 1, 3},
    yet the line read for the pair (0, 1) leaves it."""
    line_of_pair = FANO.line_of_pair.copy()
    line_of_pair[0, 1] = line_of_pair[1, 0] = line_sets(FANO).index({2, 3, 5})
    return replace(FANO, line_of_pair=line_of_pair)


def with_point_off_its_line(geom, lid, point):
    """A hand geometry with ``point`` taken off line ``lid``, whose pairs
    with ``point`` line_of_pair still sends there."""
    incidence = geom.incidence.copy()
    incidence[lid, point] = False
    return replace(geom, incidence=incidence)


# geometries that break an axiom, each with the message that refuses it
BROKEN = {
    "Fano-pair-off-its-line": (fano_with_pair_off_its_line, "pair (0,1) is not on its line 5"),
    "PG(3,2)-point-off-its-line": (lambda: with_point_off_its_line(PG32, 0, 0),
                                   "pair (0,1) is not on its line 0"),
    "AG(2,3)-point-off-its-line": (lambda: with_point_off_its_line(AG23, 3, 5),
                                   "pair (0,5) is not on its line 3"),
    "Fano-line-doubled": (lambda: hand_geometry(FANO_LINES + [(0, 1, 3)], 7),
                          "lines 0 and 1 share 3 points"),
}


def test_the_premise_of_the_per_line_test():
    """Every pair lies on its line and two lines share at most one point: a
    Geometry checks both when it is built, by its constructor or by
    dataclasses.replace, and is frozen after."""
    for geom in (FANO, AG22, AG23, PG23, PG32, ONE_POINT_LINE):
        inc = geom.incidence.astype(int)
        assert (np.triu(inc @ inc.T, 1) <= 1).all()
        for p, q in itertools.permutations(range(geom.n_points), 2):
            assert geom.incidence[geom.line_of_pair[p, q], [p, q]].all()
    for make, message in BROKEN.values():
        with pytest.raises(CharacterizationMismatch, match=f"^{re.escape(message)}$"):
            make()
    line_of_pair = FANO.line_of_pair.copy()
    line_of_pair[0, 1] = -1
    with pytest.raises(CharacterizationMismatch, match=r"^pair \(0,1\) is not on its line -1$"):
        replace(FANO, line_of_pair=line_of_pair)
    with pytest.raises(FrozenInstanceError):
        FANO.incidence = AG22.incidence
    with pytest.raises(ValueError, match="read-only"):
        FANO.line_of_pair[0, 1] = 5


@pytest.mark.parametrize("chunk_cells", CHUNK_SIZES)
@pytest.mark.parametrize("geom", [
    FANO, AG22, AG23, PG23, PG32, ONE_POINT_LINE,
    "Fano-pair-off-its-line", "PG(3,2)-point-off-its-line", "AG(2,3)-point-off-its-line",
], ids=["Fano", "AG(2,2)", "AG(2,3)", "PG(2,3)", "PG(3,2)", "one-point-line",
        "Fano-pair-off-its-line", "PG(3,2)-point-off-its-line", "AG(2,3)-point-off-its-line"])
def test_verdicts_match_naive_loops_on_random_masks(geom, chunk_cells, monkeypatch):
    """Seeded random point sets of every density and their closures, at the
    default chunk size and at one row per chunk, which no kernel here reads.
    A geometry named by a key of BROKEN breaks an axiom, so it is refused
    when built and no verdict is read on it."""
    if isinstance(geom, str):
        make, message = BROKEN[geom]
        with pytest.raises(CharacterizationMismatch, match=f"^{re.escape(message)}$"):
            make()
        return
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(geom.n_points)
    masks = rng.random((80, geom.n_points)) < rng.random((80, 1))
    assert_verdicts_match_naive(geom, np.concatenate([masks, close_point_masks(geom, masks)]))


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
