"""Census quantities and the triple-product covering scan."""

import importlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    CharacterizationMismatch,
    affine_group,
    build_geometry,
    census,
    centralizer,
    involutions,
    make_dickson,
    make_field,
    translations,
    verify_xalpha_covering,
)
from involq import reporting
from involq.s2t import _require_certified, triple_products
from conftest import tamper_sets

# the package's name `census` is the function, so reach the module by its path
census_mod = importlib.import_module("involq.census")


def naive_j3(G):
    """Triple products by a literal triple loop over involution rows."""
    J = [tuple(G.elements[i]) for i in involutions(G)]
    out = set()
    for a in J:
        for b in J:
            ab = tuple(b[a[x]] for x in range(len(a)))
            for c in J:
                abc = tuple(c[ab[x]] for x in range(len(ab)))
                out.add(abc)
    return out


def test_census_f5(agl_f5):
    rep = census(agl_f5)
    assert (rep.nhat, rep.khat, rep.j2_size, rep.j3_size, rep.lhat) == (5, 5, 5, 5, 0)
    assert rep.khat_constant and rep.fiber_identity_ok
    assert rep.j_disjoint_from_j2 and rep.j3_contains_j
    assert rep.ok
    assert rep.alpha_sample_complete


def test_census_dickson9(agl_d9):
    rep = census(agl_d9)
    assert (rep.nhat, rep.khat, rep.j2_size, rep.j3_size) == (9, 9, 9, 9)
    assert rep.lhat == 0
    assert rep.ok


def test_census_char2_raises(agl_f4):
    with pytest.raises(CharacteristicTwo):
        census(agl_f4)


def test_j3_matches_naive_triple_loop(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        rep = census(G)
        expected = naive_j3(G)
        assert rep.j3_size == len(expected)
        # the sampled alphas are exactly the triple products here (degree <= 9)
        got = {tuple(G.elements[a]) for a, _ in rep.xalpha_sizes}
        assert got == expected


def test_j3_equals_j_on_split_entries(agl_f5, agl_f7, agl_d9):
    for G in (agl_f5, agl_f7, agl_d9):
        rep = census(G)
        assert rep.j3_size == rep.nhat
        assert rep.lhat == rep.nhat - rep.j2_size


def x_alpha_rows(G, alphas):
    """Per alpha, the positions in J of X_alpha: the rows of the census
    kernel's mask."""
    in_x = census_mod._x_alpha_masks(G, _require_certified(G), np.asarray(alphas))[1]
    return [np.flatnonzero(row).tolist() for row in in_x]


def test_x_alpha_identity_is_empty(agl_f5):
    """No involution is a translation, so X of the identity is empty."""
    assert x_alpha_rows(agl_f5, [agl_f5.identity_index]) == [[]]


def test_x_alpha_of_involution_is_everything(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        J = involutions(G)
        assert x_alpha_rows(G, J) == [list(range(len(J)))] * len(J)


def test_x_alpha_definition(agl_d9):
    """X_alpha is literally { i in J : i.alpha is a translation }."""
    G = agl_d9
    J = involutions(G)
    tset = {tuple(G.elements[t]) for t in translations(G)}
    alpha = int(J[4])
    arow = G.elements[alpha]
    expected = [
        p for p, i in enumerate(J)
        if tuple(arow[G.elements[i]]) in tset
    ]
    assert x_alpha_rows(G, [alpha]) == [expected]


def test_fiber_identity_per_alpha(agl_f5, agl_f7):
    """|X_alpha| * khat equals the number of triples (i, r, s) with irs = alpha,
    counted by a literal loop."""
    for G in (agl_f5, agl_f7):
        J = [tuple(G.elements[i]) for i in involutions(G)]
        jset = set(J)
        khat = len(centralizer(G, G.elements[[
            t for t in translations(G) if t != G.identity_index][0]]))
        rep = census(G)
        for alpha_idx, size in rep.xalpha_sizes:
            arow = tuple(G.elements[alpha_idx])
            triples = 0
            for i in J:
                for r in J:
                    # solve irs = alpha for s and test s in J
                    ir = tuple(r[i[x]] for x in range(len(i)))
                    ir_inv = tuple(np.argsort(np.array(ir)))
                    s = tuple(arow[ir_inv[x]] for x in range(len(arow)))
                    if s in jset:
                        triples += 1
            assert triples == size * khat


def test_covering_report(agl_f5, agl_f7, agl_d9, agl_d25, monkeypatch):
    """With the default chunks and with one alpha per chunk."""
    for G, chunk_cells in itertools.product((agl_f5, agl_f7, agl_d9, agl_d25),
                                            (reporting.CHUNK_CELLS, 1)):
        monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
        geom = build_geometry(G)
        report = verify_xalpha_covering(G, geom)
        assert report.ok
        assert report.complete
        names = [c.name for c in report.checks]
        assert names == ["line-covering", "point-line-saturation", "fiber-size-identity"]


def naive_covering_witnesses(G, geom):
    """The witnesses of verify_xalpha_covering by loops over (alpha, p, v),
    alphas in sample order and p, v over the positions of J; None where a
    check holds. A triple (i, r, s) counts for alpha when i.r.s == alpha and
    i lies in X_alpha (every i does when the translations are J.J)."""
    sets = _require_certified(G)
    J = sets.j.tolist()
    trans = set(sets.translations.tolist())
    n = len(J)
    khat = len(centralizer(G, next(t for t in sets.translations.tolist()
                                   if t != G.identity_index)))
    lines = [set(np.flatnonzero(row).tolist()) for row in geom.incidence]
    sample, _ = census_mod._alpha_sample(triple_products(G))
    cover = saturation = fiber = None
    for alpha in sample.tolist():
        in_x = [int(G.mul(J[p], alpha)) in trans for p in range(n)]
        x = {p for p in range(n) if in_x[p]}
        inside = [line <= x for line in lines]
        for p in sorted(x):
            line = int(geom.line_of_translation[int(G.mul(J[p], alpha))])
            for v in range(n):
                if (cover is None and line >= 0 and v != p and v in lines[line]
                        and not inside[geom.line_of_pair[p, v]]):
                    cover = (alpha, J[p], J[v])
            if saturation is None and not any(inside[k] and p in lines[k]
                                              for k in range(len(lines))):
                saturation = (alpha, J[p])
        triples = sum(1 for i in range(n) for r in J for s in J
                      if in_x[i] and int(G.mul(G.mul(J[i], r), s)) == alpha)
        if fiber is None and triples != len(x) * khat:
            fiber = (alpha, triples, len(x) * khat)
    return {"line-covering": cover, "point-line-saturation": saturation,
            "fiber-size-identity": fiber}


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
@pytest.mark.parametrize("tamper", ["line-covering", "point-line-saturation",
                                    "fiber-size-identity"])
def test_covering_witnesses_on_tampered_inputs_match_the_loops(tamper, chunk_cells,
                                                               monkeypatch):
    """Each failure witness of the covering scan, on fresh groups:

    * line-covering: every X_alpha of a split group is all of J, so every
      line lies inside it whatever the line of a translation reads; with one
      translation dropped from the certificate, X_alpha misses one point and
      the line through it leaves X_alpha. The alphas are taken in reverse, so
      the first one has its pair (p, v) = (0, 0) on the masked diagonal;
    * point-line-saturation: the Fano plane or AG(2,3) laid over J, and for
      the first alpha the translations i.alpha dropped for every point i
      but 0 and the least other point of each line through 0, so that
      every line through 0 leaves X_alpha;
    * fiber-size-identity: khat read through a centralizer cache that lost a
      member.

    Each witness equals the loops', in one chunk and in one alpha per chunk."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for G, lines in ((affine_group(make_field(7, 1)), FANO_LINES),
                     (affine_group(make_dickson(3, 2)), AG23_LINES)):
        geom = build_geometry(G)
        sets = _require_certified(G)
        assert set(naive_covering_witnesses(G, geom).values()) == {None}
        if tamper == "line-covering":
            tamper_sets(monkeypatch, G, translations=np.delete(sets.translations, 1))
            monkeypatch.setattr(census_mod, "_alpha_sample", lambda j3: (j3[::-1], True))
        elif tamper == "point-line-saturation":
            geom = with_lines(G, geom, lines)
            alpha = int(triple_products(G)[0])
            kept = {min(line - {0}) for line in map(set, lines) if 0 in line}
            far = [p for p in range(1, geom.n_points) if p not in kept]
            tamper_sets(monkeypatch, G, translations=np.setdiff1d(
                sets.translations, G.mul(sets.j[far], alpha)))
        else:
            t = int(sets.translations[sets.translations != G.identity_index][0])
            G._centralizer_cache[t] = centralizer(G, t)[:-1]
        expected = naive_covering_witnesses(G, geom)
        assert expected[tamper] is not None
        report = verify_xalpha_covering(G, geom)
        assert {c.name: c.witness for c in report.checks} == expected


FANO_LINES = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
AG23_LINES = sorted({  # AG(2,3): the point (x, y) is 3x + y
    tuple(sorted(3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3)))
    for x, y in itertools.product(range(3), repeat=2)
    for dx, dy in itertools.product(range(3), repeat=2) if (dx, dy) != (0, 0)
})


def with_lines(G, geom, lines):
    """``geom`` with its lines replaced by ``lines``, a linear space on the
    positions of J, and the k-th nontrivial translation sent to line k mod
    the line count: so p.alpha may name a line that does not hold p."""
    incidence = np.zeros((len(lines), geom.n_points), dtype=bool)
    for lid, line in enumerate(lines):
        incidence[lid, list(line)] = True
    trans = _require_certified(G).translations
    nontrivial = trans[trans != G.identity_index]
    line_of_translation = np.full(G.order, -1)
    line_of_translation[nontrivial] = np.arange(len(nontrivial)) % len(lines)
    return replace(geom, incidence=incidence, line_of_translation=line_of_translation)


def point_off_its_line(geom):
    """``geom`` with point 2 taken off the line of (0, 2), so that the pair
    (0, 2) is on no line."""
    incidence = geom.incidence.copy()
    incidence[geom.line_of_pair[0, 2], 2] = False
    return replace(geom, incidence=incidence)


GEOMETRY_TAMPERS = {
    "as-built": lambda G, geom, lines: geom,
    "point-off-its-line": lambda G, geom, lines: point_off_its_line(geom),
    "many-lines": with_lines,
}

# the message refusing each tamper that breaks an axiom, on the groups of
# degree 7 and 9
REFUSALS = {
    "point-off-its-line": ["pair (0,2) is on no line"] * 2,
}


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
@pytest.mark.parametrize("drop", [False, True], ids=["all-translations", "one-dropped"])
@pytest.mark.parametrize("tamper", list(GEOMETRY_TAMPERS))
def test_covering_witnesses_per_line_match_the_loops(tamper, drop, chunk_cells, monkeypatch):
    """The per-pair test of line-covering against the loops, on the groups of
    degree 7 and 9. "many-lines" lays the Fano plane or AG(2,3) over J, so
    some p lie off the line of p.alpha. "point-off-its-line" breaks an axiom
    of the geometry (a pair on no line), so it is refused when built and no
    covering is read on it.
    With one translation dropped X_alpha misses a point, and some lines
    leave it."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for k, (G, lines) in enumerate(((affine_group(make_field(7, 1)), FANO_LINES),
                                    (affine_group(make_dickson(3, 2)), AG23_LINES))):
        if tamper in REFUSALS:
            with pytest.raises(CharacterizationMismatch,
                               match=f"^{re.escape(REFUSALS[tamper][k])}$"):
                GEOMETRY_TAMPERS[tamper](G, build_geometry(G), lines)
            continue
        geom = GEOMETRY_TAMPERS[tamper](G, build_geometry(G), lines)
        if drop:
            tamper_sets(monkeypatch, G,
                        translations=np.delete(_require_certified(G).translations, 1))
        report = verify_xalpha_covering(G, geom)
        assert {c.name: c.witness for c in report.checks} == naive_covering_witnesses(G, geom)


def test_a_pair_sent_off_its_line_is_refused():
    """Every pair of the 7 involutions of AGL(1,7) made a line of two
    points: the line of each pair is derived from the incidence, so the pair
    (0, 1) is on the line {0, 1}, and a map sending it elsewhere is refused
    as an input, so no covering scan reads a pair off its line."""
    G = affine_group(make_field(7, 1))
    lines = list(itertools.combinations(range(7), 2))
    geom = with_lines(G, build_geometry(G), lines)
    assert geom.line_of_pair[0, 1] == geom.line_of_pair[1, 0] == lines.index((0, 1))
    line_of_pair = geom.line_of_pair.copy()
    line_of_pair[0, 1] = line_of_pair[1, 0] = lines.index((0, 2))
    with pytest.raises(ValueError, match="line_of_pair is declared with init=False"):
        replace(geom, line_of_pair=line_of_pair)


def test_a_point_off_its_covered_line_goes_to_the_cube(monkeypatch):
    """The Fano plane over the 7 involutions of AGL(1,7), one translation
    dropped so that X_alpha of the first alpha misses one point q, and every
    translation sent to a line L inside X_alpha. The points on L are
    covered; a point p off L is not, as the three lines
    joining p to L cover the plane and so one holds q. Only the cube sees
    that, and its witness is the loops'."""
    G = affine_group(make_field(7, 1))
    geom = with_lines(G, build_geometry(G), FANO_LINES)
    sets = tamper_sets(monkeypatch, G,
                       translations=np.delete(_require_certified(G).translations, 1))
    monkeypatch.setattr(census_mod, "_alpha_sample", lambda j3: (j3[:1], True))
    alpha = int(triple_products(G)[0])
    (q,) = np.flatnonzero(~np.isin(G.mul(sets.j, alpha), sets.translations))
    covered = next(lid for lid, line in enumerate(FANO_LINES) if q not in line)
    line_of_translation = np.where(geom.line_of_translation >= 0, covered, -1)
    geom = replace(geom, line_of_translation=line_of_translation)
    expected = naive_covering_witnesses(G, geom)
    assert expected["line-covering"] is not None
    report = verify_xalpha_covering(G, geom)
    assert {c.name: c.witness for c in report.checks} == expected


def test_covering_sample_cap(agl_d25, monkeypatch):
    monkeypatch.setattr(census_mod, "DEFAULT_ALPHA_CAP", 10)
    geom = build_geometry(agl_d25)
    report = verify_xalpha_covering(agl_d25, geom)
    assert report.ok
    assert report.alphas_checked == 10
    assert report.alphas_total == 25
    assert not report.complete


def test_census_sample_cap(agl_d25, monkeypatch):
    full = census(agl_d25)
    assert full.alpha_sample_complete
    assert len(full.xalpha_sizes) == 25
    monkeypatch.setattr(census_mod, "DEFAULT_ALPHA_CAP", 7)
    rep = census(agl_d25)
    assert len(rep.xalpha_sizes) == 7
    assert not rep.alpha_sample_complete
