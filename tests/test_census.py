"""Census quantities and the triple-product covering scan."""

import importlib
import itertools

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    NotAMember,
    NotInJ3,
    affine_group,
    build_geometry,
    census,
    centralizer,
    involutions,
    make_dickson,
    make_field,
    translations,
    verify_xalpha_covering,
    x_alpha,
)
from involq import reporting
from involq.s2t import certify_sharply_2_transitive

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


def test_x_alpha_identity_is_empty(agl_f5):
    assert list(x_alpha(agl_f5, agl_f5.identity_index)) == []


def test_x_alpha_of_involution_is_everything(agl_f5, agl_d9):
    for G in (agl_f5, agl_d9):
        J = involutions(G)
        for alpha in J:
            assert list(x_alpha(G, int(alpha))) == list(range(len(J)))


def test_x_alpha_rejects_non_triple_products(agl_f5):
    # x -> 2x lies in the stabilizer of 0 and is not a product of three
    # involutions (triple products of involutions equal the involutions here)
    doubling = np.array([(2 * x) % 5 for x in range(5)], dtype=np.int32)
    with pytest.raises(NotInJ3):
        x_alpha(agl_f5, agl_f5.index_of(doubling))


def test_x_alpha_rejects_out_of_range_indices(agl_f5):
    for alpha in (-1, agl_f5.order):
        with pytest.raises(NotAMember, match=f"^no element with index {alpha}$"):
            x_alpha(agl_f5, alpha)


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
    assert list(x_alpha(G, alpha)) == expected


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
    cert = certify_sharply_2_transitive(G)
    J = cert._j.tolist()
    trans = set(cert._translations.tolist())
    n = len(J)
    khat = len(centralizer(G, next(t for t in cert._translations.tolist()
                                   if t != G.identity_index)))
    lines = [set(np.flatnonzero(row).tolist()) for row in geom.incidence]
    sample, _ = census_mod._alpha_sample(G, census_mod._triple_products(G, cert))
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
    * point-line-saturation: a point taken off the only line of a perturbed
      incidence matrix lies on no line inside X_alpha;
    * fiber-size-identity: khat read through a centralizer cache that lost a
      member.

    Each witness equals the loops', in one chunk and in one alpha per chunk."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    for G in (affine_group(make_field(7, 1)), affine_group(make_dickson(3, 2))):
        geom = build_geometry(G)
        cert = certify_sharply_2_transitive(G)
        assert set(naive_covering_witnesses(G, geom).values()) == {None}
        if tamper == "line-covering":
            cert._translations = np.delete(cert._translations, 1)
            monkeypatch.setattr(census_mod, "_alpha_sample", lambda G, j3: (j3[::-1], True))
        elif tamper == "point-line-saturation":
            geom.incidence = geom.incidence.copy()
            geom.incidence[0, 2] = False
        else:
            t = int(cert._translations[cert._translations != G.identity_index][0])
            G._centralizer_cache[t] = centralizer(G, t)[:-1]
        expected = naive_covering_witnesses(G, geom)
        assert expected[tamper] is not None
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
