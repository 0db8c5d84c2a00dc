"""Census quantities and the triple-product covering scan."""

import importlib

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    NotAMember,
    NotInJ3,
    build_geometry,
    census,
    centralizer,
    involutions,
    translations,
    verify_xalpha_covering,
    x_alpha,
)

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


def test_covering_report(agl_f5, agl_f7, agl_d9, agl_d25):
    for G in (agl_f5, agl_f7, agl_d9, agl_d25):
        geom = build_geometry(G)
        report = verify_xalpha_covering(G, geom)
        assert report.ok
        assert report.complete
        names = [c.name for c in report.checks]
        assert names == ["line-covering", "point-line-saturation", "fiber-size-identity"]


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
