"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The catalog used throughout is the default one (degree bound 121).
"""

import hashlib
import json
import time

import numpy as np
import pytest

from involq import (
    build_geometry,
    census,
    certify_sharply_2_transitive,
    check_geometry_conditions,
    coordinatize,
    divisible_subgroup_scan,
    involutions,
    make_dickson,
    multiplicative_group_summary,
    neumann_split_test,
    roundtrip_check,
    verify_basic_properties,
    verify_line_lemma,
    verify_nearfield_axioms,
    verify_xalpha_covering,
)
from involq.catalog import build_entry, run_catalog
from involq.geometry import no_plane_verdicts
from involq.nearfield import prime_power
from involq.pipeline import _closure_seed_masks, run_verify, verify_group
from naive import line_sets, naive_closure, naive_verdict

CRITERION_1_FIELDS = [3, 5, 7, 9, 11, 13, 25, 27, 49]
CRITERION_2_DICKSON = [(3, 2), (5, 2), (7, 2), (11, 2)]
# sha256 of `involq verify all --report` over the default catalog
FULL_REPORT_SHA256 = "bc183694f9afefe90c3ba61284c2fb1a745233e8c4ef8fa0ce1cc6470ad86002"


def report_line(number: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


# one shared build of every catalog entry (groups, geometries where defined)
_cache: dict = {}


def catalog_entries():
    if "entries" not in _cache:
        _cache["entries"] = run_catalog(121)
    return _cache["entries"]


def group_of(entry):
    if entry.id not in _cache:
        _cache[entry.id] = build_entry(entry)
    return _cache[entry.id]


def geometry_of(entry):
    key = f"geom:{entry.id}"
    if key not in _cache:
        _cache[key] = build_geometry(group_of(entry))
    return _cache[key]


def odd_certified_entries():
    return [
        e for e in catalog_entries()
        if e.expected_certified and e.expected_characteristic != 2
    ]


def test_criterion_1_field_suite():
    start = time.time()
    ok = True
    for q in CRITERION_1_FIELDS:
        p, _ = prime_power(q)
        entry = next(e for e in catalog_entries() if e.id == f"agl-field-{q}")
        G = group_of(entry)
        cert = certify_sharply_2_transitive(G)
        ok &= cert.valid
        ok &= len(involutions(G)) == q
        ok &= cert.characteristic == p
        conditions = check_geometry_conditions(G)
        ok &= conditions.ok and all(c.passed for c in conditions.checks)
        geom = geometry_of(entry)
        ok &= line_sets(geom) == [set(range(q))]
        ok &= verify_basic_properties(G).ok
        split = neumann_split_test(G)
        ok &= split.split and split.j2_abelian
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report_line(1, ok, f"odd-order field suite q in {CRITERION_1_FIELDS} ({elapsed:.1f}s)")


def test_criterion_2_dickson_suite():
    ok = True
    for q, n in CRITERION_2_DICKSON:
        nf = make_dickson(q, n)
        axioms = verify_nearfield_axioms(nf)
        ok &= axioms.ok
        comm = axioms.check("mul-commutativity")
        ok &= not comm.passed
        left = axioms.check("left-distributivity")
        ok &= (not left.passed) and left.witness is not None
        a, b, c = left.witness
        ok &= nf.mul[a, nf.add[b, c]] != nf.add[nf.mul[a, b], nf.mul[a, c]]

        entry = next(e for e in catalog_entries() if e.id == f"agl-dickson-{q}-{n}")
        G = group_of(entry)
        ok &= certify_sharply_2_transitive(G).valid
        conditions = check_geometry_conditions(G)
        ok &= conditions.ok
        geom = geometry_of(entry)
        ok &= verify_line_lemma(G, geom).ok
        failed, line_count = no_plane_verdicts(geom, np.ones((1, geom.n_points), dtype=bool))
        ok &= failed[0] != 0 or line_count[0] <= 1
        ok &= divisible_subgroup_scan(G, geom).ok

    q8 = multiplicative_group_summary(make_dickson(3, 2))
    ok &= q8.order == 8 and q8.involution_count == 1 and q8.exponent == 4
    report_line(2, ok, f"Dickson suite {CRITERION_2_DICKSON} incl. order-8 unit group")


def test_criterion_3_roundtrip():
    ok = True
    for entry in catalog_entries():
        if not entry.expected_certified:
            continue
        G = group_of(entry)
        coord = coordinatize(G)
        ok &= roundtrip_check(G, coord)
        nf = coord.nearfield
        commutative = bool(np.array_equal(nf.mul, nf.mul.T))
        axioms = verify_nearfield_axioms(nf)
        ok &= axioms.check("mul-associativity").passed
        if entry.family == "agl-field":
            ok &= commutative
        elif entry.family == "agl-dickson":
            ok &= not commutative
    report_line(3, ok, "coordinatize-then-affine reproduces every split entry")


def test_criterion_4_negative_paths(tmp_path):
    sym4_entry = next(e for e in catalog_entries() if e.id == "sym4-fixture")
    cert = certify_sharply_2_transitive(group_of(sym4_entry))
    ok = (not cert.valid) and cert.failure == {
        "check": "order", "expected": 12, "actual": 24,
    }

    gf4_entry = next(e for e in catalog_entries() if e.id == "agl-field-4")
    result = verify_group(group_of(gf4_entry), gf4_entry)
    cert4 = result["sections"]["certificate"]
    ok &= cert4["status"] == "pass" and cert4["characteristic"] == 2
    for name in ("geometry_conditions", "geometry", "census", "xalpha_covering"):
        ok &= result["sections"][name]["status"] == "skipped: characteristic two"
    ok &= result["ok"] is True
    report_line(4, ok, "sym4 order witness 24 != 12; GF(4) skips are not failures")


def test_criterion_5_plane_closures():
    """Each seed is closed and judged by the naive set loops, independent
    of the batched kernels that the no_proper_plane stage calls."""
    ok = True
    for entry in odd_certified_entries():
        geom = geometry_of(entry)
        for seed in _closure_seed_masks(100, geom.n_points):
            closure = naive_closure(geom, np.flatnonzero(seed).tolist())
            ok &= naive_closure(geom, closure) == closure
            failed, line_count = naive_verdict(geom, closure)
            if failed is None:
                ok &= line_count <= 1
    report_line(5, ok, "100 deterministic closures per entry: idempotent, <= 1 line")


def test_criterion_6_xalpha_covering():
    ok = True
    for entry in odd_certified_entries():
        G = group_of(entry)
        geom = geometry_of(entry)
        report = verify_xalpha_covering(G, geom)
        ok &= report.ok
        ok &= report.check("fiber-size-identity").passed
        if entry.degree <= 9:
            ok &= report.complete and report.alphas_checked == report.alphas_total
    report_line(6, ok, "line covering and fiber identity over sampled triple products")


def test_criterion_7_census_identities():
    ok = True
    for entry in odd_certified_entries():
        G = group_of(entry)
        rep = census(G)
        ok &= rep.khat_constant
        ok &= rep.j2_size * rep.khat == rep.nhat**2
        ok &= rep.j_disjoint_from_j2
        ok &= rep.j3_contains_j
        ok &= neumann_split_test(G).split
    # the char-2 entry also reports split
    gf4 = next(e for e in catalog_entries() if e.id == "agl-field-4")
    ok &= neumann_split_test(group_of(gf4)).split
    report_line(7, ok, "census identities and split consistency on every entry")


@pytest.mark.slow
def test_criterion_8_deterministic_reports(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc1 = run_verify("all", str(first), quiet=True)
    rc2 = run_verify("all", str(second), quiet=True)
    ok = rc1 == 0 and rc2 == 0
    ok &= first.read_bytes() == second.read_bytes()
    ok &= hashlib.sha256(first.read_bytes()).hexdigest() == FULL_REPORT_SHA256
    payload = json.loads(first.read_text())
    ok &= payload["ok"] is True and len(payload["entries"]) == len(catalog_entries())
    report_line(8, ok, "two full-catalog verify runs are byte-identical and golden")
