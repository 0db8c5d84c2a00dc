"""Workload definitions, known answers and the seeded ingest input generator.

Known answers are derived from the entry id alone (its family and
parameters), never from involq: the order of AGL(1, q) is q(q-1), its
characteristic is the prime under q, the split and roundtrip verdicts are
true, nhat = j2_size = khat = q, and the coordinatizing multiplication is
commutative exactly for fields. Catalog report sections must also match the
sha256 recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

SKIP_CHAR2 = "skipped: characteristic two"
CHAR2_SKIPPED_SECTIONS = (
    "basic_properties", "geometry_conditions", "geometry", "line_lemma",
    "no_proper_plane", "divisible_subgroups", "census", "xalpha_covering",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "catalog": verify_group + write_report per entry
                              # "ingest": recover_target + census_target per document
    entries: tuple[str, ...]
    seeded: bool


# Why these workloads: catalog-large is dominated by the n^3 loops of the
# degree-121 stages; catalog-small by the fixed per-entry cost (closures,
# stage glue, import and group build) over every entry of degree <= 31,
# including the characteristic-2 entry and the uncertified fixture; ingest
# runs no geometry and is the only one that enumerates groups from documents
# (BFS) and computes centralizers with an empty cache.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-large", "catalog", ("agl-field-121", "agl-dickson-11-2"), False),
        Workload(
            "catalog-small", "catalog",
            (
                "agl-dickson-3-2", "agl-dickson-5-2",
                "agl-field-3", "agl-field-4", "agl-field-5", "agl-field-7",
                "agl-field-9", "agl-field-11", "agl-field-13", "agl-field-17",
                "agl-field-19", "agl-field-23", "agl-field-25", "agl-field-27",
                "agl-field-29", "agl-field-31", "sym4-fixture",
            ),
            False,
        ),
        Workload(
            "ingest", "ingest",
            ("agl-field-113", "agl-dickson-9-2", "agl-field-121", "agl-dickson-11-2"),
            True,
        ),
    )
}


# ---------------------------------------------------------------------------
# known answers


def _least_prime_factor(n: int) -> int:
    f = 2
    while n % f:
        f += 1
    return f


@dataclass(frozen=True)
class Known:
    q: int                    # degree of the affine group
    p: int                    # characteristic
    is_field: bool


def known_answers(entry_id: str) -> Known | None:
    """Parameters of an affine catalog entry, read from its id; None for the fixture."""
    parts = entry_id.split("-")
    if parts[:2] == ["agl", "field"]:
        q = int(parts[2])
        return Known(q, _least_prime_factor(q), True)
    if parts[:2] == ["agl", "dickson"]:
        base, n = int(parts[2]), int(parts[3])
        return Known(base**n, _least_prime_factor(base), False)
    return None


def corrupted(known: Known) -> Known:
    """A deliberately wrong answer, used by the self-test of the gate."""
    return Known(known.q + 1, known.p, known.is_field)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_catalog_report(entry_id: str, report: dict, report_bytes: bytes,
                         known: Known | None) -> list[str]:
    """Problems with one verify_group result and the bytes write_report gave it."""
    problems: list[str] = []
    _expect(problems, "report sha256", hashlib.sha256(report_bytes).hexdigest(),
            GOLDEN["entries"].get(entry_id))
    sections = report["sections"]
    _expect(problems, "conforms", report.get("conforms"), True)
    if known is None:  # the symmetric-group fixture must fail certification
        _expect(problems, "order", report["order"], 24)
        _expect(problems, "certified", sections["certificate"]["valid"], False)
        return problems
    q = known.q
    _expect(problems, "order", report["order"], q * (q - 1))
    _expect(problems, "characteristic", sections["certificate"]["characteristic"], known.p)
    _expect(problems, "split", sections["splitting"].get("split"), True)
    _expect(problems, "roundtrip", sections["roundtrip"].get("equal"), True)
    _expect(problems, "mul_commutative",
            sections["coordinatization"].get("mul_commutative"), known.is_field)
    if known.p == 2:
        for name in CHAR2_SKIPPED_SECTIONS:
            _expect(problems, f"{name} status", sections[name]["status"], SKIP_CHAR2)
    else:
        census = sections["census"]
        for key in ("nhat", "j2_size", "khat"):
            _expect(problems, key, census.get(key), q)
    return problems


def check_recover_payload(payload: dict, known: Known) -> list[str]:
    problems: list[str] = []
    _expect(problems, "split", payload.get("split"), True)
    _expect(problems, "roundtrip", payload.get("roundtrip"), True)
    nf = payload["coordinatization"]["nearfield"]
    _expect(problems, "nearfield order", nf["order"], known.q)
    add, mul = nf["add"], nf["mul"]
    steps, x = 1, add[0][1]
    while x != 0 and steps <= known.q:  # additive order of 1 is the characteristic
        x, steps = add[x][1], steps + 1
    _expect(problems, "characteristic", steps, known.p)
    commutative = all(mul[a][b] == mul[b][a] for a in range(len(mul)) for b in range(a))
    _expect(problems, "mul_commutative", commutative, known.is_field)
    return problems


def check_census_payload(payload: dict, known: Known) -> list[str]:
    problems: list[str] = []
    _expect(problems, "status", payload.get("status"), "pass")
    for key in ("nhat", "j2_size", "khat"):
        _expect(problems, key, payload.get(key), known.q)
    return problems


# ---------------------------------------------------------------------------
# the seeded ingest input generator


# numpy is imported inside the functions below: onepass.py imports this module
# before it starts timing the involq import, which includes numpy's.


def closure_order(gens, limit: int) -> int:
    """Order of the group the permutations generate, counted up to limit + 1."""
    import numpy as np

    ident = np.arange(len(gens[0]), dtype=np.int32)
    seen = {ident.tobytes()}
    layer = [ident]
    while layer:
        fresh = []
        for h in gens:
            for row in h[np.array(layer)]:  # u then h
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    fresh.append(row)
                    if len(seen) > limit:
                        return len(seen)
        layer = fresh
    return len(seen)


def ingest_document(elements, known: Known, n_gens: int, rng: random.Random) -> dict:
    """Relabel the group by a random point permutation and draw n_gens generators.

    The draw repeats until the generators' closure reaches q(q-1), so the
    document describes the whole relabelled group. The number of generators
    is not drawn: enumeration time and memory grow with it, and a seed should
    change the labels, not the amount of work.
    """
    import numpy as np

    q = known.q
    while True:
        pi = list(range(q))
        rng.shuffle(pi)
        pi = np.array(pi, dtype=np.int32)
        pinv = np.argsort(pi).astype(np.int32)
        picks = [rng.randrange(1, len(elements)) for _ in range(n_gens)]
        gens = [pi[elements[i][pinv]] for i in picks]  # x -> pi(g(pi^-1(x)))
        if closure_order(gens, q * (q - 1)) == q * (q - 1):
            return {"degree": q, "generators": [g.tolist() for g in gens]}
