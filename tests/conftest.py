import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from involq import affine_group, make_dickson, make_field, parse_group_doc, s2t
from involq.catalog import SYM4_DOC


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child Python that imports involq from this
    checkout: the repository's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def f7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def d9():
    return make_dickson(3, 2)


@pytest.fixture(scope="session")
def d25():
    return make_dickson(5, 2)


@pytest.fixture(scope="session")
def agl_f3(f3):
    return affine_group(f3)


@pytest.fixture(scope="session")
def agl_f4(f4):
    return affine_group(f4)


@pytest.fixture(scope="session")
def agl_f5(f5):
    return affine_group(f5)


@pytest.fixture(scope="session")
def agl_f7(f7):
    return affine_group(f7)


@pytest.fixture(scope="session")
def agl_f9(f9):
    return affine_group(f9)


@pytest.fixture(scope="session")
def agl_d9(d9):
    return affine_group(d9)


@pytest.fixture(scope="session")
def agl_d25(d25):
    return affine_group(d25)


@pytest.fixture(scope="session")
def sym4():
    return parse_group_doc(SYM4_DOC)


@pytest.fixture(scope="session")
def d9_relabelled_doc():
    """The degree-9 Dickson group under a point relabelling, given by two
    generators (order 72)."""
    return json.loads((Path(__file__).parent / "data" / "dickson-9-relabelled.json").read_text())


@pytest.fixture(scope="session")
def d9_relabelled(d9_relabelled_doc):
    return parse_group_doc(d9_relabelled_doc)


def c2_power_doc(k):
    """(C2)^k on 2k points: generator i swaps the points 2i and 2i+1. Its
    greedy base is the points 0, 2, ..., 2k-2."""
    gens = []
    for i in range(k):
        g = list(range(2 * k))
        g[2 * i], g[2 * i + 1] = g[2 * i + 1], g[2 * i]
        gens.append(g)
    return {"degree": 2 * k, "generators": gens}


@pytest.fixture(scope="session")
def c2_10_doc():
    """Degree 20, order 1,024, a base of 10 points."""
    return c2_power_doc(10)


@pytest.fixture(scope="session")
def c2_15_doc():
    return c2_power_doc(15)


@pytest.fixture(scope="session")
def dickson_121_relabelled_doc():
    """agl-dickson-11-2 under a seeded relabelling of its points, given by
    three seeded random elements, as the ingest benchmark draws its
    documents; this draw generates the whole group (order 14,520)."""
    G = affine_group(make_dickson(11, 2))
    rng = np.random.default_rng(21)
    pi = rng.permutation(G.degree)
    picks = rng.integers(1, G.order, 3)
    return {"degree": G.degree,
            "generators": [pi[G.elements[i][np.argsort(pi)]].tolist() for i in picks]}


def tamper_sets(monkeypatch, G, **changes):
    """Install ``dataclasses.replace(sets, **changes)`` for the certified sets
    of G in the cache of involq.s2t, until the test ends; every stage then
    reads the tampered sets. A group that fails certification gets a passing
    stand-in certificate and sets that hold ``changes`` alone."""
    cert = s2t.certify_sharply_2_transitive(G)
    sets = s2t._certified[G][1]
    if sets is None:
        cert = dataclasses.replace(cert, valid=True)
        sets = s2t.CertifiedSets(*[None] * len(dataclasses.fields(s2t.CertifiedSets)))
    sets = dataclasses.replace(sets, **changes)
    monkeypatch.setitem(s2t._certified, G, (cert, sets))
    return sets
