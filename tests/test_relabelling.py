"""Relabelling oracle: a catalog group ingested under a random renaming of
its points is the same abstract permutation group, so every invariant the
pipeline reports must come out the same, and a random non-bijection among
the generators is an input error.

Needs hypothesis (CI installs it); the module skips without it.
Examples are derandomized, so every run draws the same relabellings.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest

from involq import (
    CharacteristicTwo,
    NotSharply2Transitive,
    census,
    certify_sharply_2_transitive,
    coordinatize,
    multiplicative_group_summary,
    neumann_split_test,
    parse_group_doc,
)
from involq.catalog import build_entry, run_catalog
from involq.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

EXAMPLES = settings(max_examples=4, deadline=None, derandomize=True, database=None)
ENTRIES = {e.id: e for e in run_catalog(25)}


def invariants(G) -> dict:
    """What the pipeline reports about G that no renaming of points changes:
    the certificate flags, the census numbers with the X_alpha sizes as a
    multiset (the alphas themselves are element indices), the split verdict
    and the shape of the recovered near-field."""
    out = {"certificate": certify_sharply_2_transitive(G).as_dict()}
    try:
        rep = census(G)
    except (CharacteristicTwo, NotSharply2Transitive) as exc:
        out["census"] = type(exc).__name__
    else:
        out["census"] = {**rep.as_dict(),
                         "xalpha_sizes": sorted(size for _, size in rep.xalpha_sizes)}
    try:
        split = neumann_split_test(G)
    except NotSharply2Transitive as exc:
        out["split"] = type(exc).__name__
        return out
    out["split"] = (split.split, split.j2_is_subgroup, split.j2_abelian,
                    len(split.abelian_normal_subgroup or ()))
    nf = coordinatize(G, split).nearfield
    out["nearfield"] = (nf.order, nf.char_p, bool((nf.mul == nf.mul.T).all()),
                        multiplicative_group_summary(nf))
    return out


@functools.lru_cache(maxsize=None)
def catalog_invariants(entry_id: str) -> dict:
    return invariants(build_entry(ENTRIES[entry_id]))


def relabelled_doc(G, pi) -> dict:
    """The generators of G conjugated by the renaming x -> pi[x]: each g
    becomes the map pi[x] -> pi[g[x]]."""
    pi = np.asarray(pi)
    rows = np.empty_like(G.generators)
    rows[:, pi] = pi[G.generators]
    return {"degree": G.degree, "generators": rows.tolist()}


@pytest.mark.parametrize("entry_id", sorted(ENTRIES))
@EXAMPLES
@given(data=st.data())
def test_relabelled_catalog_groups_keep_every_invariant(entry_id, data):
    G = build_entry(ENTRIES[entry_id])
    pi = data.draw(st.permutations(range(G.degree)), label="pi")
    assert invariants(parse_group_doc(relabelled_doc(G, pi))) == catalog_invariants(entry_id)


@st.composite
def non_bijection_docs(draw):
    """A document whose generators, after a valid one, include an image
    sequence of the right length and integer type that is not a bijection
    on 0..degree-1: a repeated point or one out of range."""
    degree = draw(st.integers(2, 8))
    valid = draw(st.permutations(range(degree)))
    bad = draw(st.lists(st.integers(-2, degree + 2), min_size=degree, max_size=degree)
               .filter(lambda seq: sorted(seq) != list(range(degree))))
    return {"degree": degree, "generators": [list(valid), bad]}


@settings(EXAMPLES, max_examples=25)
@given(doc=non_bijection_docs())
def test_random_non_bijections_exit_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["verify", path, "--quiet"]) == 2
    assert err.getvalue().startswith("input error:")
