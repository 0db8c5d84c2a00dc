"""Permutation group enumeration, scans, and the affine construction.

Oracles are naive pure-Python loops over tuples (no numpy), independent of
the vectorized paths, plus hand-frozen element lists for the BFS order.
"""

import json
import random
import tracemalloc
from functools import partial
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from involq import (
    MalformedDocument,
    NotABijection,
    NotAMember,
    OrderCapExceeded,
    affine_group,
    centralizer,
    compose,
    conjugacy_class,
    conjugate,
    identity_perm,
    invert,
    make_field,
    parse_group_doc,
)
from involq import permgroup, reporting
from involq.config import max_group_order
from involq.permgroup import PermGroup, as_perm, member_mask
from involq.reporting import least_cell_in_chunks
from involq.catalog import SYM4_DOC, build_entry, find_entry, run_catalog
from naive import naive_chain, naive_order

S3_DOC = {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}
S3_ON_POINTS_2_TO_4_DOC = {"degree": 5, "generators": [[0, 1, 3, 4, 2], [0, 1, 3, 2, 4]]}
# S4 by (2 3) and (0 1 2 3): the generators move 0 and 2 first, and a
# residue makes a level at 1, between those two
BETWEEN_LEVELS_DOC = {"degree": 4, "generators": [[0, 1, 3, 2], [1, 2, 3, 0]]}

# breadth-first from the identity, generators in document order, each layer
# sorted by image sequence; derived by hand from the composition convention
S3_BFS_ORDER = [
    (0, 1, 2),
    (1, 0, 2),
    (1, 2, 0),
    (0, 2, 1),
    (2, 0, 1),
    (2, 1, 0),
]


def naive_compose(g, h):
    return tuple(h[g[x]] for x in range(len(g)))


def test_parse_s3_order_and_bfs_layout():
    G = parse_group_doc(S3_DOC)
    assert G.order == 6
    assert [tuple(row) for row in G.elements] == S3_BFS_ORDER
    assert set(map(tuple, G.elements)) == set(permutations(range(3)))


def test_parse_trivial_group():
    G = parse_group_doc({"degree": 4, "generators": [[0, 1, 2, 3]]})
    assert G.order == 1
    assert G.identity_index == 0


def test_parse_rejects_non_bijection():
    with pytest.raises(NotABijection) as err:
        parse_group_doc({"degree": 3, "generators": [[0, 0, 1]]})
    assert err.value.generator_index == 0


def test_parse_rejects_malformed():
    for doc in [
        "not json {",
        [1, 2, 3],
        {"degree": 3},
        {"generators": []},
        {"degree": 0, "generators": []},
        {"degree": 3, "generators": [[0, 1]]},
        {"degree": 3, "generators": "nope"},
        {"degree": 3, "generators": [[1, 2, 0.5], [1, 0, 2]]},  # float image
        {"degree": 3, "generators": [[1, 2, 0.0]]},
        {"degree": 3, "generators": [[True, False, 2]]},        # bool images
        {"degree": 1, "generators": [[0]]},                     # degree below 2
        {"degree": True, "generators": [[0]]},                  # bool degree
        {"degree": 2.0, "generators": [[1, 0]]},
    ]:
        with pytest.raises(MalformedDocument):
            parse_group_doc(doc)


def test_parse_json_text():
    G = parse_group_doc('{"degree": 3, "generators": [[1, 2, 0]]}')
    assert G.order == 3


def bfs_oracle(degree, gens):
    """Reference enumeration: new rows collected in a dict, each layer sorted
    by the tuples of its images, so the order never rests on comparing byte
    keys."""
    ident = identity_perm(degree)
    seen = {ident.tobytes()}
    ordered = [ident]
    layer = np.array([ident], dtype=np.int32)
    while len(layer):
        fresh = {}
        for g in gens:
            for row in g[layer]:
                key = row.tobytes()
                if key not in seen and key not in fresh:
                    fresh[key] = row
        if not fresh:
            break
        rows = sorted(fresh.values(), key=lambda r: tuple(r))
        for row in rows:
            seen.add(row.tobytes())
            ordered.append(row)
        layer = np.array(rows, dtype=np.int32)
    return np.array(ordered, dtype=np.int32)


ENUMERATED_DOCS = [
    S3_DOC,
    SYM4_DOC,
    {"degree": 2, "generators": [[1, 0]]},
    {"degree": 4, "generators": []},
    {"degree": 4, "generators": [[1, 0, 3, 2], [0, 1, 2, 3], [1, 0, 3, 2], [1, 2, 3, 0]]},
    "d9_relabelled_doc",  # a fixture
    # (0 1) and (0 256): a layer whose order is wrong under little-endian
    # keys, where 256 would sort before 1
    {"degree": 257, "generators": [
        [1, 0, *range(2, 257)],
        [256, *range(1, 256), 0],
    ]},
    "c2_10_doc",  # a fixture
    S3_ON_POINTS_2_TO_4_DOC,
    "dickson_121_relabelled_doc",  # a fixture
    # S5, whose stabilizer of point 0 holds no generator: every strong
    # generator past the first level comes from a residue
    {"degree": 5, "generators": [[1, 0, 2, 4, 3], [4, 1, 3, 0, 2]]},
    BETWEEN_LEVELS_DOC,
]
ENUMERATED_IDS = ["s3", "sym4", "degree-2", "no-generators", "repeated-and-identity",
                  "d9-relabelled", "images-above-255", "c2-power-10", "s3-on-points-2-to-4",
                  "dickson-121-relabelled", "s5-by-picked-rows", "base-point-between-levels"]


@pytest.mark.parametrize("doc", ENUMERATED_DOCS, ids=ENUMERATED_IDS)
def test_enumeration_order_matches_oracle(doc, request):
    """The oracle compares whole rows. Besides the two-point bases of sharply
    2-transitive groups, the inputs reach longer chains: sym4 (3 base
    points), S3 fixing points 0 and 1 (base 2, 3), S4 with a level made
    between two others, and (C2)^10, with 10 base points."""
    if isinstance(doc, str):
        doc = request.getfixturevalue(doc)
    gens = [np.array(g, dtype=np.int32) for g in doc["generators"]]
    expected = bfs_oracle(doc["degree"], gens)
    assert np.array_equal(parse_group_doc(doc).elements, expected)


DATA_DOCS = sorted((Path(__file__).parent / "data").glob("*.json"))


@pytest.mark.parametrize("doc", ENUMERATED_DOCS + ["c2_15_doc"] + DATA_DOCS,
                         ids=ENUMERATED_IDS + ["c2-power-15"] + [p.stem for p in DATA_DOCS])
def test_order_matches_sympy(doc, request):
    """sympy's Schreier-Sims order of the generated group, found without
    enumerating it, is the number of elements enumerated."""
    comb = pytest.importorskip("sympy.combinatorics")
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    elif isinstance(doc, str):
        doc = request.getfixturevalue(doc)
    gens = [comb.Permutation(g) for g in doc["generators"]]
    S = comb.PermutationGroup(gens or [comb.Permutation(list(range(doc["degree"])))])
    assert S.order() == parse_group_doc(doc).order


def sympy_levels(doc):
    """(point, orbit size) along the greedy base, by sympy: each point the
    least one moved by the pointwise stabilizer of the points before it."""
    comb = pytest.importorskip("sympy.combinatorics")
    G = comb.PermutationGroup([comb.Permutation(g) for g in doc["generators"]]
                              or [comb.Permutation(list(range(doc["degree"])))])
    levels, S = [], G
    while moved := [p for g in S.generators for p in g.support()]:
        point = min(moved)
        levels.append((point, len(S.orbit(point))))
        S = G.pointwise_stabilizer([point for point, _ in levels])
    return levels


@pytest.mark.parametrize("doc", ENUMERATED_DOCS + ["c2_15_doc"] + DATA_DOCS,
                         ids=ENUMERATED_IDS + ["c2-power-15"] + [p.stem for p in DATA_DOCS])
def test_base_matches_sympy(doc, request):
    """The chain on points runs along sympy's greedy base, with sympy's
    basic orbit sizes, and so do the levels of the group the parse builds
    on it (where the trivial group takes point 0, with an orbit of one
    point)."""
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    elif isinstance(doc, str):
        doc = request.getfixturevalue(doc)
    expected = sympy_levels(doc)
    gens = np.array(doc["generators"], dtype=np.int32).reshape(-1, doc["degree"])
    chain = permgroup._stabilizer_chain(gens, max_group_order())
    assert [(point, len(rows)) for point, _, rows, _ in chain] == expected
    G = parse_group_doc(doc)
    assert [(point, len(rows)) for point, _, rows, _ in G._levels] == (expected or [(0, 1)])


CYCLE_1000_DOC = {"degree": 1000, "generators": [[*range(1, 1000), 0]]}
# every affine catalog entry of degree <= 121, and the groups of GF(2) (one
# level) and GF(4) (characteristic 2), each built by affine_group
AFFINE_ENTRIES = [e for e in run_catalog() if e.family != "ingested"]
AFFINE_BUILDS = ([partial(build_entry, e) for e in AFFINE_ENTRIES]
                 + [lambda: affine_group(make_field(2)), lambda: affine_group(make_field(2, 2))])
AFFINE_IDS = [e.id for e in AFFINE_ENTRIES] + ["field-2", "field-2-2"]


def built_with_chain(build, monkeypatch):
    """The group build() returns and the chain (levels, position) that its
    builder handed the constructor."""
    chains = []
    monkeypatch.setattr(permgroup, "PermGroup",
                        lambda *args: chains.append(args[3]) or PermGroup(*args))
    return build(), chains[-1]


@pytest.mark.parametrize("doc", ENUMERATED_DOCS + ["c2_15_doc", CYCLE_1000_DOC, 1, 2, 3]
                         + DATA_DOCS + AFFINE_BUILDS,
                         ids=ENUMERATED_IDS + ["c2-power-15", "cycle-1000", "ingest-seed-1",
                                               "ingest-seed-2", "ingest-seed-3"]
                         + [p.stem for p in DATA_DOCS] + AFFINE_IDS)
def test_the_proved_chain_builds_the_group_its_rows_build(doc, request, monkeypatch):
    """A builder hands the constructor the chain it knows: a parse the chain
    its proof built, affine_group its closed form. The oracle walks the
    same rows for a chain of its own (naive.naive_chain), and a group built
    on it has the same base and levels (point, orbit size), inverse table
    and identity, finds every row at its index, and refuses the same random
    permutations. Both chains put the same element at each lexicographic
    rank; the affine chain is the oracle's array for array, as both take
    the first element to each orbit point. An integer stands for the four
    documents of that seed's ingest pass, a callable for an affine build;
    the trivial group (no-generators) has a proved chain of no level and
    still takes point 0."""
    if callable(doc):
        builds = [doc]
    elif isinstance(doc, int):
        builds = [partial(parse_group_doc, d) for d in ingest_documents(doc, monkeypatch)]
    elif isinstance(doc, Path):
        builds = [partial(parse_group_doc, json.loads(doc.read_text()))]
    else:
        builds = [partial(parse_group_doc, request.getfixturevalue(doc) if isinstance(doc, str)
                          else doc)]
    rng = np.random.default_rng(7)
    for build in builds:
        G, (levels, position) = built_with_chain(build, monkeypatch)
        oracle = naive_chain(G.elements)
        H = PermGroup(G.degree, G.elements, G.generators, oracle)
        assert np.array_equal(position, oracle[1])
        if callable(doc):
            assert len(levels) == len(oracle[0])
            for level, expected in zip(levels, oracle[0]):
                assert level[0] == expected[0]
                assert all(np.array_equal(a, b) for a, b in zip(level[1:], expected[1:]))
        assert ([(point, len(rows)) for point, _, rows, _ in levels]
                == [(point, len(rows)) for point, _, rows, _ in oracle[0]])
        assert G.base == H.base
        assert ([(point, len(rows)) for point, _, rows, _ in G._levels]
                == [(point, len(rows)) for point, _, rows, _ in H._levels])
        assert np.array_equal(G._inverse, H._inverse)
        assert G.identity_index == H.identity_index
        assert np.array_equal(G.index_of(H.elements), np.arange(G.order))
        outside = [perm for perm in (rng.permutation(G.degree) for _ in range(20))
                   if not H.contains(perm)]
        assert not any(G.contains(perm) for perm in outside)
        assert outside or G.order == factorial(G.degree)


def test_random_generator_sets_have_sympys_base():
    """The chain on points of random documents of degree 2..9 with 0..3
    generators, and at times a repeated generator or the identity, runs
    along sympy's greedy base with sympy's basic orbit sizes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def documents(draw):
        degree = draw(st.integers(2, 9))
        generators = draw(st.lists(st.permutations(range(degree)), max_size=3))
        if generators and draw(st.booleans()):
            generators.append(draw(st.sampled_from([*generators, list(range(degree))])))
        return {"degree": degree, "generators": generators}

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(documents())
    def check(doc):
        gens = np.array(doc["generators"], dtype=np.int32).reshape(-1, doc["degree"])
        chain = permgroup._stabilizer_chain(gens, max_group_order())
        assert [(point, len(rows)) for point, _, rows, _ in chain] == sympy_levels(doc)

    check()


@pytest.mark.slow
def test_random_generator_sets_enumerate_like_the_oracle():
    """A property over random documents of degree 2..9 with 0..3 generators,
    and at times a repeated generator or the identity put among them: many
    groups drawn need residues at several levels (S_n and A_n among them).
    The rows equal the oracle's, row for
    row, the order is sympy's, and every element times its inverse is the
    identity. Marked slow: the oracle's Python loop over S_9 alone takes
    2 s, and far longer under a line tracer."""
    hypothesis = pytest.importorskip("hypothesis")
    comb = pytest.importorskip("sympy.combinatorics")
    st = hypothesis.strategies

    @st.composite
    def documents(draw):
        degree = draw(st.integers(2, 9))
        generators = draw(st.lists(st.permutations(range(degree)), max_size=3))
        if generators and draw(st.booleans()):  # a repeated generator or the identity
            generators.insert(draw(st.integers(0, len(generators) - 1)),
                              draw(st.sampled_from([*generators, list(range(degree))])))
        return {"degree": degree, "generators": generators}

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(documents())
    def check(doc):
        G = parse_group_doc(doc)
        gens = [np.array(g, dtype=np.int32) for g in doc["generators"]]
        assert np.array_equal(G.elements, bfs_oracle(doc["degree"], gens))
        S = comb.PermutationGroup([comb.Permutation(g) for g in doc["generators"]]
                                  or [comb.Permutation(list(range(doc["degree"])))])
        assert S.order() == G.order
        every = np.arange(G.order)
        assert np.array_equal(G.mul(every, G.inv(every)), np.full(G.order, G.identity_index))

    check()


def ingest_documents(seed, monkeypatch):
    """The documents of one seed's pass of the ingest benchmark, drawn as
    its runner draws them: 2 or 3 generators, alternating by position."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, ingest_document, known_answers

    rng = random.Random(seed)
    return [ingest_document(build_entry(find_entry(entry_id)).elements, known_answers(entry_id),
                            2 + position % 2, rng)
            for position, entry_id in enumerate(WORKLOADS["ingest"].entries)]


def test_one_chain_walk_per_search(monkeypatch):
    """A parse builds one stabilizer chain on points and enumerates it once,
    and affine_group runs neither: it hands the constructor its chain in
    closed form. No module walks the rows for a chain of its own: while S4,
    S3 on points 2..4 (whose residue makes a level at point 3, which no
    generator moves first), the first document of the ingest benchmark's
    seed-1 pass and agl-field-5 are built, the element cells are read only
    by the constructor, once per base point (its column) and once for the
    identity (its row)."""
    ingested = ingest_documents(1, monkeypatch)[0]
    chains, enumerations, reads = [], [], []
    stabilizer_chain, enumerate_ = permgroup._stabilizer_chain, permgroup._enumerate
    monkeypatch.setattr(permgroup, "_stabilizer_chain",
                        lambda *args: chains.append(args) or stabilizer_chain(*args))
    monkeypatch.setattr(permgroup, "_enumerate",
                        lambda *args: enumerations.append(args) or enumerate_(*args))
    for name in ("images", "rows", "column"):
        read = getattr(PermGroup, name)
        monkeypatch.setattr(PermGroup, name, lambda G, *args, name=name, read=read:
                            reads.append((name, *args)) or read(G, *args))
    for doc in [SYM4_DOC, S3_ON_POINTS_2_TO_4_DOC, ingested, None]:
        for calls in (chains, enumerations, reads):
            calls.clear()
        G = affine_group(make_field(5)) if doc is None else parse_group_doc(doc)
        assert len(chains) == len(enumerations) == (doc is not None)
        assert reads == [("column", point) for point in G.base] + [("rows", G.identity_index)]
    assert G.base == [0, 1]


def test_an_affine_chain_with_two_ranks_swapped_is_refused(monkeypatch):
    """The constructor checks a chain its builder computed as it checks
    one its builder proved: with the elements at the first and the last
    lexicographic rank swapped in the closed-form chain of agl-field-5, the
    trie finds some element's base images at another element, and the
    build is refused. (Ranks that agree on the image of point 0 change no
    table when swapped: the last table is keyed by each element's own
    image of point 1.)"""
    def swapped(degree, elements, generators, chain):
        levels, position = chain
        position = position.copy()
        position[[0, -1]] = position[[-1, 0]]
        return PermGroup(degree, elements, generators, (levels, position))

    monkeypatch.setattr(permgroup, "PermGroup", swapped)
    with pytest.raises(ValueError, match="duplicate elements"):
        affine_group(make_field(5))


@pytest.mark.parametrize("doc, residues, levels", [
    (S3_ON_POINTS_2_TO_4_DOC, [([0, 1, 2, 4, 3], 3)], [(2, 3), (3, 2)]),
    (SYM4_DOC, [([0, 3, 1, 2], 1), ([0, 1, 3, 2], 2)], [(0, 4), (1, 3), (2, 2)]),
    (BETWEEN_LEVELS_DOC, [([0, 2, 1, 3], 1)], [(0, 4), (1, 3), (2, 2)]),
], ids=["s3-on-points-2-to-4", "sym4", "base-point-between-levels"])
def test_residues_extend_the_chain_at_the_least_point_they_move(doc, residues, levels,
                                                                monkeypatch):
    """Each residue the proof finds, with the least point it moves, and the
    levels (point, orbit size) it leaves. The generators of S3 on points
    2..4 move 2 first, and the residue (3 4) makes a level at 3; S4 grows a
    level at 1 and then one at 2; the generators (2 3) and (0 1 2 3) make
    levels at 0 and 2, and the residue (1 2) makes one between them."""
    found = []
    first_residue = permgroup._first_residue

    def spy(*args):
        refuted = first_residue(*args)
        if refuted is not None:
            found.append((refuted[1].tolist(), refuted[2]))
        return refuted

    monkeypatch.setattr(permgroup, "_first_residue", spy)
    chain = permgroup._stabilizer_chain(np.array(doc["generators"], dtype=np.int32),
                                        max_group_order())
    assert found == residues
    assert [(point, len(rows)) for point, _, rows, _ in chain] == levels


def point_orbit_oracle(perms, point):
    """The orbit of point under the rows perms, by a pure-Python search."""
    seen, todo = {point}, [point]
    while todo:
        x = todo.pop()
        for s in perms:
            if int(s[x]) not in seen:
                seen.add(int(s[x]))
                todo.append(int(s[x]))
    return seen


def test_point_orbits_match_a_search_on_points():
    """The Schreier tree of every point under random sets of 0..3 rows of
    degree 1..40, dense (random permutations) and sparse (one cycle on a
    random subset each), holds the orbit a search on points finds, in
    ascending order, and a row per orbit point that sends the point there;
    it has one tree edge per point but the root, and along each, the
    parent's row then the generator is the child's row. A 1,000-cycle's
    orbit of 0 is every point, its rows the powers of the cycle."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        degree, m = int(rng.integers(1, 41)), int(rng.integers(0, 4))
        perms = np.tile(np.arange(degree, dtype=np.int32), (m, 1))
        for s in perms:
            if rng.random() < 0.5:
                s[:] = rng.permutation(degree)
            else:
                cycle = rng.choice(degree, int(rng.integers(1, degree + 1)), replace=False)
                s[cycle] = np.roll(cycle, 1)
        for point in range(degree):
            (_, offset, rows, _), tree = permgroup._schreier_tree(point, perms)
            orbit = np.flatnonzero(offset >= 0)
            assert set(orbit.tolist()) == point_orbit_oracle(perms, point)
            assert np.array_equal(rows[:, point], orbit)
            assert (np.sort(rows, axis=1) == np.arange(degree)).all()
            assert np.count_nonzero(tree) == len(orbit) - 1
            for s, i in zip(*np.divmod(np.flatnonzero(tree), len(orbit))):
                child = offset[perms[s][orbit[i]]] // degree
                assert np.array_equal(perms[s][rows[i]], rows[child])
    cycle = np.roll(np.arange(1000, dtype=np.int32), -1)[None]
    (_, offset, rows, _), _ = permgroup._schreier_tree(0, cycle)
    assert (offset >= 0).all()
    assert np.array_equal(rows, (np.arange(1000)[:, None] + np.arange(1000)) % 1000)


def test_prefix_words_are_exact_past_int64(c2_15_doc):
    """The lexicographic index of the chain of (C2)^15, whose 15 base images
    of radix 30 pass any int64 word (30^15 > 2^63), numbers its 32,768
    elements 0..32,767 in the order of their base images as tuples."""
    gens = np.array(c2_15_doc["generators"], dtype=np.int32)
    lex, images = permgroup._lex_index(permgroup._stabilizer_chain(gens, max_group_order()))
    tuples = [tuple(row) for row in np.stack(np.broadcast_arrays(*images), axis=-1)
              .reshape(len(lex), -1).tolist()]
    assert sorted(lex.tolist()) == list(range(2**15))
    assert [tuples[i] for i in np.argsort(lex)] == sorted(tuples)


def test_orbit_search_holds_the_element_array_once(dickson_121_relabelled_doc):
    """The parse writes each row once, at its final position, into one
    array of the final size, so its traced peak is the element array
    (14,520 rows of 121 points: 1.7 MiB of uint8 cells) plus under 5 MiB of
    chain, index and successor tables and of the constructor's tables;
    keeping every layer of int32 rows and concatenating them at the end
    peaked at 14.3 MiB."""
    tracemalloc.start()
    try:
        G = parse_group_doc(dickson_121_relabelled_doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 14520
    assert peak < G.order * G.degree + 5 * 2**20


def test_a_long_cycle_parses_within_its_chain_and_cells():
    """The 1,000-cycle has one level of 1,000 transversal rows and their
    inverses (7.6 MiB of int32) and 1.9 MiB of uint16 cells. The Schreier
    tree gathers its new rows, and the level scatters its inverse rows, in
    chunks of their int64 index, and the constructor keeps the proved chain
    rather than finding a second one in the rows, so the traced parse peak
    stays within 17.4 MiB; a full-size index and a second chain took it to
    23.2 MiB."""
    tracemalloc.start()
    try:
        G = parse_group_doc(CYCLE_1000_DOC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 1000 and G.base == [0]
    assert peak <= 17.4 * 2**20


def test_constructor_inverts_through_transversals_below_one_cell_per_element():
    """The constructor finds each inverse by sifting the element's base
    images through the transversals of its base -- per base level, a row
    and its inverse for each point of the orbit -- not by (rows x degree)
    masks: on agl-field-121 its traced peak stays below one full mask of
    14,520 x 121 bools (1.68 MiB). It is handed the group's own uint8
    cells: an int32 array would first be narrowed, a copy of exactly that
    many bytes, and the oracle's chain of them, found before the trace
    starts."""
    G = affine_group(make_field(11, 2))
    cells = G._flat.reshape(G.order, G.degree)
    chain = naive_chain(cells)
    tracemalloc.start()
    try:
        H = PermGroup(G.degree, cells, G.generators, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.order * G.degree
    assert np.array_equal(H.mul(np.arange(H.order), H._inverse),
                          np.full(H.order, H.identity_index))


def test_order_cap_at_the_boundary(monkeypatch):
    """S4 (degree 4, 4 * 3 <= 23) passes the degree rule at both caps, so the
    enumeration meets the order cap."""
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "24")
    assert parse_group_doc(SYM4_DOC).order == 24
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "23")
    with pytest.raises(OrderCapExceeded, match="group order exceeds cap 23"):
        parse_group_doc(SYM4_DOC)


def test_order_cap(monkeypatch):
    # S5 has order 120
    doc = {"degree": 5, "generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded):
        parse_group_doc(doc)
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "120")
    assert parse_group_doc(doc).order == 120


def test_degree_above_the_order_cap_is_refused(monkeypatch):
    """A certifiable group of degree d has order d(d - 1), so a degree with
    d(d - 1) above the group-order cap is refused before the group is
    enumerated; a degree with d(d - 1) at the cap is still enumerated."""
    monkeypatch.delenv("INVOLQ_ORDER_CAP", raising=False)
    cap = max_group_order()
    assert cap == 10**6
    with pytest.raises(OrderCapExceeded, match=f"degree {cap + 1} exceeds"):
        parse_group_doc({"degree": cap + 1, "generators": []})
    with pytest.raises(OrderCapExceeded, match="degree 1001 exceeds"):
        parse_group_doc({"degree": 1001, "generators": []})  # 1001 * 1000 > 10^6
    assert parse_group_doc({"degree": 1000, "generators": []}).order == 1
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "30")
    for degree in (31, 30, 7):
        with pytest.raises(OrderCapExceeded, match=f"degree {degree} exceeds .* order "
                                                   f"{degree * (degree - 1)}$"):
            parse_group_doc({"degree": degree, "generators": []})
    assert parse_group_doc({"degree": 6, "generators": []}).order == 1


# ---------------------------------------------------------------------------
# composition conventions


def test_compose_convention():
    g = np.array([1, 2, 0], dtype=np.int32)
    h = np.array([1, 0, 2], dtype=np.int32)
    gh = compose(g, h)
    assert tuple(gh) == naive_compose(tuple(g), tuple(h))
    for x in range(3):
        assert gh[x] == h[g[x]]


def test_compose_associative_s3():
    G = parse_group_doc(S3_DOC)
    rows = [tuple(r) for r in G.elements]
    for a in rows:
        for b in rows:
            for c in rows:
                assert naive_compose(naive_compose(a, b), c) == naive_compose(
                    a, naive_compose(b, c)
                )


def test_invert_and_conjugate(agl_f5):
    for i in range(agl_f5.order):
        g = agl_f5.elements[i]
        assert np.array_equal(compose(g, invert(g)), identity_perm(5))
        assert np.array_equal(compose(invert(g), g), identity_perm(5))
    g = agl_f5.elements[3]
    h = agl_f5.elements[7]
    manual = compose(compose(invert(h), g), h)
    assert np.array_equal(conjugate(g, h), manual)


def test_every_element_has_inverse_in_group(agl_f9):
    inv = agl_f9.inv(np.arange(agl_f9.order))
    for i in range(agl_f9.order):
        assert agl_f9.mul(i, int(inv[i])) == agl_f9.identity_index


# ---------------------------------------------------------------------------
# affine groups


def test_affine_f3_is_full_symmetric_group(agl_f3):
    assert agl_f3.order == 6
    assert agl_f3.degree == 3
    assert set(map(tuple, agl_f3.elements)) == set(permutations(range(3)))


def test_affine_f5_order(agl_f5):
    assert agl_f5.order == 20
    assert agl_f5.degree == 5
    # every element is x -> (x*m + a) mod 5 for a unique pair (m, a)
    expected = {
        tuple((x * m + a) % 5 for x in range(5))
        for m in range(1, 5)
        for a in range(5)
    }
    assert set(map(tuple, agl_f5.elements)) == expected


def test_affine_dickson_order(agl_d9):
    assert agl_d9.order == 72
    assert agl_d9.degree == 9


def test_affine_order_formula(agl_f7, agl_f9, agl_d25):
    for G in (agl_f7, agl_f9, agl_d25):
        assert G.order == G.degree * (G.degree - 1)


# ---------------------------------------------------------------------------
# centralizer / conjugacy class / subgroup scans against naive oracles


def naive_centralizer(G, idx):
    g = tuple(G.elements[idx])
    out = []
    for k in range(G.order):
        h = tuple(G.elements[k])
        if naive_compose(h, g) == naive_compose(g, h):
            out.append(k)
    return out


def naive_class(G, idx):
    g = tuple(G.elements[idx])
    seen = set()
    for k in range(G.order):
        h = tuple(G.elements[k])
        hinv = tuple(np.argsort(np.array(h)))
        seen.add(naive_compose(naive_compose(hinv, g), h))
    index = {row.tobytes(): i for i, row in enumerate(G.elements)}
    return sorted(index[np.array(p, dtype=np.int32).tobytes()] for p in seen)


def test_centralizer_of_identity_is_everything(agl_f5):
    cen = centralizer(agl_f5, identity_perm(5))
    assert list(cen) == list(range(20))


def test_centralizer_of_translation_f5(agl_f5):
    shift = np.array([(x + 1) % 5 for x in range(5)], dtype=np.int32)
    cen = centralizer(agl_f5, shift)
    assert len(cen) == 5
    translations = {
        tuple((x + c) % 5 for x in range(5)) for c in range(5)
    }
    assert {tuple(agl_f5.elements[i]) for i in cen} == translations
    assert list(cen) == naive_centralizer(agl_f5, agl_f5.index_of(shift))


def test_centralizer_of_translation_dickson(agl_d9):
    shift = agl_d9.elements[1]  # first non-identity element is a translation
    assert shift[0] != 0 and naive_order(shift) == 3
    assert len(centralizer(agl_d9, shift)) == 9


def test_class_of_identity(agl_f5):
    assert list(conjugacy_class(agl_f5, identity_perm(5))) == [agl_f5.identity_index]


def test_class_sizes_f5(agl_f5):
    negation = np.array([(-x) % 5 for x in range(5)], dtype=np.int32)
    assert len(conjugacy_class(agl_f5, negation)) == 5
    shift = np.array([(x + 1) % 5 for x in range(5)], dtype=np.int32)
    cls = conjugacy_class(agl_f5, shift)
    assert len(cls) == 4
    assert list(cls) == naive_class(agl_f5, agl_f5.index_of(shift))


def test_orbit_stabilizer_identity(agl_f5, agl_f7, agl_d9):
    for G in (agl_f5, agl_f7, agl_d9):
        for i in range(G.order):
            row = G.elements[i]
            assert len(conjugacy_class(G, row)) * len(centralizer(G, row)) == G.order


def is_subgroup(G, idxs):
    """Whether the element indices hold the identity and are closed under
    G.mul, read off one product table built in row chunks."""
    idxs = np.asarray(idxs, dtype=np.int64)
    member = member_mask(G, idxs)
    return bool(member[G.identity_index]) and least_cell_in_chunks(
        lambda lo, hi: ~member[G.mul(idxs[lo:hi, None], idxs)], len(idxs), len(idxs)) is None


def test_is_subgroup(agl_f7, agl_f5):
    translations = [
        agl_f7.index_of(np.array([(x + c) % 7 for x in range(7)], dtype=np.int32))
        for c in range(7)
    ]
    assert is_subgroup(agl_f7, translations)
    assert is_subgroup(agl_f5, [agl_f5.identity_index])
    involutions = [
        agl_f5.index_of(np.array([(b - x) % 5 for x in range(5)], dtype=np.int32))
        for b in range(5)
    ]
    assert not is_subgroup(agl_f5, involutions)  # identity missing
    shift = agl_f5.index_of(np.array([(x + 1) % 5 for x in range(5)], dtype=np.int32))
    assert not is_subgroup(agl_f5, [agl_f5.identity_index, shift])  # not product-closed
    assert not is_subgroup(agl_f5, [])


def naive_is_subgroup(G, idxs):
    rows = {tuple(G.elements[i]) for i in idxs}
    return (tuple(range(G.degree)) in rows
            and all(naive_compose(a, b) in rows for a in rows for b in rows))


@pytest.mark.parametrize("chunk_cells", [reporting.CHUNK_CELLS, 1])
def test_is_subgroup_matches_the_naive_closure(sym4, agl_d9, chunk_cells, monkeypatch):
    """Centralizers and classes with the identity added, in one chunk and one
    row of the product table per chunk."""
    monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
    verdicts = set()
    for G in (sym4, agl_d9):
        for i in range(0, G.order, 3):
            for idxs in (centralizer(G, i).tolist(),
                         [G.identity_index, *conjugacy_class(G, i).tolist()]):
                verdict = is_subgroup(G, idxs)
                assert verdict == naive_is_subgroup(G, idxs), (G, i, idxs)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def fresh(G):
    """The same group with an empty centralizer cache (the fixtures share
    theirs), built on the oracle's chain of its rows."""
    return PermGroup(G.degree, G.elements, G.generators, naive_chain(G.elements))


def counted_scans(monkeypatch):
    """Record the element of every full centralizer scan."""
    scans = []
    scan = permgroup._centralizer_scan
    monkeypatch.setattr(permgroup, "_centralizer_scan",
                        lambda G, gi: scans.append(gi) or scan(G, gi))
    return scans


@pytest.mark.parametrize("name", ["agl_f5", "agl_f7", "agl_d9", "d9_relabelled", "sym4"])
def test_one_scan_fills_the_class(name, request, monkeypatch):
    """A miss scans once and caches the centralizer of every member of the
    class, each equal to the naive loop's and read-only; so the full scans
    number the classes. sym4 is not sharply 2-transitive and has five."""
    G = fresh(request.getfixturevalue(name))
    scans = counted_scans(monkeypatch)
    classes = []
    for i in range(G.order):
        if i in G._centralizer_cache:
            continue
        cls = naive_class(G, i)
        assert not set(cls) & set(G._centralizer_cache)
        assert list(centralizer(G, i)) == naive_centralizer(G, i)
        classes.append(cls)
        for c in cls:
            cen = G._centralizer_cache[c]
            assert cen.dtype == np.int64 and not cen.flags.writeable
            assert list(cen) == naive_centralizer(G, c), (c, i)
        with pytest.raises(ValueError):
            G._centralizer_cache[cls[-1]][0] = 0
    assert scans == [cls[0] for cls in classes]
    assert sorted(G._centralizer_cache) == list(range(G.order))
    if name == "sym4":
        assert len(classes) == 5


def test_a_miss_keeps_cached_entries_of_its_class(agl_d9, monkeypatch):
    """An entry put in the cache by hand survives a later miss in its class;
    the other members are filled, and a hit scans nothing."""
    G = fresh(agl_d9)
    scans = counted_scans(monkeypatch)
    shift = G.elements[1]
    cls = naive_class(G, 1)
    kept = np.array([G.identity_index], dtype=np.int64)
    G._centralizer_cache[cls[-1]] = kept
    assert list(centralizer(G, shift)) == naive_centralizer(G, 1)
    assert G._centralizer_cache[cls[-1]] is kept
    assert all(list(G._centralizer_cache[c]) == naive_centralizer(G, c) for c in cls[:-1])
    assert centralizer(G, cls[-1]) is kept
    assert scans == [1]


NOT_INTEGERS = [True, 0.5, "0"]


@pytest.mark.parametrize("index", NOT_INTEGERS)
def test_centralizer_refuses_indices_that_are_not_integers(agl_f5, index):
    with pytest.raises(NotAMember):
        centralizer(agl_f5, index)
    assert np.array_equal(centralizer(agl_f5, np.int32(1)), centralizer(agl_f5, 1))


@pytest.mark.parametrize("scan", [centralizer, conjugacy_class])
def test_scans_refuse_a_stack_of_rows(agl_f5, scan):
    """A stack of rows looked up an index array: centralizer raised
    TypeError (an unhashable cache key) and conjugacy_class a broadcasting
    ValueError. One row is still an element."""
    for stack in (agl_f5.elements[:2], agl_f5.elements[None, :2], agl_f5.elements[:1]):
        with pytest.raises(NotAMember, match="an index or one row"):
            scan(agl_f5, stack)
    assert np.array_equal(scan(agl_f5, agl_f5.elements[3]), scan(agl_f5, 3))


@pytest.mark.parametrize("index", NOT_INTEGERS)
def test_conjugacy_class_refuses_indices_that_are_not_integers(agl_f5, index):
    with pytest.raises(NotAMember):
        conjugacy_class(agl_f5, index)
    assert np.array_equal(conjugacy_class(agl_f5, np.int64(1)), conjugacy_class(agl_f5, 1))


def test_scans_refuse_element_indices_out_of_range(agl_f5):
    for scan in (centralizer, conjugacy_class):
        for index in (-1, agl_f5.order):
            with pytest.raises(NotAMember, match=f"^no element with index {index}$"):
                scan(agl_f5, index)


@pytest.mark.parametrize("name", ["agl_f5", "agl_d9", "d9_relabelled", "sym4"])
def test_rows_and_columns_read_the_element_array(name, request):
    G = request.getfixturevalue(name)
    assert np.array_equal(G.rows(np.arange(G.order)), G.elements)
    assert np.array_equal(G.rows(slice(2, 5)), G.elements[2:5])
    assert np.array_equal(G.rows(G.elements[:, 0] == 0), G.elements[G.elements[:, 0] == 0])
    for point in range(G.degree):
        assert np.array_equal(G.column(point), G.elements[:, point])
    # the reads are read-only, like the elements
    assert not G.rows(3).flags.writeable and not G.column(1).flags.writeable


class _Poisoned:
    """Stands in for ``G.elements`` after construction: any read raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the element array was read after construction")

    __getattribute__ = __getitem__ = __len__ = __iter__ = __array__ = _refuse
    __eq__ = __ne__ = __bool__ = __index__ = __int__ = _refuse


def test_nothing_reads_the_element_array_after_construction(monkeypatch):
    """With ``G.elements`` replaced after construction by an object that
    raises on any access, every stage gives the same output: only the
    group's own reads (images, rows, column) touch the elements."""
    from involq.catalog import run_catalog
    from involq.pipeline import census_target, recover_target, verify_group

    doc = str(Path(__file__).parent / "data" / "dickson-9-relabelled.json")
    entries = run_catalog(31)
    assert {"agl-field-4", "sym4-fixture"} <= {entry.id for entry in entries}

    def outputs():
        reports = [verify_group(build_entry(entry), entry) for entry in entries]
        return json.dumps([reports, recover_target(doc), census_target(doc)], sort_keys=True)

    expected = outputs()
    init = PermGroup.__init__

    def poisoned_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.elements = _Poisoned()

    monkeypatch.setattr(PermGroup, "__init__", poisoned_init)
    assert outputs() == expected


def test_index_of_rejects_outsiders(agl_f5):
    with pytest.raises(NotAMember):
        agl_f5.index_of(np.array([2, 1, 0, 3, 4], dtype=np.int32))  # a transposition
    for bad in (np.arange(4), np.int32(3), np.zeros((2, 6), dtype=np.int32)):
        with pytest.raises(NotAMember, match="degree mismatch"):
            agl_f5.index_of(bad)


def test_as_perm_refuses_non_integers_and_stacks():
    with pytest.raises(MalformedDocument, match="images must be integers"):
        as_perm([1.0, 0.0])
    with pytest.raises(NotABijection, match="flat image sequence"):
        as_perm([[1, 0], [0, 1]])
    assert as_perm([1, 2, 0]).dtype == np.int32


def test_constructor_refuses_duplicates_and_a_missing_identity():
    cycle = np.array([[1, 2, 0], [2, 0, 1]], dtype=np.int32)
    with pytest.raises(ValueError, match="duplicate elements"):
        PermGroup(3, cycle[[0, 0]], cycle[:1], naive_chain(cycle[[0, 0]]))
    with pytest.raises(ValueError, match="identity missing"):
        PermGroup(3, cycle, cycle[:1], naive_chain(cycle))


def test_repr(agl_f5, sym4):
    assert repr(agl_f5) == "PermGroup(degree=5, order=20)"
    assert repr(sym4) == "PermGroup(degree=4, order=24)"


def test_index_of_confirms_every_row_of_a_long_stack(monkeypatch):
    """A stack longer than one comparison chunk (about 2**18 cells by
    default, or one row per chunk) is confirmed row by row: the outsider in
    its last chunk is named, and an empty stack keeps its shape."""
    import re

    G = affine_group(make_field(67, 1))
    assert G.order * G.degree > reporting.CHUNK_CELLS
    for chunk_cells in (reporting.CHUNK_CELLS, 1):
        monkeypatch.setattr(reporting, "CHUNK_CELLS", chunk_cells)
        rows = G.elements[::-1].copy()
        assert np.array_equal(G.index_of(rows), np.arange(G.order)[::-1])
        rows[-2, [5, 6]] = rows[-2, [6, 5]]  # same base images (0, 1), not an element
        with pytest.raises(NotAMember,
                           match=re.escape(f"{rows[-2].tolist()} is not an element")):
            G.index_of(rows)
        assert G.index_of(rows[:0]).shape == (0,)
        assert G.index_of(np.zeros((2, 0, G.degree), dtype=np.int32)).shape == (2, 0)


def test_distinct_matches_np_unique():
    from involq.permgroup import distinct

    rng = np.random.default_rng(0)
    for shape in [(0,), (1,), (9,), (200,), (7, 9)]:
        values = rng.integers(0, 12, shape)
        assert np.array_equal(distinct(values), np.unique(values))


def test_verification_never_imports_numpy_ma():
    """np.unique's first use imports numpy.ma (about 1 MB resident); the
    stages and the ingest commands reach their sets through distinct."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from involq import pipeline, catalog\n"
        "for eid in ('agl-field-7', 'agl-dickson-3-2', 'agl-field-4', 'sym4-fixture'):\n"
        "    pipeline.verify_group(catalog.build_entry(catalog.find_entry(eid)))\n"
        "pipeline.recover_target('tests/data/dickson-9-relabelled.json')\n"
        "pipeline.census_target('tests/data/dickson-9-relabelled.json')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                         text=True, env={"PYTHONPATH": str(root / "src")}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_ingest_of_a_degree_121_document_never_imports_numpy_ma(
        dickson_121_relabelled_doc, tmp_path, src_env):
    """At degree 121 np.isin would sort, through np.unique, and import
    numpy.ma (about 14 ms) in every fresh ingest process: the split test and
    the census read membership masks instead."""
    import subprocess
    import sys

    doc = tmp_path / "d121.json"
    doc.write_text(json.dumps(dickson_121_relabelled_doc))
    script = (
        "import sys\n"
        "from involq import pipeline\n"
        f"pipeline.recover_target({str(doc)!r})\n"
        f"pipeline.census_target({str(doc)!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=src_env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_affine_needs_valid_nearfield():
    from involq import NearField, AxiomFailure

    f5 = make_field(5, 1)
    mul = f5.mul.copy()
    mul[2, 3] = 4
    broken = NearField(5, "field(5,1)", f5.add, mul)
    with pytest.raises(AxiomFailure,
                       match=r"^field\(5,1\) fails axiom left-distributivity at \(2, 1, 2\)$"):
        affine_group(broken)


def test_bfs_ingestion_matches_direct_affine_construction(agl_f5):
    """Enumerating from generator documents and building affine maps directly
    give the same permutation set (element order may differ)."""
    doc = {"degree": 5, "generators": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]]}
    H = parse_group_doc(doc)
    assert H.order == agl_f5.order
    assert set(map(tuple, H.elements)) == set(map(tuple, agl_f5.elements))


# ---------------------------------------------------------------------------
# element storage: narrow cells, int32 reads


def _one_cycle_doc(degree):
    return {"degree": degree, "generators": [list(range(1, degree)) + [0]]}


@pytest.mark.parametrize("degree, cells", [(256, np.uint8), (257, np.uint16)])
def test_cells_are_the_narrowest_unsigned_type_for_the_degree(degree, cells):
    """Up to degree 256 every point fits one byte; the accessors and
    ``elements`` still give int32, and ``elements`` is read-only and equal to
    the rows."""
    G = parse_group_doc(_one_cycle_doc(degree))
    assert G.order == degree and G._flat.dtype == cells
    every = np.arange(G.order)
    rows = G.rows(every)
    reads = [rows, G.rows(slice(None)), G.rows(3), G.column(degree - 1),
             G.images(every[:, None], np.arange(degree)), G.elements]
    assert all(read.dtype == np.int32 for read in reads)
    assert np.array_equal(G.images(every[:, None], np.arange(degree)), rows)
    assert np.array_equal(G.elements, rows) and not G.elements.flags.writeable
    assert G.elements is G.elements  # built once
    assert rows[1].tolist() == list(range(1, degree)) + [0]


def test_cell_type_at_the_two_byte_boundary():
    """Degrees 65,536 and 65,537, without building a group."""
    assert permgroup._cell_type(2) == np.uint8
    assert permgroup._cell_type(256) == np.uint8
    assert permgroup._cell_type(65536) == np.uint16
    assert permgroup._cell_type(65537) == np.uint32


def test_constructor_refuses_images_that_do_not_fit_the_cells():
    """An int32 array is narrowed to the cells only when every image is a
    point: 256 would otherwise wrap to 0 in a group of degree 256. The
    range is checked before the chain is read, so the bad rows come with
    the chain of the good ones."""
    rows = np.array([np.arange(256), np.roll(np.arange(256), 1)], dtype=np.int32)
    bad = rows.copy()
    bad[1, 0] = 256
    with pytest.raises(ValueError, match=r"element images must lie in 0\.\.255"):
        PermGroup(256, bad, rows[1:], naive_chain(rows))
    assert PermGroup(256, rows, rows[1:], naive_chain(rows))._flat.dtype == np.uint8


def test_constructor_takes_ownership_of_arrays_it_stores_as_they_are():
    """Cells of the cell type and int32 generators are stored without a copy
    and frozen in the caller's hands; an array that must be converted is
    copied and left as the caller had it."""
    cells = np.array([np.roll(np.arange(5), k) for k in range(5)], dtype=np.uint8)
    gens = cells[1:2].astype(np.int32)
    G = PermGroup(5, cells, gens, naive_chain(cells))
    assert np.shares_memory(G._flat, cells) and not cells.flags.writeable
    assert G.generators is gens and not gens.flags.writeable
    wide = cells.astype(np.int64)
    G = PermGroup(5, wide, wide[1:2], naive_chain(wide))
    assert not np.shares_memory(G._flat, wide) and wide.flags.writeable
    assert G.order == 5 and np.array_equal(G.rows(slice(None)), wide)


def test_building_a_degree_121_group_stays_below_twice_its_cells(dickson_121_relabelled_doc):
    """affine_group and the orbit search fill uint8 cells directly, and the
    gathers that fill and check them are chunked by the bytes of their
    intp index, so neither build ever holds an int32 (order x degree) array:
    both stay below 2 x 14,520 x 121 bytes traced (3.4 MiB). With int32
    cells they peaked at 7.9 MiB (affine_group) and 11.4 MiB (the document)."""
    nf = make_field(11, 2)
    order, degree = 14520, 121
    for build in (lambda: affine_group(nf), lambda: parse_group_doc(dickson_121_relabelled_doc)):
        tracemalloc.start()
        try:
            G = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (G.order, G.degree) == (order, degree)
        assert peak < 2 * order * degree
