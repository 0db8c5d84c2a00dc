"""The base-image index against whole-row reference arithmetic.

Every group primitive (mul, inv, conj, index_of, centralizer) is compared with
compose / invert / conjugate on full rows plus a test-local dict from row
bytes to element index, a lookup that never consults the base. Small groups
are checked on every pair, the 32768-element group (C2)^15 (a base of 15
points) on a seeded sample. Rows outside the group, out-of-range images
among them, must raise NotAMember, and the dense tables must stay within
one element array.

The trie is filled once, each table at its final size, from the chain of the
base: the chain a document's parse proved, or the one the constructor finds
in the rows. It answers every lookup as a dict of the base images does,
gives -1 for keys no element has, and holds exactly one row per class of
base images plus the absent row.
"""

import numpy as np
import pytest

from involq import (
    NotAMember,
    affine_group,
    centralizer,
    certify_sharply_2_transitive,
    compose,
    conjugacy_class,
    conjugate,
    invert,
    make_field,
    parse_group_doc,
)
from involq import permgroup
from involq.catalog import build_entry, run_catalog

CATALOG_31 = {entry.id: entry for entry in run_catalog(31)}


def relabelled_doc(G, seed):
    """G's generators conjugated by a seeded relabelling of the points."""
    rng = np.random.default_rng(seed)
    h = rng.permutation(G.degree).astype(np.int32)
    return {
        "degree": G.degree,
        "generators": [conjugate(g, h).tolist() for g in G.generators],
    }


@pytest.fixture(scope="module")
def agl_f9_relabelled(agl_f9):
    return parse_group_doc(relabelled_doc(agl_f9, seed=3))


@pytest.fixture(scope="module")
def c2_15(c2_15_doc):
    return parse_group_doc(c2_15_doc)


@pytest.fixture(scope="module")
def c2_10(c2_10_doc):
    return parse_group_doc(c2_10_doc)


@pytest.fixture(scope="module")
def s3_on_points_2_to_4():
    return parse_group_doc({"degree": 5, "generators": [[0, 1, 3, 4, 2], [0, 1, 3, 2, 4]]})


@pytest.fixture(scope="module")
def s3():
    return parse_group_doc({"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]})


@pytest.fixture(scope="module")
def degree_2():
    return parse_group_doc({"degree": 2, "generators": [[1, 0]]})


@pytest.fixture(scope="module")
def trivial():
    return parse_group_doc({"degree": 3, "generators": []})


def row_index(G):
    return {row.tobytes(): i for i, row in enumerate(G.elements)}


def check_pairs(G, a, b):
    """mul, conj on the index pairs (a[k], b[k]) and inv on a, against rows."""
    index = row_index(G)
    E = G.elements
    got_mul = G.mul(a, b)
    got_conj = G.conj(a, b)
    got_inv = G.inv(a)
    for k in range(len(a)):
        x, y = E[a[k]], E[b[k]]
        assert got_mul[k] == index[compose(x, y).tobytes()]
        assert got_conj[k] == index[conjugate(x, y).tobytes()]
        assert got_inv[k] == index[invert(x).tobytes()]


def row_arithmetic(G, a, b):
    """mul and conj of the index arrays a, b (broadcast) and inv of a, each
    from whole rows by compose / conjugate / invert, looked up by index_of."""
    E = G.elements
    a, b = np.asarray(a), np.asarray(b)
    pairs = np.broadcast_shapes(a.shape, b.shape)
    mul, conj = np.zeros(pairs, dtype=np.int64), np.zeros(pairs, dtype=np.int64)
    for at in np.ndindex(pairs):
        x, y = E[np.broadcast_to(a, pairs)[at]], E[np.broadcast_to(b, pairs)[at]]
        mul[at] = G.index_of(compose(x, y))
        conj[at] = G.index_of(conjugate(x, y))
    inv = np.zeros(a.shape, dtype=np.int64)
    for at in np.ndindex(a.shape):
        inv[at] = G.index_of(invert(E[a[at]]))
    return mul, conj, inv


def check_non_member_on_base(G):
    """A row equal to the identity on the base but not a member is refused."""
    off_base = [p for p in range(G.degree) if p not in G.base]
    row = np.arange(G.degree, dtype=np.int32)
    row[off_base[0]], row[off_base[1]] = off_base[1], off_base[0]
    assert not any(np.array_equal(row, e) for e in G.elements)
    with pytest.raises(NotAMember):
        G.index_of(row)
    assert not G.contains(row)


@pytest.mark.parametrize("name", ["agl_f5", "agl_d9", "sym4", "agl_f9_relabelled"])
def test_small_groups_every_pair(name, request):
    G = request.getfixturevalue(name)
    assert G.base == ([0, 1, 2] if name == "sym4" else [0, 1])
    ar = np.arange(G.order)
    a, b = np.repeat(ar, G.order), np.tile(ar, G.order)
    check_pairs(G, a, b)
    # broadcasting gives the same table as the flat pairs
    assert np.array_equal(G.mul(ar[:, None], ar[None, :]).ravel(), G.mul(a, b))
    assert np.array_equal(G.conj(ar[:, None], ar[None, :]).ravel(), G.conj(a, b))

    index = row_index(G)
    for i, row in enumerate(G.elements):
        assert G.index_of(row) == i == index[row.tobytes()]
        naive = [h for h in range(G.order)
                 if np.array_equal(compose(G.elements[h], row), compose(row, G.elements[h]))]
        assert list(centralizer(G, row)) == naive
        assert list(centralizer(G, i)) == naive  # the same scan given the index
    assert np.array_equal(G.index_of(G.elements), ar)
    for outside in (-1, G.order):
        with pytest.raises(NotAMember):
            centralizer(G, outside)
    if name != "sym4":  # S4 holds every permutation of its 4 points
        check_non_member_on_base(G)


@pytest.mark.parametrize("name", ["agl_f5", "agl_d9", "d9_relabelled", "sym4", "s3",
                                  "degree_2", "trivial", "s3_on_points_2_to_4", "c2_10",
                                  *CATALOG_31])
def test_primitives_match_row_arithmetic(name, request):
    """mul, conj and inv on a scalar pair, on 1-D arrays, broadcast (n, 1) x
    (1, m) and on empty arrays give int64 indices of the shape the indices
    broadcast to, equal to whole-row arithmetic, and images reads the rows;
    sym4 has a 3-point base, the trivial group a 1-point one, S3 on points
    2..4 the base (2, 3) and (C2)^10 a 10-point one. inv, found through the
    transversals of the base, also meets its definition on every element:
    a^-1(b) is the position of b in row a. The catalog entries of degree
    <= 31 are built as the catalog builds them."""
    G = build_entry(CATALOG_31[name]) if name in CATALOG_31 else request.getfixturevalue(name)
    assert np.array_equal(G.inv(np.arange(G.order)),
                          G._locate([np.argmax(G.elements == b, axis=1) for b in G.base]))
    rng = np.random.default_rng(G.order)
    every = np.arange(G.order)
    sample = rng.integers(0, G.order, 7)
    empty = np.empty(0, dtype=np.int64)
    for a, b in [(int(sample[0]), int(sample[1])),
                 (every, rng.permutation(G.order)),
                 (sample[:, None], every[None, :]),
                 (empty, empty),
                 (empty[:, None], sample[None, :])]:
        for got, want in zip((G.mul(a, b), G.conj(a, b), G.inv(a)), row_arithmetic(G, a, b)):
            got = np.asarray(got)
            assert got.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(G.images(np.asarray(a)[..., None], np.arange(G.degree)),
                              G.elements[a])


@pytest.mark.parametrize("name", ["d9_relabelled", "sym4"])
def test_conjugators_match_a_naive_loop(name, request):
    """For every g: the class of g in enumeration order, and beside each
    member c the least h with h^-1 g h = c, from a loop over whole rows. On
    the relabelled Dickson group the two passes its certificate keeps (of
    J[0] and of the first nontrivial translation), whose conjugates are
    gathered from the fixed points of J, are checked too: on a fresh parse
    of the document, whose class cache no other scan has filled."""
    G = request.getfixturevalue(name)
    kept = {}
    if name == "d9_relabelled":
        H = parse_group_doc(request.getfixturevalue("d9_relabelled_doc"))
        assert certify_sharply_2_transitive(H).valid
        kept = H._class_cache
        assert len(kept) == 2
    index = row_index(G)
    for g in range(G.order):
        least = {}
        for h in range(G.order):  # ascending, so the first h to reach c is the least
            least.setdefault(index[conjugate(G.elements[g], G.elements[h]).tobytes()], h)
        members = sorted(least)
        for cls, conjugators in [permgroup._conjugators(G, g)] + ([kept[g]] if g in kept else []):
            assert cls.tolist() == members
            assert conjugators.tolist() == [least[c] for c in members]
        assert conjugacy_class(G, g).tolist() == members


def test_c2_power_sampled(c2_15):
    G = c2_15
    assert G.order == 32768
    assert G.base == list(range(0, 30, 2))
    rng = np.random.default_rng(11)
    a = rng.integers(0, G.order, 2000)
    b = rng.integers(0, G.order, 2000)
    check_pairs(G, a, b)
    index = row_index(G)
    for i in a[:200]:
        assert G.index_of(G.elements[i]) == i == index[G.elements[i].tobytes()]
    for i in a[:3]:
        assert list(centralizer(G, G.elements[i])) == list(range(G.order))  # abelian
    check_non_member_on_base(G)


@pytest.mark.parametrize("bad", ["degree", 200, -1])
@pytest.mark.parametrize("name", ["agl_f7", "sym4", "c2_15"])
def test_out_of_range_images_are_not_members(name, bad, request):
    G = request.getfixturevalue(name)
    bad = G.degree if bad == "degree" else bad
    for point in G.base[:2]:
        row = np.arange(G.degree)
        row[point] = bad
        with pytest.raises(NotAMember):
            G.index_of(row)
        assert not G.contains(row)
        with pytest.raises(NotAMember):
            G.index_of(np.stack([G.elements[0], row]))
        assert not G.contains(np.stack([G.elements[0], row]))


@pytest.mark.parametrize("row", [[7, 8, 2, 3, 4, 5, 6], np.arange(7, dtype=float)],
                         ids=["two-out-of-range", "float-identity"])
def test_rows_no_table_can_take_are_not_members(agl_f7, row):
    with pytest.raises(NotAMember):
        agl_f7.index_of(row)
    assert not agl_f7.contains(row)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint64])
def test_rows_of_any_integer_type_are_found(dtype):
    """Degree 121: the root offset plus an image passes 127, so rows read as
    int8 would wrap if looked up in their own type; uint64 rows would turn
    float. Every row of every integer type is found at its index."""
    G = affine_group(make_field(11, 2))
    at = np.arange(0, G.order, 97)
    rows = G.elements[at].astype(dtype)
    assert np.array_equal(G.index_of(rows), at)
    assert G.index_of(rows[-1]) == at[-1]


@pytest.mark.parametrize("name", ["agl_f7", "sym4", "c2_15"])
def test_base_images_no_element_has_reach_the_sentinel(name, request):
    """In-range images that no element has on the base: the lookup leaves the
    inserted keys and gives -1, and the full-row check refuses the row."""
    G = request.getfixturevalue(name)
    row = np.arange(G.degree)
    if name == "c2_15":  # every element sends point 0 to 0 or 1
        row[0], row[4] = 4, 0
    else:  # every element keeps base points 0 and 1 apart
        row[1] = 0
    assert G._locate(row[G.base]) == -1
    with pytest.raises(NotAMember):
        G.index_of(row)
    assert not G.contains(row)


@pytest.mark.parametrize("name", ["agl_f5", "sym4", "agl_d9", "c2_15"])
def test_tables_fit_in_one_element_array(name, request):
    G = request.getfixturevalue(name)
    sizes = [t.size for t in G._trie.tables]
    assert len(sizes) == len(G.base)
    assert sum(sizes) <= (G.order + len(G.base)) * G.degree
    classes = [size // G.degree - 1 for size in sizes]  # classes before each level
    assert classes[0] == 1
    assert all(later >= 2 * earlier for earlier, later in zip(classes, classes[1:]))
    # each table is filled at its final size: one row per class, the
    # product of the orbit sizes before its level, plus the absent row
    orbits = [len(rows) for _, _, rows, _ in G._levels]
    assert classes == [int(np.prod(orbits[:j])) for j in range(len(orbits))]


def distinct_prefixes(G, j):
    """The number of distinct images of base points 0..j-1 among the
    elements: one, the empty prefix, for j = 0."""
    return len(set(zip(*[column.tolist() for column in G._columns[:j]]))) if j else 1


@pytest.mark.parametrize("doc", ["c2_15_doc", "dickson_121_relabelled_doc"])
def test_search_tables_fit_in_twice_their_rows(doc, request, monkeypatch):
    """A parse builds one trie, the group's own: the search runs on the
    lexicographic index of the chain on points, and keys nothing. Each table
    holds exactly its rows, one per distinct prefix of the elements' base
    images before its level plus the absent row, well inside twice them, and
    the trie answers each element's base images with its index."""
    doc, tries = request.getfixturevalue(doc), []

    class Recorded(permgroup._Trie):
        def __init__(self, *args):
            super().__init__(*args)
            tries.append(self)

    monkeypatch.setattr(permgroup, "_Trie", Recorded)
    G = parse_group_doc(doc)
    assert tries == [G._trie]
    for j, table in enumerate(G._trie.tables):
        assert table.size == (distinct_prefixes(G, j) + 1) * G.degree
    assert np.array_equal(G._trie.lookup(G._columns), np.arange(G.order))


@pytest.mark.parametrize("name", ["agl_f9_relabelled", "sym4", "c2_15", "trivial"])
def test_trie_answers_a_dict_oracle(name, request):
    """The group's trie, filled once from its chain, answers every lookup as
    a dict from each element's base images to its index does: a member's
    images give its index, and images no element has give -1, on the
    members and on 2,000 seeded random probes."""
    G = request.getfixturevalue(name)
    keys = np.stack(G._columns)  # one row of images per base point
    rng = np.random.default_rng(G.order)
    probes = np.concatenate([keys, rng.integers(0, G.degree, (len(G.base), 2000))], axis=1)
    index = {tuple(key): i for i, key in enumerate(keys.T.tolist())}
    want = [index.get(tuple(key), -1) for key in probes.T.tolist()]
    assert want.count(-1) > 100
    assert G._trie.lookup(probes).tolist() == want


def test_trivial_group_lookups():
    G = parse_group_doc({"degree": 4, "generators": []})
    assert G.order == 1 and G.base == [0]
    zeros = np.zeros(3, dtype=np.int64)
    assert np.array_equal(G.mul(zeros, zeros), zeros)
    assert np.array_equal(G.conj(zeros, zeros), zeros)
    assert G.inv(0) == 0 and G.index_of(np.arange(4)) == 0
    assert not G.contains([1, 0, 2, 3])
