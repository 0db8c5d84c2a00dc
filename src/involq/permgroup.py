"""Fully enumerated finite permutation groups.

A permutation of degree d is a 1-D int32 numpy array of images on the points
0..d-1. The fixed composition convention everywhere in this package is
"g then h":

    compose(g, h)(x) == h(g(x))        conjugate(g, h) == h^-1 g h

A :class:`PermGroup` stores every element as a row of a single (order, degree)
array and addresses elements by their row index. Its cells are the narrowest
unsigned type that holds a point: uint8 up to degree 256, uint16 up to
65,536, uint32 above, so a quarter of int32's bytes up to degree 256.
Once built, the group reads them through three methods only -- ``images`` (a
1-D gather), ``rows`` (whole rows) and ``column`` (one point's images over
every element) -- which return int32, so every stage, and every other method,
is blind to how the elements are stored, and no arithmetic sees a narrow
value. A base -- a few points whose images tell every element apart (0 and
1 for a sharply 2-transitive group) -- indexes the rows through a dense trie
(:class:`_Trie`), one table per base point, and the images of each base point
are kept as one contiguous column over the elements. A lookup walks the
tables one base level at a time, reading each level's images with one 1-D
gather from the flattened element array at ``row * degree + point``, the
points taken from a column; so products, inverses, conjugates, membership
tests, centralizers and conjugacy classes are vectorized scans over index
arrays, and no scan indexes the element array in two dimensions. Inverses
are found once, in the constructor, by sifting each element's base images
through the transversals of the base. One centralizer scan serves a whole
class, filled in by conjugation, and a class is read off one conjugation
pass without a sort.
Enumeration order is deterministic: breadth-first from the identity with
generators applied in document order, each new layer sorted in the
lexicographic order of its image sequences. A document's group is found by a
breadth-first search over the orbit of the prefix of points 0..k-1, keyed by
the prefix images through the same kind of trie, one table per prefix point,
so no row is hashed and only new elements get whole rows. Its keys give the
exact basic orbits along the prefix, and its rows a transversal for each;
the rows are proved to be the whole group when every Schreier generator
sifts through those transversals to the identity (a Schreier-Sims
verification). A residue that is not the identity fixes the prefix, which
then grows through the least point the residue moves, and the search
restarts (:func:`_bfs_enumerate`).

Groups enter either through :func:`parse_group_doc` (JSON documents of the
form ``{"degree": d, "generators": [[...], ...]}``, 0-based) or through
:func:`affine_group`, which realizes the maps ``x -> (x mul m) add a`` over a
near-field.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .config import max_group_order
from .errors import (
    AxiomFailure,
    MalformedDocument,
    NotABijection,
    NotAMember,
    OrderCapExceeded,
)
from .nearfield import NearField, _require_axioms
from .reporting import chunk_rows, least_cell_in_chunks

# ---------------------------------------------------------------------------
# single-permutation helpers


def identity_perm(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=np.int32)


def as_perm(images, degree: int | None = None) -> np.ndarray:
    arr = np.asarray(images)
    if arr.dtype.kind not in "iu":
        raise MalformedDocument(f"images must be integers, got {arr.dtype}")
    if arr.ndim != 1:
        raise NotABijection("a permutation must be a flat image sequence")
    d = len(arr) if degree is None else degree
    if len(arr) != d or not np.array_equal(np.sort(arr), np.arange(d)):
        raise NotABijection(f"{arr.tolist()} is not a bijection on 0..{d - 1}")
    return np.ascontiguousarray(arr, dtype=np.int32)


def compose(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g then h: x -> h(g(x))."""
    return h[g]


def invert(g: np.ndarray) -> np.ndarray:
    return np.argsort(g).astype(np.int32)


def conjugate(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h^-1 g h: x -> h(g(h^-1(x)))."""
    return h[g[invert(h)]]


# ---------------------------------------------------------------------------
# the group container


class _Trie:
    """Exact index from image sequences, one image per keyed point, to
    element indices: one dense table per keyed point.

    Table j is indexed by ``offset + image``, where an offset is a row of
    table j premultiplied by ``degree`` and a row stands for a j-point
    prefix of the keys inserted. Row 0 of every table is the absent node,
    the prefixes no key has; the root, the empty prefix, is row 1 of table
    0. A table before the last holds the offset of each (j + 1)-point prefix
    in the next table, 0 for an absent one; the last table holds element
    indices, and -1 for keys no element has. So a lookup that leaves the
    inserted prefixes stays in the absent rows and returns -1, and each
    level is one add and one gather. Offsets are chained rows, never
    products of powers of the degree, so keys are exact at any length.

    Memory: a table holds one row per prefix inserted, plus the absent row.
    It grows by doubling, never past one row per child slot of the table
    before it, so it holds at most twice its rows in use, and exactly those
    after one insert into an empty trie.
    """

    def __init__(self, degree: int, depth: int):
        self.degree = degree
        self.rows = [2] + [1] * (depth - 1)  # rows in use, the absent row included
        self.tables = [np.zeros(rows * degree, dtype=np.int64) for rows in self.rows]
        self.tables[-1].fill(-1)

    def lookup(self, images):
        """Element index of each key, -1 where none was inserted: one array
        of int32 or int64 images per keyed point, in order, broadcast
        together."""
        at = self.degree
        for table, level in zip(self.tables, images):
            at = table[at + level]
        return at

    def insert(self, keys, ids) -> None:
        """Insert keys not yet inserted, distinct and in lexicographic order,
        as the elements ``ids``: one array of images per keyed point. Equal
        prefixes of sorted keys are adjacent, so a new row starts wherever
        the slot changes."""
        at = np.full(len(ids), self.degree, dtype=np.int64)
        for j in range(len(self.tables) - 1):
            slot = at + keys[j]
            at = self.tables[j][slot]
            new = at == 0
            start = new & _run_starts(slot)
            at[new] = ((self.rows[j + 1] - 1 + np.cumsum(start)) * self.degree)[new]
            self.tables[j][slot[start]] = at[start]
            self.rows[j + 1] += int(np.count_nonzero(start))
            self._grow(j + 1)
        self.tables[-1][at + keys[-1]] = ids

    def _grow(self, j: int) -> None:
        """Room for the rows in use in table j, doubling, but never past one
        row per child slot of table j - 1."""
        table = self.tables[j]
        if len(table) < self.rows[j] * self.degree:
            rows = min(max(2 * len(table) // self.degree, self.rows[j]),
                       (self.rows[j - 1] - 1) * self.degree + 1)
            self.tables[j] = np.full(rows * self.degree, table[0])  # the absent value
            self.tables[j][:len(table)] = table


def _cell_type(degree: int) -> np.dtype:
    """The narrowest unsigned type that holds every point 0..degree-1."""
    return np.min_scalar_type(degree - 1)


def _as_int32(cells: np.ndarray) -> np.ndarray:
    """Cells read from a group, as a new read-only int32 array."""
    wide = cells.astype(np.int32)
    wide.setflags(write=False)
    return wide


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a value differs from the one before it, and at 0."""
    starts = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _base_index(elements: np.ndarray):
    """Choose a base greedily; return it and each element's rank in the
    lexicographic order of its base images.

    Point b joins the base when its images split some class of elements that
    the images of the earlier base points leave together; the scan stops once
    every element is told apart (the trivial group still takes point 0, so
    every lookup passes through a table). An element's rank at level k
    numbers its class, the elements agreeing with it on base points 0..k, in
    the lexicographic order of those images.

    The classes at level k are the cosets of S_k, the pointwise stabilizer
    of base points 0..k, so classes_k = classes_{k-1} times the size of the
    S_{k-1}-orbit of b_k, and b_k joins only when that orbit has two or more
    points. The classes thus at least double per level, so the trie of the
    base images, one row of ``degree`` slots per class before each level
    plus the absent rows, holds at most ``(order + len(base)) * degree``
    slots, about one element array.
    """
    order, degree = elements.shape
    rank = np.zeros(order, dtype=np.int64)
    classes = 1
    base: list[int] = []
    for b in range(degree):
        if classes == order and base:
            break
        keys = rank * degree + elements[:, b]
        hit = np.zeros(classes * degree, dtype=bool)
        hit[keys] = True
        table = np.cumsum(hit) - 1
        refined = int(table[-1]) + 1
        if refined > classes or classes == order:  # order 1 still takes point 0
            base.append(b)
            rank = table[keys]
            classes = refined
    if classes != order:
        raise ValueError("duplicate elements")
    return base, rank


def _transversals(columns, points, degree: int, rows_of) -> list[tuple]:
    """The stabilizer chain along ``points`` of the elements whose images of
    those points are ``columns``: one level (point, offset, rows, inverse)
    per point.

    Level j's ``rows`` hold, for each point y of its orbit in ascending
    order, the first element that fixes points[:j] and sends points[j] to y,
    read from element indices by ``rows_of``; ``inverse`` holds their
    inverse rows, flat, and ``offset[y]`` is where y's starts (-1 off the
    orbit), so a gather from it is one add and one 1-D take. For a group the
    orbits are the basic orbits, and each element is one product of one row
    per level.
    """
    at = np.arange(len(columns[0]))
    levels = []
    for point, column in zip(points, columns):
        images = column[at]
        first = np.full(degree, len(column))
        np.minimum.at(first, images, at)
        orbit = np.flatnonzero(first < len(column))
        offset = np.full(degree, -1)
        offset[orbit] = np.arange(len(orbit)) * degree
        rows = rows_of(first[orbit])
        inverse = np.empty(rows.size, dtype=np.int32)
        inverse[offset[orbit][:, None] + rows] = identity_perm(degree)
        levels.append((point, offset, rows, inverse))
        at = at[images == point]
    return levels


def _inverse_images(columns, levels) -> list[np.ndarray]:
    """The images of the base points under the inverse of every element,
    from its images of them and the transversals of the base: sifting
    writes a = t_{m-1} ... t_0 (a then-product, one transversal row t_i per
    level), so a^-1 = t_0^-1 ... t_{m-1}^-1. O(order |base|^2) gathers."""
    images = list(columns)  # of each base point under the residue left so far
    factors = []
    for i, (_, offset, _, inverse) in enumerate(levels):
        factors.append(offset[images[i]])
        images[i + 1:] = [inverse[factors[-1] + x] for x in images[i + 1:]]
    inverted = []
    for point, *_ in levels:
        for factor, (_, _, _, inverse) in zip(factors, levels):
            point = inverse[factor + point]
        inverted.append(point)
    return inverted


class PermGroup:
    """Immutable, fully enumerated permutation group.

    Elements are addressed by index. A base (points whose images tell every
    element apart) indexes them through a :class:`_Trie` of their base
    images, one table per base point, and the images of base point k are
    kept as one contiguous int32 column, ``_columns[k]``, one entry per
    element. A lookup walks the tables one base level at a time, with one
    1-D gather from the flat element array per level: the image of base
    point k under a then b sits at ``b * degree + _columns[k][a]``. Base
    images that no element has look up -1. So products, inverses and
    conjugates of index arrays never hash, sort or compare whole rows, and
    never index the (order, degree) array in two dimensions. The columns
    hold |base| int32 cells per element; the flat array holds every element
    cell, in the narrowest unsigned type for the degree (``_cell_type``).
    ``affine_group`` and the orbit search fill that type directly; any other
    array is narrowed once, after a range check.

    The constructor takes ownership of its input arrays. An element array
    already of the cell type and C-contiguous, and a C-contiguous int32
    generator array, are stored as they are, without a copy, and made
    read-only in the caller's hands too. ``affine_group`` and the orbit
    search hand over arrays they built, and a copy would double the peak
    of a large build.

    Element cells are read, once the flat array is set, only by
    :meth:`images`, :meth:`rows` and :meth:`column`, which widen what they
    read to int32: the constructor's columns, ``index_of``, the centralizer
    scan and every stage go through them. ``elements`` is an int32 copy for
    callers outside the package, read-only and built on its first read; no
    module of the package reads it.
    """

    def __init__(self, degree: int, elements: np.ndarray, generators: np.ndarray):
        cells = _cell_type(degree)
        elements = np.asarray(elements)
        if elements.dtype != cells:  # narrowing an image out of range would wrap it
            if elements.size and not 0 <= elements.min() <= elements.max() < degree:
                raise ValueError(f"element images must lie in 0..{degree - 1}")
            elements = elements.astype(cells)
        elements = np.ascontiguousarray(elements)
        generators = np.ascontiguousarray(generators, dtype=np.int32)
        elements.setflags(write=False)
        generators.setflags(write=False)
        self.degree = int(degree)
        self.order = len(elements)
        self.generators = generators
        self.base, rank = _base_index(elements)
        self._flat = elements.reshape(-1)
        self._stride = np.int64(degree)  # row offsets are int64 even for int32 indices
        self._columns = [self.column(b) for b in self.base]
        # the ranks number the elements in the order of their base images, so
        # one scatter sorts them for the insert
        by_key = np.empty_like(rank)
        by_key[rank] = np.arange(len(rank))
        self._trie = _Trie(self.degree, len(self.base))
        self._trie.insert([column[by_key] for column in self._columns], by_key)
        ident = self._locate(self.base)
        if not np.array_equal(self.rows(ident), identity_perm(degree)):
            raise ValueError("identity missing from element list")
        self.identity_index = int(ident)
        # exact only for a group, which every caller hands over
        self._inverse = self._locate(_inverse_images(
            self._columns, _transversals(self._columns, self.base, self.degree, self.rows)))
        self._centralizer_cache: dict[int, np.ndarray] = {}

    @cached_property
    def elements(self) -> np.ndarray:
        """Every element as a read-only int32 row, in enumeration order: a
        copy of the cells, built on the first read. No module of the package
        reads it."""
        return self.rows(slice(None))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def _locate(self, images) -> np.ndarray:
        """Element indices with the given images of the base points: one
        array per base point, in base order, broadcast together.

        One add and one gather per base point. Exact for the base images of
        elements; other images in 0..degree-1 give -1, so a caller looking up
        outside input range-checks it first and confirms the full row.
        """
        return self._trie.lookup(images)

    def images(self, a, points):
        """Images of the points under the elements with indices a, broadcast
        over both, as int32: ``elements[a, points]`` as one 1-D gather."""
        return self._flat[np.asarray(a) * self._stride + points].astype(np.int32)

    def rows(self, a):
        """Whole rows of the elements with indices a (an index, an index
        array, a boolean mask or a slice), as read-only int32:
        ``elements[a]`` as one row gather from a (order, degree) view of the
        flat array."""
        return _as_int32(self._flat.reshape(-1, self.degree)[a])

    def column(self, point: int):
        """The images of one point under every element, in enumeration
        order, as read-only int32: ``elements[:, point]`` as a strided read
        of the flat array."""
        return _as_int32(self._flat.reshape(-1, self.degree)[:, point])

    def mul(self, a, b):
        """Indices of (a then b), broadcast over index arrays a and b."""
        return self._locate(self.images(b, column[a]) for column in self._columns)

    def inv(self, a):
        """Indices of the inverses of the elements with indices a."""
        return self._inverse[a]

    def conj(self, a, h):
        """Indices of h^-1 a h, broadcast over index arrays a and h."""
        h_inv = self._inverse[h]
        return self._locate(self.images(h, self.images(a, column[h_inv]))
                            for column in self._columns)

    def index_of(self, perm):
        """Index of a permutation, or an index array for a stack of rows.

        The base lookup is confirmed on the full row, so a permutation that
        agrees with an element on the base only still raises NotAMember, as
        does a row of non-integers or of images outside 0..degree-1. Base
        images that no element has look up -1, whose row (the last element,
        which has other base images) fails the same check.
        """
        rows = np.asarray(perm)
        if rows.ndim == 0 or rows.shape[-1] != self.degree:
            raise NotAMember(f"degree mismatch: {rows.shape} vs {self.degree}")
        images = rows[..., self.base]
        if rows.dtype.kind not in "iu" or np.any((images < 0) | (images >= self.degree)):
            raise NotAMember(f"images must be integers in 0..{self.degree - 1}")
        # images.T puts the base points first and reverses the other axes;
        # the second .T restores them. As int64: offset + image would wrap
        # in a narrower type, and would turn float with uint64
        idx = self._locate(images.T.astype(np.int64)).T
        # confirmed in row chunks, not by one full-size gather
        at, flat = idx.reshape(-1), rows.reshape(-1, self.degree)
        if hit := least_cell_in_chunks(lambda lo, hi: (self.rows(at[lo:hi]) != flat[lo:hi])
                                       .any(axis=1), len(at), self.degree):
            raise NotAMember(f"{flat[hit[0]].tolist()} is not an element")
        return int(idx) if idx.ndim == 0 else idx

    def contains(self, perm) -> bool:
        try:
            self.index_of(perm)
            return True
        except NotAMember:
            return False


# ---------------------------------------------------------------------------
# ingestion


_INT64_MAX = int(np.iinfo(np.int64).max)
# a gather indexed by cells first copies them to intp, so its row chunks are
# sized by the bytes of that copy
_INDEX_BYTES = np.dtype(np.intp).itemsize


def _lex_words(keys: np.ndarray, degree: int) -> np.ndarray:
    """One int64 per column of the (k, n) ``keys`` that orders the columns
    as image sequences and tells them apart: radix-degree digits, with the
    partial word replaced by its rank among the columns wherever one more
    digit could overflow, so it is exact at any k."""
    word = np.zeros(keys.shape[1], dtype=np.int64)
    bound = 0  # no word exceeds it
    for images in keys:
        if bound > (_INT64_MAX - degree) // degree:
            word = np.unique(word, return_inverse=True)[1]
            bound = len(word)
        word = word * degree + images
        bound = bound * degree + degree - 1
    return word


def _orbit_bfs(degree: int, gens: np.ndarray, k: int, cap: int) -> np.ndarray:
    """Breadth-first search over the orbit of the prefix (0, ..., k-1).

    Returns the rows found, one per key, in layers sorted by key, the
    identity first. The search runs on keys alone and records each new key's
    tree edge; the rows are then filled, layer by layer from those edges,
    into one array of the final size, so no layer is held twice.
    """
    index = _Trie(degree, k)
    layer = identity_perm(degree)[:k, None]  # the keys of a layer, one column per row
    index.insert(layer, [0])
    edges = []
    count = 1
    while layer.shape[1]:
        # column u * len(gens) + g is the key of u then g: g of u's prefix
        keys = np.take(gens.T, layer, axis=0).reshape(k, -1)
        fresh = np.flatnonzero(index.lookup(keys) < 0)
        word = _lex_words(keys[:, fresh], degree)
        order = np.argsort(word)
        fresh, word = fresh[order], word[order]
        # the least edge with a new key is its tree edge, whatever order
        # argsort leaves equal words in
        built = np.minimum.reduceat(fresh, np.flatnonzero(_run_starts(word)))
        if count + len(built) > cap:
            raise OrderCapExceeded(f"group order exceeds cap {cap}")
        # the layer's rows start at count - its size; edges number u * len(gens) + g
        # over all rows u
        edges.append((count - layer.shape[1]) * len(gens) + built)
        layer = keys[:, built]
        index.insert(layer, np.arange(count, count + len(built)))
        count += len(built)

    # full rows only for the new elements, from their tree edges, layer by
    # layer (a parent is in the layer before), generator by generator, in row
    # chunks
    elements = np.empty((count, degree), dtype=_cell_type(degree))
    elements[0] = identity_perm(degree)
    start, step = 1, chunk_rows(degree * _INDEX_BYTES)
    for edge in edges:
        parent, by = np.divmod(edge, len(gens))
        for g, perm in enumerate(gens.astype(elements.dtype)):
            made = np.flatnonzero(by == g)
            for lo in range(0, len(made), step):
                rows = made[lo:lo + step]
                elements[start + rows] = np.take(perm, elements[parent[rows]])
        start += len(edge)
    return elements


def _sift(residues: np.ndarray, levels) -> np.ndarray:
    """Each row r times the inverse of the transversal element of each level
    in turn, the one that sends the level's point where r does: after a
    level, the rows fix its point."""
    for point, offset, _, inverse in levels:
        residues = inverse[offset[residues[:, point]][:, None] + residues]
    return residues


def _point_orbit(perms: np.ndarray, point: int) -> np.ndarray:
    """Mask of the orbit of point under the group the rows perms generate,
    computed on points only.

    Each point carries a label, a point of its orbit, starting as itself. A
    round lowers the labels of x and s(x) to the lesser of the two, for every
    row s, then replaces each label by the label of that label; once a round
    changes nothing, the labels agree along every row, so each orbit carries
    one label. The least label spreads at least one step a round, so there are
    at most one more rounds than the orbit's diameter; the jumps make them
    logarithmic on a long cycle (10 rounds on a 1,000-cycle), where a
    breadth-first search takes one round per step."""
    label = np.arange(perms.shape[1])
    while True:
        low = label.copy()
        for s in perms:
            np.minimum(low, low[s], out=low)
            low[s] = np.minimum(low[s], low)
        low = low[low]
        if np.array_equal(low, label):
            return label == label[point]
        label = low


def _first_residue(perms: np.ndarray, levels):
    """The first Schreier generator t_y s t_s(y)^-1 of levels[0], for s in
    the rows perms and y in the level's orbit (s-major), whose sift through
    the deeper levels is not the identity: as that residue and the least
    point it moves, or None. That sift is the sift of t_y s through every
    level, built and sifted in chunks of the (s, y) pairs."""
    rows = levels[0][2]
    degree = rows.shape[1]

    def residues(lo, hi):
        s, y = np.divmod(np.arange(lo, hi), len(rows))
        return _sift(perms.reshape(-1)[(s * degree)[:, None] + rows[y]], levels)  # t_y then s

    identity = identity_perm(degree)
    hit = least_cell_in_chunks(lambda lo, hi: residues(lo, hi) != identity,
                               len(perms) * len(rows), degree * _INDEX_BYTES)
    return None if hit is None else (residues(hit[0], hit[0] + 1)[0], hit[1])


def _schreier_residue(elements: np.ndarray, gens: np.ndarray, k: int):
    """The proof that the rows of the orbit search with prefix k are the
    group: None, or the first residue that refutes it and the least point
    that residue moves.

    Level j's transversal holds, for each point y of its basic orbit, the
    first row whose key starts (0, ..., j-1, y). Levels whose orbit is {j}
    hold only the identity and are skipped, but for level 0. From the
    deepest level up, S(j) is the generators that fix 0..j-1 and the
    transversal rows picked at level j and deeper, picked (least missing
    point first) until the orbit of j under S(j), computed on points, is the
    basic orbit; at level 0 it is the generators. Every Schreier generator
    of every level must sift to the identity (:func:`_first_residue`).
    """
    degree = elements.shape[1]
    levels = [level for level in _transversals([elements[:, j] for j in range(k)], range(k),
                                               degree, lambda idx: elements[idx].astype(np.int32))
              if level[0] == 0 or len(level[2]) > 1]
    picks = np.empty((0, degree), dtype=np.int32)
    for i in reversed(range(len(levels))):
        point, _, rows, _ = levels[i]
        perms = gens
        if point:
            perms = np.concatenate([gens[(gens[:, :point] == np.arange(point)).all(axis=1)], picks])
            while not (covered := _point_orbit(perms, point)[rows[:, point]]).all():
                picks = np.concatenate([picks, rows[np.argmin(covered)][None]])
                perms = np.concatenate([perms, picks[-1:]])
        if refuted := _first_residue(perms, levels[i:]):
            return refuted
    return None


def _bfs_enumerate(degree: int, gens: np.ndarray, cap: int) -> np.ndarray:
    """Breadth-first closure from the identity, each new layer sorted by
    image sequence, found as the orbit of a prefix of points.

    The search runs over the orbit of the prefix (0, ..., k-1), starting at
    k = 2: a candidate u then g is keyed by its prefix images (g applied to
    u's) and looked up in a :class:`_Trie`, the index :class:`PermGroup`
    keeps of its base images. Only a new key gets a full row, gathered from
    its parent u and generator g. The keys are the exact orbit of the
    prefix, so the rows give the exact basic orbits of the stabilizer chain
    along 0..k-1 and a transversal row for each of their points, and
    :func:`_schreier_residue` proves the rows closed with them.

    Why this is exact. Every row found is a product of generators, and rows
    have distinct keys. If every Schreier generator sifts to the identity,
    then by downward induction over the levels the products T_{k-1}...T_j of
    transversal rows are the group S(j) generates, for j >= 1, and
    T_{k-1}...T_0 is closed under the generators and holds the identity; so
    the group has as many elements as there are keys, and the rows are the
    whole group, one per key. Distinct keys then mean distinct elements, so
    the search meets elements in the order a search over whole rows would.
    Two distinct elements differ first at a prefix point, so the
    lexicographic order of their keys is that of their image sequences, and
    sorting a new layer by key sorts it by image sequence. The order cap
    counts keys, never more than elements.

    The restart rule. A residue that is not the identity is an element of
    the group that fixes the prefix and moves some point p >= k; the prefix
    is extended through the least such p (k = p + 1) and the search
    restarts. At k = degree keys are whole rows, so the loop ends.
    """
    k = 2
    while True:
        elements = _orbit_bfs(degree, gens, k, cap)
        refuted = _schreier_residue(elements, gens, k)
        if refuted is None:
            return elements
        k = refuted[1] + 1


def _is_int(x) -> bool:
    """True for JSON integers; bool is an int subclass and is refused."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def parse_group_doc(doc) -> PermGroup:
    """Enumerate the group generated by a GroupDoc (dict or JSON text)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("document must be a JSON object")
    if "degree" not in doc or "generators" not in doc:
        raise MalformedDocument("document needs 'degree' and 'generators'")
    degree = doc["degree"]
    if not _is_int(degree) or degree < 2:
        raise MalformedDocument(f"degree must be an integer >= 2, got {degree!r}")
    raw_gens = doc["generators"]
    if not isinstance(raw_gens, list):
        raise MalformedDocument("'generators' must be a list of image sequences")

    gens = []
    for k, seq in enumerate(raw_gens):
        if not isinstance(seq, list) or len(seq) != degree:
            raise MalformedDocument(f"generator {k} is not a length-{degree} list")
        if not all(_is_int(x) for x in seq):
            raise MalformedDocument(f"generator {k} has an image that is not an integer")
        try:
            gens.append(as_perm(seq, degree))
        except NotABijection as exc:
            raise NotABijection(str(exc), generator_index=k) from exc

    # a sharply 2-transitive group of degree d has order d(d - 1), so no
    # degree with d(d - 1) above the order cap can be certified; this also
    # bounds the two-point key table of the enumeration to about cap slots
    cap = max_group_order()
    if degree * (degree - 1) > cap:
        raise OrderCapExceeded(f"degree {degree} exceeds the group order cap {cap}: a sharply "
                               f"2-transitive group of that degree has order {degree * (degree - 1)}")
    gen_arr = (
        np.array(gens, dtype=np.int32)
        if gens
        else np.empty((0, degree), dtype=np.int32)
    )
    elements = _bfs_enumerate(degree, gen_arr, cap)
    return PermGroup(degree, elements, gen_arr)


def affine_generators(nf: NearField) -> np.ndarray:
    """The generators of the affine group of ``nf``, as int32 rows: x -> x add a
    for a = 1..q-1, then x -> x mul m for m = 2..q-1.

    The near-field axioms are checked first, unless already verified.
    """
    _require_axioms(nf, AxiomFailure)
    return np.concatenate([nf.add.T[1:], nf.mul.T[2:]])


def affine_group(nf: NearField) -> PermGroup:
    """The group { x -> (x mul m) add a : m != 0 } acting on 0..|nf|-1, with
    the generators of :func:`affine_generators`.

    Element order is deterministic: m ascending, then a ascending, so the
    identity (m=1, a=0) is element 0.
    """
    gens = affine_generators(nf)
    q = nf.order
    cap = max_group_order()
    if q * (q - 1) > cap:
        raise OrderCapExceeded(f"group order {q * (q - 1)} exceeds cap {cap}")

    # row (m - 1) q + a is x -> (x mul m) add a, copied per m from a gather of
    # whole rows of add (cache-friendly), so the elements are built once;
    # distinct (m, a) give distinct maps, and PermGroup refuses duplicates
    add = nf.add.astype(_cell_type(q))
    elements = np.empty((q - 1, q, q), dtype=add.dtype)
    for m in range(1, q):
        elements[m - 1] = add[nf.mul[:, m]].T
    return PermGroup(q, elements.reshape(-1, q), gens)


# ---------------------------------------------------------------------------
# scans


def _element_index(G: PermGroup, g) -> int:
    """g given as an element index or as one permutation row."""
    if not _is_int(g):
        if np.ndim(g) != 1:  # a stack of rows would look up an index array
            raise NotAMember(f"an element is an index or one row, got shape {np.shape(g)}")
        return G.index_of(g)
    if not 0 <= g < G.order:
        raise NotAMember(f"no element with index {g}")
    return int(g)


def _centralizer_scan(G: PermGroup, gi: int) -> np.ndarray:
    """Cen(gi) by one scan of the group: h commutes with g on the base, one
    column per base point (g(h(b)) from h's column, h(g(b)) from the
    element column of g(b))."""
    grow = G.rows(gi)
    commute = True
    for b, column in zip(G.base, G._columns):
        commute = commute & (grow[column] == G.column(grow[b]))
    return np.flatnonzero(commute)


def centralizer(G: PermGroup, g) -> np.ndarray:
    """Element indices of everything commuting with g (an element index or a
    permutation row), in enumeration order, read-only.

    A cache miss scans Cen(g) once and caches Cen(h^-1 g h) = h^-1 Cen(g) h
    for the whole class of g, keeping entries already cached: three
    order-length passes (scan, conjugators, |class| x |Cen| = order cells)
    instead of one scan per member of the class."""
    gi = _element_index(G, g)
    if gi not in G._centralizer_cache:
        cls, h = _conjugators(G, gi)
        rows = np.sort(G.conj(_centralizer_scan(G, gi)[None, :], h[:, None]), axis=1)
        rows.setflags(write=False)
        for c, row in zip(cls.tolist(), rows):
            G._centralizer_cache.setdefault(c, row)
    return G._centralizer_cache[gi]


def distinct(values) -> np.ndarray:
    """Sorted distinct values, by one sort: on numpy 2.4, np.unique takes
    1.40 ms on 14,520 ints against 0.19 ms here, and its plain form (no
    index, inverse or counts) imports numpy.ma on its first call."""
    flat = np.sort(values, axis=None)
    return flat[np.diff(flat, prepend=flat[:1] - 1) != 0]


def member_mask(G: PermGroup, members) -> np.ndarray:
    """Membership of the element indices ``members`` as a boolean row over
    the element indices of G, with one more False slot, so that an index of
    -1 (no element) reads False: ``mask[a]`` is ``np.isin(a, members)``
    without the sort, or the numpy.ma import of its first call."""
    mask = np.zeros(G.order + 1, dtype=bool)
    mask[members] = True
    return mask


def _conjugators(G: PermGroup, gi: int):
    """The class of element gi in enumeration order, and beside each member c
    the least h with h^-1 gi h = c: one conjugation pass, and the least h per
    conjugate taken by one unbuffered minimum, without a sort."""
    every = np.arange(G.order)
    least = np.full(G.order, G.order)  # G.order: no h reaches this element
    np.minimum.at(least, G.conj(gi, every), every)
    cls = np.flatnonzero(least < G.order)
    return cls, least[cls]


def conjugacy_class(G: PermGroup, g) -> np.ndarray:
    """Element indices of { h^-1 g h : h in G } (g an element index or a
    permutation row), in enumeration order."""
    return _conjugators(G, _element_index(G, g))[0]
