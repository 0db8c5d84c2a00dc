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
arrays, and no scan indexes the element array in two dimensions. The
constructor takes a stabilizer chain of the base from the builder, which
knows it before any row exists: the one a document's parse proved, or the
closed form of an affine group (base 0 and 1, the translations and then the
maps x -> x mul m as transversals). From the orbit sizes of the chain and the
element at each lexicographic rank of the base images, it fills each trie
table once, at its final size, and it finds every inverse by sifting each
element's base images through the chain's transversals. One centralizer
scan serves a whole class, filled in by conjugation, and a class is read
off one conjugation pass without a sort.
Enumeration order is deterministic: breadth-first from the identity with
generators applied in document order, each new layer sorted in the
lexicographic order of its image sequences. A document's group is built
from a stabilizer chain on points, by Schreier-Sims along the greedy base
(:func:`_stabilizer_chain`): each level's orbit and transversal come from a
Schreier tree on points, every Schreier generator off the tree sifts
through the deeper levels to the identity, and a residue that does not
extends the chain in place. So the base and the order, the product of the
orbit sizes, are known, and the order cap checked, before any element row
exists. The transversals give every element's base images, and so a dense
index in lexicographic order; the breadth-first layers are computed over
that index from one successor table per generator, and each row is written
once, at its final position, as a product of transversal rows
(:func:`_enumerate`). The group is then built from that chain and the
breadth-first position of each lexicographic rank, with no second walk.

Groups enter either through :func:`parse_group_doc` (JSON documents of the
form ``{"degree": d, "generators": [[...], ...]}``, 0-based) or through
:func:`affine_group`, which realizes the maps ``x -> (x mul m) add a`` over a
near-field.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property
from math import prod

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
from .reporting import chunk_rows, least_cell, least_cell_in_chunks

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
    """Exact index from the base images of a group's elements to their
    indices: one dense table per base level.

    Table j is indexed by ``offset + image``, where an offset is a row of
    table j premultiplied by ``degree``, and row c + 1 stands for class c
    before level j: the elements that agree on base points 0..j-1, numbered
    in the lexicographic order of those images. Row 0 of every table is the
    absent node; the root, the one class before level 0, is row 1 of table
    0. A table before the last holds the offset of each class before the
    next level, 0 for an absent one; the last table holds element indices,
    and -1 for base images no element has. So a lookup that leaves the
    classes stays in the absent rows and returns -1, and each level is one
    add and one gather. Offsets are chained rows, never products of powers
    of the degree, so keys are exact at any length.

    The tables are filled once, each at its final size, from the level
    sizes (the basic orbit sizes) and ``position``, the element at each
    lexicographic rank of the base images. In a group the classes before
    level j are the cosets of the pointwise stabilizer of base points
    0..j-1, each a run of ``prod(sizes[j:])`` consecutive ranks, so the
    class of rank r is ``r // prod(sizes[j:])``, and each class before
    level j + 1 is written once, from the image of base point j under its
    first element. On rows that are not a group the tables may be wrong,
    never out of range; the constructor checks every element's lookup.

    Memory: table j holds one row per class before level j, plus the absent
    row. Every basic orbit past the trivial group's has two or more points,
    so the classes at least double per level and the tables hold at most
    ``(order + depth) * degree`` slots, about one element array.
    """

    def __init__(self, degree: int, sizes: list[int], position: np.ndarray, columns):
        self.degree = degree
        self.tables = []
        classes = 1  # before level j
        for j, (size, column) in enumerate(zip(sizes, columns)):
            child = np.arange(classes * size)  # the classes before level j + 1
            first = position[child * (len(position) // len(child))]
            last = j == len(sizes) - 1
            table = np.full((classes + 1) * degree, -1 if last else 0)
            table[(child // size + 1) * degree + column[first]] = (
                first if last else (child + 1) * degree)
            self.tables.append(table)
            classes *= size

    def lookup(self, images):
        """Element index of each key, -1 where no element has it: one array
        of int32 or int64 images per base point, in order, broadcast
        together."""
        at = self.degree
        for table, level in zip(self.tables, images):
            at = table[at + level]
        return at


def _cell_type(degree: int) -> np.dtype:
    """The narrowest unsigned type that holds every point 0..degree-1."""
    return np.min_scalar_type(degree - 1)


# a gather indexed by cells first copies them to intp, so its row chunks are
# sized by the bytes of that copy
_INDEX_BYTES = np.dtype(np.intp).itemsize


def _as_int32(cells: np.ndarray) -> np.ndarray:
    """Cells read from a group, as a new read-only int32 array."""
    wide = cells.astype(np.int32)
    wide.setflags(write=False)
    return wide


def _level(point: int, orbit: np.ndarray, rows: np.ndarray):
    """A chain level (point, offset, rows, inverse): ``rows[i]`` sends point
    to ``orbit[i]``, the orbit ascending; ``offset[y]`` is where y's row
    starts in the flat rows, -1 off the orbit; ``inverse`` holds the inverse
    rows, flat, at the same offsets."""
    degree = rows.shape[1]
    offset = np.full(degree, -1)
    offset[orbit] = np.arange(len(orbit)) * degree
    inverse = np.empty(rows.size, dtype=np.int32)
    step = chunk_rows(degree * _INDEX_BYTES)  # rows per chunk of the int64 scatter index
    for lo in range(0, len(rows), step):
        inverse[offset[orbit[lo:lo + step]][:, None] + rows[lo:lo + step]] = identity_perm(degree)
    return point, offset, rows, inverse


def _factors(images, levels) -> list[np.ndarray]:
    """Sift base images through the transversals of a chain: for each level,
    the offset of the transversal row that sends its point where the element
    does, once the rows of the earlier levels are divided out. An element a
    is the then-product t_m-1 ... t_0 of those rows."""
    images = list(images)  # of each base point under the residue left so far
    factors = []
    for i, (_, offset, _, inverse) in enumerate(levels):
        factors.append(offset[images[i]])
        images[i + 1:] = [inverse[factors[-1] + x] for x in images[i + 1:]]
    return factors


def _inverse_images(columns, levels) -> list[np.ndarray]:
    """The images of the base points under the inverse of every element,
    from its images of them and the transversals of the base: sifting
    writes a = t_{m-1} ... t_0 (a then-product, one transversal row t_i per
    level, :func:`_factors`), so a^-1 = t_0^-1 ... t_{m-1}^-1.
    O(order |base|^2) gathers."""
    factors = _factors(columns, levels)
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
    ``affine_group`` and the document enumeration fill that type directly;
    any other array is narrowed once, after a range check.

    The base and its chain come from the builder, as ``chain = (levels,
    position)``: the levels of a stabilizer chain along the greedy base, in
    the form of :func:`_level`, and the element at each lexicographic rank
    of the base images. ``parse_group_doc`` passes the chain its proof
    built, ``affine_group`` the closed form of its own, so the rows are
    never walked. The trie is filled from the chain, and the constructor
    refuses rows the chain does not fit, duplicate elements among them (one
    lookup of every element's base images must give its own index), and an
    element list without the identity.

    The constructor takes ownership of its input arrays. An element array
    already of the cell type and C-contiguous, and a C-contiguous int32
    generator array, are stored as they are, without a copy, and made
    read-only in the caller's hands too. ``affine_group`` and the document
    enumeration hand over arrays they built, and a copy would double the
    peak of a large build.

    Element cells are read, once the flat array is set, only by
    :meth:`images`, :meth:`rows` and :meth:`column`, which widen what they
    read to int32: the constructor's columns, ``index_of``, the centralizer
    scan and every stage go through them. ``elements`` is an int32 copy for
    callers outside the package, read-only and built on its first read; no
    module of the package reads it.
    """

    def __init__(self, degree: int, elements: np.ndarray, generators: np.ndarray, chain):
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
        self._flat = elements.reshape(-1)
        self._stride = np.int64(degree)  # row offsets are int64 even for int32 indices
        levels, position = chain
        # the trivial group still takes point 0, so every lookup passes through a table
        self._levels = levels or [_level(0, np.arange(1), identity_perm(degree)[None])]
        self.base = [point for point, *_ in self._levels]
        self._columns = [self.column(point) for point in self.base]
        self._trie = _Trie(self.degree, [len(rows) for _, _, rows, _ in self._levels],
                           position, self._columns)
        if not np.array_equal(self._trie.lookup(self._columns), np.arange(self.order)):
            raise ValueError("duplicate elements")
        ident = self._locate(self.base)
        if not np.array_equal(self.rows(ident), identity_perm(degree)):
            raise ValueError("identity missing from element list")
        self.identity_index = int(ident)
        # exact only when the rows are a group
        self._inverse = self._locate(_inverse_images(self._columns, self._levels))
        self._centralizer_cache: dict[int, np.ndarray] = {}
        self._class_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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


def _schreier_tree(point: int, gens: np.ndarray):
    """The orbit of point under the rows gens, as a chain level in the form
    of :func:`_level`, with a Schreier tree: each orbit point y but point
    has a parent x and a generator s with s(x) = y, and its row t_y is t_x
    then s, so every row is a product of generators along the tree, and the
    row of point is the identity. Also returns the mask of the tree edges:
    edge ``s * len(orbit) + i`` is generator s at the i-th orbit point, and
    for a tree edge t_y s is the row of s(y), so its Schreier generator
    t_y s t_s(y)^-1 is the identity and is never built.

    The tree grows by whole chains of one generator at a time, the
    generators taken in turn until none adds a point: each point that s
    reaches by repeated steps from the points found is hung from its
    predecessor under s. Its nearest found predecessor, and the number of
    steps from it, take logarithmic rounds of pointer jumping, and its row
    is that predecessor's row then a power of s; so a long cycle costs a
    few rounds, where a breadth-first search takes one round per step. The
    new rows of a round are gathered, and the level's inverse rows
    scattered (:func:`_level`), in row chunks of their int64 index, and the
    (degree, degree) table of rows is freed before the inverse rows exist,
    so a level of n points peaks near three (n, degree) int32 arrays.
    """
    degree = gens.shape[1]
    every = identity_perm(degree)
    rows = np.empty((degree, degree), dtype=np.int32)  # rows[y] = t_y, for y found
    rows[point] = every
    found = np.zeros(degree, dtype=bool)
    found[point] = True
    parent = np.full(degree, -1)
    by = np.full(degree, -1)
    idle, g = 0, 0  # generators in a row that added nothing, the next one
    while idle < len(gens) and not found.all():
        s = gens[g]
        back = np.empty_like(s)
        back[s] = every
        # the nearest found point before each point on its chain under s
        anchor = np.where(found, every, back)
        steps = (~found).astype(np.int64)
        for _ in range((degree - 1).bit_length()):
            steps, anchor = steps + steps[anchor], anchor[anchor]
        new = np.flatnonzero(~found & found[anchor])
        if len(new):
            power, lift = every[None], s  # s^0, ..., s^(len(power) - 1); s^len(power)
            while len(power) <= steps[new].max():
                power = np.concatenate([power, lift[power]])
                lift = lift[lift]
            step = chunk_rows(degree * _INDEX_BYTES)  # rows per chunk of the int64 gather index
            for at in (new[lo:lo + step] for lo in range(0, len(new), step)):
                rows[at] = power.reshape(-1)[(steps[at] * degree)[:, None] + rows[anchor[at]]]
            del power, lift  # the powers of s serve this round only
            parent[new] = back[new]
            by[new] = g
            found[new] = True
        idle = 1 if len(new) else idle + 1
        g = (g + 1) % len(gens)
    orbit = np.flatnonzero(found)
    rows = rows[orbit]  # the (degree, degree) table is freed before the inverse rows exist
    level = _level(point, orbit, rows)
    child = orbit[by[orbit] >= 0]
    tree = np.zeros(len(gens) * len(orbit), dtype=bool)
    tree[by[child] * len(orbit) + level[1][parent[child]] // degree] = True
    return level, tree


def _sift(residues: np.ndarray, levels) -> np.ndarray:
    """Each row r times the inverse of the transversal row of each level in
    turn, the one that sends the level's point where r does: after a level,
    the rows fix its point. A row that sends the point off the orbit is
    divided by the level's first row, the identity, so it still moves the
    point, and every deeper row fixes that point."""
    for point, offset, _, inverse in levels:
        at = np.maximum(offset[residues[:, point]], 0)
        residues = inverse[at[:, None] + residues]
    return residues


def _first_residue(levels, gens: np.ndarray, tree: np.ndarray, start: int):
    """The first Schreier generator t_y s t_s(y)^-1 of levels[0], for s in
    the rows gens and y in the level's orbit (s-major), from candidate
    ``start`` on and off the tree edges, whose sift through the deeper
    levels is not the identity: as its candidate number, that residue and
    the least point it moves, or None. That sift is the sift of t_y s
    through every level. The candidates are built and sifted in chunks that
    double up to the chunk size, as a residue is often among the first."""
    rows = levels[0][2]
    degree = rows.shape[1]
    todo = np.flatnonzero(~tree[start:]) + start

    def residues(lo, hi):
        s, y = np.divmod(todo[lo:hi], len(rows))
        return _sift(gens.reshape(-1)[(s * degree)[:, None] + rows[y]], levels)  # t_y then s

    identity = identity_perm(degree)
    lo, step = 0, 32
    while lo < len(todo):
        hi = min(lo + step, len(todo))
        if (hit := least_cell(residues(lo, hi) != identity)) is not None:
            at = lo + hit[0]
            return int(todo[at]), residues(at, at + 1)[0], hit[1]
        lo, step = hi, min(2 * step, chunk_rows(degree * _INDEX_BYTES))
    return None


def _stabilizer_chain(gens: np.ndarray, cap: int) -> list:
    """The stabilizer chain of the group the rows gens generate, along its
    greedy base, by Schreier-Sims on points (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003, ch. 4): levels in the form of :func:`_level`.

    Level l keeps strong generators S(l), all fixing every point before its
    point b_l, and the Schreier tree of b_l under them
    (:func:`_schreier_tree`). At first b_0 < b_1 < ... are the least points
    the generators move, and S(l) the generators moving none before b_l.
    The proof runs from the deepest level up: every Schreier generator of
    level i must sift through the deeper levels to the identity
    (:func:`_first_residue`). A residue that does not is an element fixing
    every point before the least point p it moves; it joins S(l) for the
    levels past i up to the level of p, which is made, with the strong
    generators of the next deeper level (they fix p), if p is no base point
    yet. Those levels are rebuilt and proved again from the level of p up,
    and level i resumes after the refuting candidate: every candidate that
    sifted to the identity is in the group the deeper levels generate, which
    only grows, so it still sifts to the identity once they are proved. No
    search starts over.

    Why the chain is exact. Once every level is proved, S(l + 1) generates
    the stabilizer of b_l in the group S(l) generates (Schreier's lemma), so
    the orbits are the basic orbits and the order is their product. The
    group S(l) generates fixes every point before b_l and moves b_l, so b_l
    is the least point moved by the pointwise stabilizer of the points
    before it: the greedy base, the one the group's trie is built along, so
    a parse hands this chain to the group.
    Distinct transversal products have distinct base images, so the product
    of the orbit sizes never exceeds the group order, and the order cap is
    checked on it whenever a level is built, before any element row exists.
    """
    degree = gens.shape[1]
    moved = gens != identity_perm(degree)
    least = np.where(moved.any(axis=1), moved.argmax(axis=1), degree)
    points, strong, levels, trees = [], [], [], []

    def build(l):
        levels[l], trees[l] = _schreier_tree(points[l], strong[l])
        if prod(len(level[2]) for level in levels if level is not None) > cap:
            raise OrderCapExceeded(f"group order exceeds cap {cap}")

    for point in sorted(set(least[least < degree].tolist())):
        points.append(point)
        strong.append(gens[least >= point])
        levels.append(None)
        trees.append(None)
        build(len(points) - 1)
    checked = [0] * len(points)  # candidates proved, per level
    i = len(points) - 1
    while i >= 0:
        refuted = _first_residue(levels[i:], strong[i], trees[i], checked[i])
        if refuted is None:
            i -= 1
            continue
        checked[i], residue, p = refuted[0] + 1, refuted[1], refuted[2]
        j = bisect_left(points, p)
        if j == len(points) or points[j] != p:
            points.insert(j, p)
            strong.insert(j, strong[j] if j < len(strong) else gens[:0])
            levels.insert(j, None)
            trees.insert(j, None)
            checked.insert(j, 0)
        for l in range(i + 1, j + 1):
            strong[l] = np.concatenate([strong[l], residue[None]])
            checked[l] = 0
            build(l)
        i = j
    return levels


def _lex_index(levels):
    """Each element of the chain, numbered by its transversal digits (i_0,
    ..., i_m-1), the first level's most significant: the element t_0 ... t_m-1
    (a composition of functions: t_m-1, the i_m-1-th row of the last level,
    acts first). Returns its index in the lexicographic order of the
    elements' image sequences, and the images of the base points.

    The image of b_l depends on the digits up to i_l only, and those sharing
    the digits before i_l send b_l onto a whole orbit of images, one per
    i_l: so the lexicographic rank of an element is the mixed-radix number
    of the ranks of its images among those sets. Two distinct elements of a
    group first differ at a point of its greedy base, so that order of base
    images is the order of whole rows. The images of b_l keep one axis per
    digit, of length 1 past i_l, so that they broadcast together.
    """
    sizes = [len(rows) for _, _, rows, _ in levels]
    lex = np.zeros((), dtype=np.int64)
    images = []
    for l, (_, offset, _, _) in enumerate(levels):
        image = np.flatnonzero(offset >= 0)
        for _, _, rows, _ in reversed(levels[:l]):
            image = rows[:, image]  # one more leading digit
        lex = lex[..., None] * sizes[l] + np.argsort(np.argsort(image, axis=-1), axis=-1)
        images.append(image.reshape(image.shape + (1,) * (len(levels) - 1 - l)))
    return lex.reshape(-1), images


def _enumerate(gens: np.ndarray, levels):
    """The elements of the chain as rows, in enumeration order: breadth-first
    from the identity, each new layer in the lexicographic order of its
    image sequences. Returns the rows and the position of the element at
    each lexicographic rank of the base images, which the group's trie is
    filled from.

    The search runs on the lexicographic index (:func:`_lex_index`), over
    one successor table per generator: the successor of a under s is found
    by sifting the images of the base points under a then s
    (:func:`_factors`). A layer is the distinct unvisited successors of the
    one before in index order, so in the order of image sequences; the
    identity has index 0. A large layer is found by marking it over every
    index, a small one by a sort, so a search of many small layers (a long
    cycle) pays no pass over the group per layer. Each row is then written
    once, at its final position, as a product of transversal rows: the
    first k levels' product, one table per prefix of digits, applied to the
    products of the other levels; k balances the prefixes against the rows
    of those products. The rows of a block of prefixes are one 3-D gather,
    of about CHUNK_CELLS cells, and one scatter.
    """
    degree = gens.shape[1]
    sizes = [len(rows) for _, _, rows, _ in levels]
    order = prod(sizes)
    lex, images = _lex_index(levels)
    successor = np.empty((len(gens), order), dtype=np.int64)
    for s, perm in zip(successor, gens):
        digits = np.int64(0)  # times degree: the factors are row offsets
        for factor, size in zip(_factors([perm[image] for image in images], levels), sizes):
            digits = digits * size + factor
        s[lex] = lex[digits.reshape(-1) // degree]

    seen = np.zeros(order, dtype=bool)
    seen[0] = True
    layers = [np.zeros(1, dtype=np.int64)]
    while len(layers[-1]):
        reached = successor[:, layers[-1]].reshape(-1)
        if 64 * len(reached) < order:
            layers.append(distinct(reached[~seen[reached]]))
        else:
            mark = np.zeros(order, dtype=bool)
            mark[reached] = True
            layers.append(np.flatnonzero(mark & ~seen))
        seen[layers[-1]] = True
    by_lex = np.empty(order, dtype=np.int64)
    by_lex[np.concatenate(layers)] = np.arange(order)
    del successor, seen, layers, reached  # the search is done before any row is written

    prefixes = [prod(sizes[:k]) for k in range(len(sizes) + 1)]
    k = min(range(len(prefixes)), key=lambda k: (max(prefixes[k], order // prefixes[k]), -k))
    elements = np.empty((order, degree), dtype=_cell_type(degree))
    head = identity_perm(degree).astype(elements.dtype)[None]
    for _, _, rows, _ in levels[:k]:
        head = head[:, rows].reshape(-1, degree)
    tail = identity_perm(degree)[None]
    for _, _, rows, _ in reversed(levels[k:]):
        tail = rows[:, tail].reshape(-1, degree)
    tail = np.ascontiguousarray(tail, dtype=np.intp)  # the gathers leave it column-major
    step = chunk_rows(tail.size)  # prefixes per block
    for lo in range(0, len(head), step):
        # row (p, t) of the block, digits p * len(tail) + t, is head[p] after tail[t]
        elements[by_lex[lex[lo * len(tail):(lo + step) * len(tail)]]] = np.take(
            head[lo:lo + step], tail, axis=1).reshape(-1, degree)
    return elements, by_lex


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
    levels = _stabilizer_chain(gen_arr, cap)
    elements, position = _enumerate(gen_arr, levels)
    return PermGroup(degree, elements, gen_arr, (levels, position))


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

    The stabilizer chain is known before any row exists, as the group is
    the translations extended by the maps x -> x mul m (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4). Its base is 0 and 1: the
    translation x -> x add a, row a, is the first row sending 0 to a, and
    x -> x mul m, row (m - 1) q, the first fixing 0 and sending 1 to m. At
    q = 2 the translations are the whole group, and the base is 0 alone.
    Element (m, a) sends 0 to a and 1 to m add a, so its rank in the
    lexicographic order of those images is a (q - 1) plus the rank of
    m add a among the points other than a.
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
    elements = elements.reshape(-1, q)
    points = np.arange(q)
    levels = [_level(0, points, elements[:q].astype(np.int32))]
    if q > 2:
        levels.append(_level(1, points[1:], elements[::q].astype(np.int32)))
    one = nf.add[1:].astype(np.int64)  # the image of 1 under (m, a), at [m - 1, a]
    position = np.empty(q * (q - 1), dtype=np.int64)
    position[(points * (q - 1) + one - (one > points)).reshape(-1)] = np.arange(q * (q - 1))
    return PermGroup(q, elements, gens, (levels, position))


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
    instead of one scan per member of the class. The conjugators pass is
    kept on G and shared with conjugacy_class (:func:`_class_pass`)."""
    gi = _element_index(G, g)
    if gi not in G._centralizer_cache:
        cls, h = _class_pass(G, gi)
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
    """The class of element gi in enumeration order, read-only, and beside
    each member c the least h with h^-1 gi h = c: one conjugation pass, and
    the least h per conjugate taken by one unbuffered minimum, without a
    sort."""
    every = np.arange(G.order)
    least = np.full(G.order, G.order)  # G.order: no h reaches this element
    np.minimum.at(least, G.conj(gi, every), every)
    cls = np.flatnonzero(least < G.order)
    cls.setflags(write=False)
    return cls, least[cls]


def _class_pass(G: PermGroup, gi: int):
    """:func:`_conjugators` of gi, run once per element and kept on G, so a
    class read by conjugacy_class and then by a centralizer miss on the same
    element costs one pass."""
    if gi not in G._class_cache:
        G._class_cache[gi] = _conjugators(G, gi)
    return G._class_cache[gi]


def conjugacy_class(G: PermGroup, g) -> np.ndarray:
    """Element indices of { h^-1 g h : h in G } (g an element index or a
    permutation row), in enumeration order, read-only."""
    return _class_pass(G, _element_index(G, g))[0]
