"""Fully enumerated finite permutation groups.

A permutation of degree d is a 1-D int32 numpy array of images on the points
0..d-1. The fixed composition convention everywhere in this package is
"g then h":

    compose(g, h)(x) == h(g(x))        conjugate(g, h) == h^-1 g h

A :class:`PermGroup` stores every element as a row of a single (order, degree)
array and addresses elements by their row index. A base -- a few points whose
images tell every element apart (0 and 1 for a sharply 2-transitive group) --
indexes the rows through one dense table per base point, so a lookup is one
gather per base point, and products, inverses, conjugates, membership tests,
centralizers and conjugacy classes are vectorized scans over index arrays;
one centralizer scan serves a whole class, filled in by conjugation.
Enumeration order is deterministic: breadth-first from the identity with
generators applied in document order, each new layer sorted by image sequence.

Groups enter either through :func:`parse_group_doc` (JSON documents of the
form ``{"degree": d, "generators": [[...], ...]}``, 0-based) or through
:func:`affine_group`, which realizes the maps ``x -> (x mul m) add a`` over a
near-field.
"""

from __future__ import annotations

import json

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
from .reporting import least_cell_in_chunks

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


def perm_order(g: np.ndarray) -> int:
    ident = np.arange(len(g))
    cur = g
    n = 1
    while not np.array_equal(cur, ident):
        cur = compose(cur, g)
        n += 1
    return n


# ---------------------------------------------------------------------------
# the group container


def _base_index(elements: np.ndarray):
    """Choose a base greedily and build one dense lookup table per base point.

    Point b joins the base when its images split some class of elements that
    the images of the earlier base points leave together; the scan stops once
    every element is told apart (the trivial group still takes point 0, so
    every lookup passes through a table). An element's rank at level k
    numbers its class, the elements agreeing with it on base points 0..k.
    Table k is indexed by ``prev_rank * degree + image`` and holds
    ``(classes_{k-1} + 1) * degree`` slots, with classes_{-1} = 1. Every
    slot that no element reaches, the whole last row included, holds the
    sentinel rank ``classes_k``, so an image sequence that no element has
    falls into the last row of the next table and stays in the last rows.
    The tables store ranks premultiplied by ``degree`` (row offsets into the
    next table) and the last table stores element indices, with element 0
    as its sentinel, so every lookup of images in 0..degree-1 lands on an
    element.

    Memory: the classes at level k are the cosets of S_k, the pointwise
    stabilizer of base points 0..k, so classes_k = classes_{k-1} times the
    size of the S_{k-1}-orbit of b_k, and b_k joins only when that orbit has
    two or more points. The classes thus at least double per level, so the
    slots sum to at most ``(order + len(base)) * degree``, about one element
    array.
    """
    order, degree = elements.shape
    rank = np.zeros(order, dtype=np.int64)
    classes = 1
    base: list[int] = []
    tables: list[np.ndarray] = []
    for b in range(degree):
        if classes == order and tables:
            break
        keys = rank * degree + elements[:, b]
        hit = np.zeros((classes + 1) * degree, dtype=bool)
        hit[keys] = True
        table = np.cumsum(hit) - 1
        refined = int(table[-1]) + 1
        if refined > classes or classes == order:  # order 1 still takes point 0
            table[~hit] = refined
            base.append(b)
            tables.append(table)
            rank = table[keys]
            classes = refined
    if classes != order:
        raise ValueError("duplicate elements")
    for table in tables[:-1]:
        table *= degree
    element_of_rank = np.zeros(order + 1, dtype=np.int64)
    element_of_rank[rank] = np.arange(order)
    tables[-1] = element_of_rank[tables[-1]]
    return base, tables


class PermGroup:
    """Immutable, fully enumerated permutation group.

    Elements are addressed by index. A base (points whose images tell every
    element apart) indexes them through one dense table per base point; a
    lookup is one gather per base point, so products, inverses and
    conjugates of index arrays never hash, sort or compare whole rows.
    """

    def __init__(self, degree: int, elements: np.ndarray, generators: np.ndarray):
        elements = np.ascontiguousarray(elements, dtype=np.int32)
        generators = np.ascontiguousarray(generators, dtype=np.int32)
        elements.setflags(write=False)
        generators.setflags(write=False)
        self.degree = int(degree)
        self.elements = elements
        self.generators = generators
        self.base, self._tables = _base_index(elements)
        self._base_images = elements[:, self.base]
        ident = self._locate(identity_perm(degree)[self.base])
        if not np.array_equal(elements[ident], identity_perm(degree)):
            raise ValueError("identity missing from element list")
        self.identity_index = int(ident)
        # a^-1 sends base point b to the point that a sends to b
        inverse_images = np.array(
            [np.argmax(elements == b, axis=1) for b in self.base], dtype=np.int64
        ).reshape(len(self.base), self.order).T
        self._inverse = self._locate(inverse_images)
        self._centralizer_cache: dict[int, np.ndarray] = {}
        self._s2t_certificate = None  # filled lazily by involq.s2t

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def _locate(self, images) -> np.ndarray:
        """Element indices with the given base images (shape (..., |base|)).

        One gather per base point. Exact for the base images of elements;
        other images in 0..degree-1 reach a sentinel slot and land on element
        0, so a caller looking up outside input range-checks it first and
        confirms the full row.
        """
        slot = 0
        for level, table in enumerate(self._tables):
            slot = table[slot + images[..., level]]
        return slot

    def mul(self, a, b):
        """Indices of (a then b), broadcast over index arrays a and b."""
        b = np.asarray(b)
        return self._locate(self.elements[b[..., None], self._base_images[a]])

    def inv(self, a):
        """Indices of the inverses of the elements with indices a."""
        return self._inverse[a]

    def conj(self, a, h):
        """Indices of h^-1 a h, broadcast over index arrays a and h."""
        first = self.elements[np.expand_dims(a, -1), self._base_images[self._inverse[h]]]
        return self._locate(self.elements[np.expand_dims(h, -1), first])

    def index_of(self, perm):
        """Index of a permutation, or an index array for a stack of rows.

        The base lookup is confirmed on the full row, so a permutation that
        agrees with an element on the base only still raises NotAMember, as
        does a row of non-integers or of images outside 0..degree-1.
        """
        rows = np.asarray(perm)
        if rows.ndim == 0 or rows.shape[-1] != self.degree:
            raise NotAMember(f"degree mismatch: {rows.shape} vs {self.degree}")
        images = rows[..., self.base]
        if rows.dtype.kind not in "iu" or np.any((images < 0) | (images >= self.degree)):
            raise NotAMember(f"images must be integers in 0..{self.degree - 1}")
        idx = self._locate(images)
        # confirmed in row chunks, not by one full-size gather
        at, flat = idx.reshape(-1), rows.reshape(-1, self.degree)
        if hit := least_cell_in_chunks(lambda lo, hi: (self.elements[at[lo:hi]] != flat[lo:hi])
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


def _bfs_enumerate(degree: int, gens: np.ndarray, cap: int) -> np.ndarray:
    """Breadth-first closure from the identity, each new layer sorted by
    image sequence.

    A row's key is its big-endian int32 bytes; images are non-negative, so
    keys compare as bytes in the order of the image sequences and sorting
    the keys sorts the layer.
    """
    width = 4 * degree
    layer = identity_perm(degree)[None, :]
    seen = {layer.astype(">i4").tobytes()}
    layers = [layer]
    while True:
        fresh = set()
        for g in gens:
            block = g[layer].astype(">i4").tobytes()  # rows: u then g
            fresh.update(block[k:k + width] for k in range(0, len(block), width))
        fresh -= seen
        if not fresh:
            break
        seen |= fresh
        keys = b"".join(sorted(fresh))
        layer = np.frombuffer(keys, dtype=">i4").reshape(-1, degree).astype(np.int32)
        layers.append(layer)
        if len(seen) > cap:
            raise OrderCapExceeded(f"group order exceeds cap {cap}")
    return np.concatenate(layers)


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
    # degree above the order cap can be certified
    cap = max_group_order()
    if degree > cap:
        raise OrderCapExceeded(f"degree {degree} exceeds the group order cap {cap}")
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
    if not nf._verified:
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
    elements = np.empty((q - 1, q, q), dtype=np.int32)
    for m in range(1, q):
        elements[m - 1] = nf.add[nf.mul[:, m]].T
    return PermGroup(q, elements.reshape(-1, q), gens)


# ---------------------------------------------------------------------------
# scans


def _element_index(G: PermGroup, g) -> int:
    """g given as an element index or as a permutation row."""
    if not isinstance(g, (int, np.integer)):
        return G.index_of(g)
    if not 0 <= g < G.order:
        raise NotAMember(f"no element with index {g}")
    return int(g)


def _centralizer_scan(G: PermGroup, gi: int) -> np.ndarray:
    """Cen(gi) by one scan of the group: h commutes with g on the base."""
    grow = G.elements[gi]
    return np.nonzero(np.all(grow[G._base_images] == G.elements[:, grow[G.base]], axis=1))[0]


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


def _conjugators(G: PermGroup, gi: int):
    """The class of element gi in enumeration order, and beside each member c
    the least h with h^-1 gi h = c: one conjugation pass and a stable sort."""
    conj = G.conj(gi, np.arange(G.order))
    h = np.argsort(conj, kind="stable")
    first = np.diff(conj[h], prepend=-1) != 0
    return conj[h][first], h[first]


def conjugacy_class(G: PermGroup, g) -> np.ndarray:
    """Element indices of { h^-1 g h : h in G } (g an element index or a
    permutation row), in enumeration order."""
    return _conjugators(G, _element_index(G, g))[0]


def is_subgroup(G: PermGroup, indices) -> bool:
    """True iff the listed elements contain the identity and are
    product-closed, read off one product table built in row chunks."""
    idxs = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
    if np.any(idxs < 0) or np.any(idxs >= G.order):
        raise NotAMember("index out of range")
    member = np.bincount(idxs, minlength=G.order) > 0
    return bool(member[G.identity_index]) and least_cell_in_chunks(
        lambda lo, hi: ~member[G.mul(idxs[lo:hi, None], idxs)], len(idxs), len(idxs)) is None
