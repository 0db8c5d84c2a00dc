"""Certification of sharp 2-transitivity and the derived element sets.

A degree-d group is sharply 2-transitive iff its order is d(d-1) and it is
transitive on ordered distinct pairs; one pair orbit suffices for the latter
since orbits partition the pairs. The certificate records the outcome, the
permutation characteristic (2 when involutions are fixed-point-free, else
the common prime order of nontrivial translations) and the conjugacy-class
flags. A certified group also gets its CertifiedSets, built once as
read-only arrays: J, the J x J table, the translations (all products of two
involutions) and the conjugation table of J.

In odd characteristic certification raises CharacteristicAnomaly unless
involution -> fixed point is a bijection onto the points; then h^-1 j h is the
involution fixing h(fix j), so conjugates of J are gathers, not group products.

This module keeps two caches. The certificate and the sets are cached keyed
weakly by the group, so a dropped group frees them. Every later stage
(geometry, splitting, census) reads the same sets through _require_certified
or _require_odd_characteristic.

The product tables that stages read are built once per certified sets, on
their first read, and kept read-only in the second cache, keyed weakly by
the CertifiedSets object (:func:`_shared_table`): a dropped group frees
them, and sets replaced under a group never meet a table of the old ones.

* T.T (:func:`translation_products`), t_a then t_b over the translations:
  the Neumann split test reads it whole, the odd-subgroup scan through its
  translation positions, and geometry condition (a) its nontrivial block.
* J.J.J (:func:`triple_products`), in odd characteristic: the census, the
  covering scan and the alpha sample read it.
* The X_alpha products and mask of the alpha sample (``census._x_alpha``),
  one per alpha cap: the census and the covering scan read them.

A stage reads a table only where its operands are the arrays it would
multiply; build_geometry and condition (c) multiply distinct(J x J) and the
sigmas, so they keep their own products. Beside these, each group keeps the
conjugation pass of every class it has scanned (``permgroup._class_pass``):
the certificate's conjugacy_class of J[0] and of T[0] and the first
centralizer miss on either share one pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import CharacteristicAnomaly, CharacteristicTwo, NotSharply2Transitive
from .nearfield import is_prime
from .permgroup import PermGroup, centralizer, conjugacy_class, distinct, member_mask
from .reporting import Check, CheckReport, field_dict, least_cell


@dataclass(frozen=True)
class S2TCertificate:
    degree: int
    order: int
    order_ok: bool
    pair_transitive: bool
    valid: bool
    failure: dict | None = None
    involution_count: int | None = None
    fixed_point_profile: str | None = None
    characteristic: int | None = None
    j_single_class: bool | None = None
    j2_single_class: bool | None = None

    def as_dict(self) -> dict:
        return field_dict(self)


@dataclass(frozen=True, eq=False)
class CertifiedSets:
    """The element sets of a certified group, as read-only arrays of element
    indices. The three fields that need fixed points are None in
    characteristic 2."""

    j: np.ndarray                   # the involutions, in enumeration order
    jpos: np.ndarray                # order-length: J position, -1 outside J
    jj: np.ndarray                  # (|J|, |J|): i then j
    translations: np.ndarray        # sorted J.J, and J too in characteristic 2
    fix_points: np.ndarray | None   # J position -> fixed point
    j_conj: np.ndarray | None       # row k: the J positions of k^-1 j k

    def __post_init__(self):
        for array in vars(self).values():
            if array is not None:
                array.setflags(write=False)


# group -> (certificate, its sets or None): entries go with their groups;
# sets -> {name: product table}: entries go with their sets
_certified: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _involution_indices(G: PermGroup) -> np.ndarray:
    every = np.arange(G.order)
    is_sq_id = G.mul(every, every) == G.identity_index
    return np.nonzero(is_sq_id & (every != G.identity_index))[0].astype(np.int64)


def _translation_indices(j: np.ndarray, jj: np.ndarray, char_two: bool) -> np.ndarray:
    """J.J, and in characteristic 2 also J: there the involutions are the
    nontrivial translations, and J.J may miss them (J.J = {1} at degree 2)."""
    return distinct(np.append(jj, j) if char_two else jj)


def _perm_order(row) -> int:
    """The order of one permutation row: the lcm of its cycle lengths."""
    images, seen, order = row.tolist(), [False] * len(row), 1
    for start in range(len(images)):
        length, x = 0, start
        while not seen[x]:
            seen[x], x, length = True, images[x], length + 1
        order = lcm(order, max(length, 1))
    return order


def _powers(G: PermGroup, idxs: np.ndarray, n: int) -> np.ndarray:
    """The n-th powers of the elements idxs, by square-and-multiply over
    G.mul: about 2 log2(n) rounds."""
    power, square = np.full(len(idxs), G.identity_index), idxs
    while n:
        if n & 1:
            power = G.mul(power, square)
        n >>= 1
        if n:
            square = G.mul(square, square)
    return power


def _element_orders(G: PermGroup, idxs: np.ndarray) -> np.ndarray:
    """Orders of the elements idxs, from their powers taken all at once: one
    G.mul round per unit of the largest order."""
    orders = np.zeros(len(idxs), dtype=np.int64)
    power = np.asarray(idxs)
    n = 1
    while True:
        orders[(orders == 0) & (power == G.identity_index)] = n
        if orders.all():
            return orders
        power = G.mul(power, idxs)
        n += 1


def _conjugate_fixed_points(G: PermGroup, fix: np.ndarray, hs, positions):
    """fix(h^-1 j h) == h(fix j): rows h in hs, columns j at J ``positions``."""
    return G.images(np.asarray(hs)[:, None], fix[positions][None, :])


def certify_sharply_2_transitive(G: PermGroup) -> S2TCertificate:
    """Check regularity on ordered distinct pairs; on success also build the
    certified sets. Both are cached for the life of G."""
    if G not in _certified:
        _certified[G] = _certify(G)
    return _certified[G][0]


def _certify(G: PermGroup) -> tuple[S2TCertificate, CertifiedSets | None]:
    d = G.degree
    if d < 2:
        raise ValueError("need degree >= 2")
    order = G.order
    expected = d * (d - 1)
    order_ok = order == expected

    # cell (x, y) stays set while no element sends 0 to x and 1 to y; fewer
    # than d(d - 1) elements cannot reach every pair, so then no (d, d) mask
    pair_transitive = False
    if order >= expected:
        unreached = ~np.eye(d, dtype=bool)
        unreached[G.column(0), G.column(1)] = False
        pair_transitive = not unreached.any()
    if not (order_ok and pair_transitive):
        failure = ({"check": "order", "expected": expected, "actual": order} if not order_ok
                   else {"check": "pair-orbit", "missing_pair": list(least_cell(unreached))})
        return S2TCertificate(d, order, order_ok, pair_transitive, False, failure), None

    # J is not empty: the element swapping 0 and 1 squares to an element
    # fixing both, which is the identity
    j_idx = _involution_indices(G)
    jpos = np.full(G.order, -1, dtype=np.int64)
    jpos[j_idx] = np.arange(len(j_idx))
    jj = G.mul(j_idx[:, None], j_idx[None, :])

    fixed = G.rows(j_idx) == np.arange(d)
    fix = j_conj = None
    # the involutions are one conjugacy class, so they all fix as many
    # points, and none fixes two
    if not fixed.any():
        profile = "all-zero-fixed"
    else:
        profile = "all-one-fixed"
        fix = fixed.argmax(axis=1).astype(np.int64)
        if not np.array_equal(np.sort(fix), np.arange(d)):
            raise CharacteristicAnomaly("involution -> fixed point is not a bijection")
        j_of_point = np.argsort(fix)  # fix is a permutation of the points
        j_conj = j_of_point[_conjugate_fixed_points(G, fix, j_idx, slice(None))]

    trans = _translation_indices(j_idx, jj, fix is None)
    nontrivial = trans[trans != G.identity_index]
    p, j2_single = 2, None
    if fix is not None:
        # fix is a bijection, so there are degree >= 3 involutions, and two
        # distinct ones give a nontrivial translation. With p the order of
        # the first, the orders are one prime exactly when p is prime and
        # every p-th power is the identity; only a refusal computes them all
        p = _perm_order(G.rows(int(nontrivial[0])))
        if not is_prime(p) or (_powers(G, nontrivial, p) != G.identity_index).any():
            orders = distinct(_element_orders(G, nontrivial)).tolist()
            if len(orders) != 1:
                raise CharacteristicAnomaly(f"translation orders not constant: {orders}")
            raise CharacteristicAnomaly(f"translation order {p} is not prime")
        j2_single = np.array_equal(conjugacy_class(G, int(nontrivial[0])), nontrivial)

    j_single = np.array_equal(conjugacy_class(G, int(j_idx[0])), j_idx)
    cert = S2TCertificate(d, order, True, True, True, involution_count=len(j_idx),
                          fixed_point_profile=profile, characteristic=p,
                          j_single_class=j_single, j2_single_class=j2_single)
    return cert, CertifiedSets(j_idx, jpos, jj, trans, fix, j_conj)


def _require_certified(G: PermGroup) -> CertifiedSets:
    cert = certify_sharply_2_transitive(G)
    if not cert.valid:
        raise NotSharply2Transitive(f"certificate failed: {cert.failure}")
    return _certified[G][1]


def _require_odd_characteristic(G: PermGroup) -> CertifiedSets:
    """The certified sets of G, refused in characteristic 2: the involution
    geometry and everything built on it need involutions with fixed points."""
    sets = _require_certified(G)
    if sets.fix_points is None:
        raise CharacteristicTwo("involutions have no fixed points in characteristic 2")
    return sets


def _shared_table(sets: CertifiedSets, key, build):
    """The product table of ``sets`` under ``key``: ``build()`` on its first
    read, then kept for the life of sets."""
    tables = _tables.setdefault(sets, {})
    if key not in tables:
        tables[key] = build()
    return tables[key]


def translation_products(G: PermGroup) -> np.ndarray:
    """The (|T|, |T|) table of element indices of t_a then t_b over the
    certified translations t, read-only: built on the first read and kept
    for the life of the certified sets."""
    sets = _require_certified(G)

    def build():
        table = G.mul(sets.translations[:, None], sets.translations[None, :])
        table.setflags(write=False)
        return table
    return _shared_table(sets, "translation products", build)


def triple_products(G: PermGroup) -> np.ndarray:
    """Element indices of J.J.J, sorted and read-only, in odd characteristic:
    J times the translations, built on the first read and kept for the life
    of the certified sets."""
    sets = _require_odd_characteristic(G)

    def build():
        j3 = distinct(G.mul(sets.j[:, None], sets.translations[None, :]))
        j3.setflags(write=False)
        return j3
    return _shared_table(sets, "triple products", build)


def involutions(G: PermGroup) -> np.ndarray:
    """Element indices of all order-2 elements, in enumeration order. In a
    certified group they are one conjugacy class."""
    return _require_certified(G).j


def translations(G: PermGroup) -> np.ndarray:
    """Element indices of all products of two involutions (identity included).
    In a certified group the nontrivial ones have no fixed point, and in odd
    characteristic they are one conjugacy class."""
    return _require_certified(G).translations


def characteristic(G: PermGroup) -> int:
    _require_certified(G)
    return int(certify_sharply_2_transitive(G).characteristic)


def verify_basic_properties(G: PermGroup) -> CheckReport:
    """Exhaustive check of the three standard regularity facts (char != 2):

    (a) the centralizer of each involution acts regularly, by conjugation,
        on the remaining involutions;
    (b) for any involutions i, j there is a unique involution k with
        k^-1 i k = j;
    (c) the translations meet every involution centralizer only in 1.

    Involution -> fixed point is a bijection (the certificate checks it) and
    fix(c^-1 j c) == c(fix j), so (a) holds for i exactly when, for every
    other involution j, the column of points c(fix j) over c in Cen(i) lists
    every point but fix(i) once. That holds exactly when Cen(i) has n - 1
    distinct members and each fixes fix(i):

    * if every column passes, two equal members would repeat a point, and a
      member sending some fix(j) to fix(i) would put fix(i) in a column;
    * conversely, n - 1 distinct members of Stab(fix i) are all of it, as
      the certified sharp 2-transitivity gives it exactly d - 1 = n - 1
      elements, acting regularly on the other points.

    So one (n, n - 1) gather over the stacked centralizers decides every i,
    and the column table is built only for the first failing i, to read its
    witness. (c) reads the same stack.
    """
    sets = _require_odd_characteristic(G)
    j_idx = sets.j
    n = len(j_idx)
    positions = np.arange(n)
    fix = sets.fix_points
    checks = []

    cens = [centralizer(G, int(j)) for j in j_idx.tolist()]
    sizes = np.array([len(cen) for cen in cens])
    members = np.concatenate(cens)
    owner = np.repeat(positions, sizes)

    # the rows before the first wrong size stack to an (s, n - 1) table
    wrong_size = np.flatnonzero(sizes != n - 1)
    sized = int(wrong_size[0]) if len(wrong_size) else n
    stack = members[:sized * (n - 1)].reshape(sized, n - 1)
    regular = ((np.diff(np.sort(stack, axis=1), axis=1) != 0).all(axis=1)
               & (G.images(stack, fix[:sized, None]) == fix[:sized, None]).all(axis=1))
    witness = None
    if not regular.all():
        ipos = int(np.argmin(regular))
        # column p: the points fixed by c^-1 j_p c over c in the centralizer
        others = positions[positions != ipos]
        table = _conjugate_fixed_points(G, fix, stack[ipos], others)
        rest = np.delete(np.arange(G.degree), fix[ipos])
        bad = np.nonzero(np.any(np.sort(table, axis=0) != rest[:, None], axis=0))[0]
        witness = (int(j_idx[ipos]), int(j_idx[others[bad[0]]]))
    elif sized < n:
        witness = (int(j_idx[sized]), "centralizer-size", int(sizes[sized]), n - 1)
    checks.append(Check("centralizer-regular-on-other-involutions", witness is None,
                        witness=witness))

    bad = np.nonzero(np.any(np.sort(sets.j_conj, axis=0) != positions[:, None],
                            axis=0))[0]
    witness = (int(j_idx[bad[0]]),) if len(bad) else None
    checks.append(Check("involution-conjugation-regular", witness is None,
                        witness=witness))

    # the centralizer of i meets the translations in {1} exactly when one
    # member is a translation and that member is 1
    is_translation = member_mask(G, sets.translations)
    meets = is_translation[members]
    trivial = ((np.bincount(owner[meets], minlength=n) == 1)
               & (np.bincount(owner[meets & (members == G.identity_index)], minlength=n) == 1))
    witness = None
    if not trivial.all():
        ipos = int(np.argmin(trivial))
        cen = cens[ipos]
        witness = (int(j_idx[ipos]), cen[is_translation[cen]].tolist())
    checks.append(Check("translations-meet-centralizers-trivially", witness is None,
                        witness=witness))

    return CheckReport("basic regularity properties", checks)
