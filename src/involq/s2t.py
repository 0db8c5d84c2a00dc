"""Certification of sharp 2-transitivity and the derived element sets.

A degree-d group is sharply 2-transitive iff its order is d(d-1) and it is
transitive on ordered distinct pairs; one pair orbit suffices for the latter
since orbits partition the pairs. The certificate also records the involution
set J, the J x J product table, the translation set (all products of two
involutions), the permutation characteristic (2 when involutions are
fixed-point-free, else the common prime order of nontrivial translations) and
the conjugacy-class flags.

In odd characteristic the certificate raises CharacteristicAnomaly unless
involution -> fixed point is a bijection onto the points; then h^-1 j h is the
involution fixing h(fix j), so conjugates of J are gathers, not group products.

Certificates are cached on the group object; all downstream modules
(geometry, splitting, census) read the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CharacteristicAnomaly,
    CharacteristicTwo,
    NotSharply2Transitive,
    PointOutOfRange,
    PointsEqual,
    UniquenessViolated,
)
from .permgroup import PermGroup, _is_int, centralizer, conjugacy_class, distinct
from .reporting import Check, CheckReport, field_dict, least_cell


@dataclass
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
    # caches for downstream modules, not serialized
    _j: np.ndarray | None = field(default=None, repr=False)
    _jpos: np.ndarray | None = field(default=None, repr=False)  # -1 outside J
    _jj: np.ndarray | None = field(default=None, repr=False)  # (|J|, |J|): i then j
    _j_conj: np.ndarray | None = field(default=None, repr=False)  # odd char; row k: k^-1 j k
    _translations: np.ndarray | None = field(default=None, repr=False)
    _fix_points: np.ndarray | None = field(default=None, repr=False)  # J position -> point
    _j_of_point: np.ndarray | None = field(default=None, repr=False)  # point -> J position
    _j3: np.ndarray | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return field_dict(self)


def _involution_indices(G: PermGroup) -> np.ndarray:
    every = np.arange(G.order)
    is_sq_id = G.mul(every, every) == G.identity_index
    return np.nonzero(is_sq_id & (every != G.identity_index))[0].astype(np.int64)


def _translation_indices(G: PermGroup, cert: S2TCertificate) -> np.ndarray:
    """J.J, and in characteristic 2 also J: there the involutions are the
    nontrivial translations, and J.J may miss them (J.J = {1} at degree 2)."""
    return distinct(np.append(cert._jj, cert._j) if cert.characteristic == 2 else cert._jj)


def _element_orders(G: PermGroup, idxs: np.ndarray) -> np.ndarray:
    """Orders of the elements idxs, from their powers taken all at once."""
    orders = np.zeros(len(idxs), dtype=np.int64)
    power = np.asarray(idxs)
    n = 1
    while True:
        orders[(orders == 0) & (power == G.identity_index)] = n
        if orders.all():
            return orders
        power = G.mul(power, idxs)
        n += 1


def _conjugate_fixed_points(G: PermGroup, cert: S2TCertificate, hs, positions):
    """fix(h^-1 j h) == h(fix j): rows h in hs, columns j at J ``positions``."""
    return G.images(np.asarray(hs)[:, None], cert._fix_points[positions][None, :])


def certify_sharply_2_transitive(G: PermGroup) -> S2TCertificate:
    """Check regularity on ordered distinct pairs and fill the certificate."""
    if G._s2t_certificate is not None:
        return G._s2t_certificate
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
    cert = S2TCertificate(
        degree=d,
        order=order,
        order_ok=order_ok,
        pair_transitive=pair_transitive,
        valid=order_ok and pair_transitive,
    )
    if not order_ok:
        cert.failure = {"check": "order", "expected": expected, "actual": order}
    elif not pair_transitive:
        cert.failure = {"check": "pair-orbit", "missing_pair": list(least_cell(unreached))}

    if cert.valid:
        _fill_certificate(G, cert)
    G._s2t_certificate = cert
    return cert


def _fill_certificate(G: PermGroup, cert: S2TCertificate) -> None:
    d = G.degree
    j_idx = _involution_indices(G)
    if len(j_idx) == 0:
        raise CharacteristicAnomaly("a sharply 2-transitive group has involutions")
    cert._j = j_idx
    cert._jpos = np.full(G.order, -1, dtype=np.int64)
    cert._jpos[j_idx] = np.arange(len(j_idx))
    cert.involution_count = len(j_idx)
    cert._jj = G.mul(j_idx[:, None], j_idx[None, :])

    fixed = G.rows(j_idx) == np.arange(d)
    counts = fixed.sum(axis=1)
    if np.all(counts == 0):
        cert.fixed_point_profile = "all-zero-fixed"
        cert.characteristic = 2
    elif np.all(counts == 1):
        cert.fixed_point_profile = "all-one-fixed"
        fix = fixed.argmax(axis=1).astype(np.int64)
        if not np.array_equal(np.sort(fix), np.arange(d)):
            raise CharacteristicAnomaly("involution -> fixed point is not a bijection")
        cert._fix_points = fix
        cert._j_of_point = np.argsort(fix)  # fix is a permutation of the points
        cert._j_conj = cert._j_of_point[_conjugate_fixed_points(G, cert, j_idx, slice(None))]
    else:
        raise CharacteristicAnomaly("mixed involution fixed-point counts")

    trans = _translation_indices(G, cert)
    cert._translations = trans

    nontrivial = trans[trans != G.identity_index]
    if cert.characteristic != 2:
        orders = distinct(_element_orders(G, nontrivial)).tolist()
        if len(orders) != 1:
            raise CharacteristicAnomaly(f"translation orders not constant: {orders}")
        p = orders[0]
        from .nearfield import is_prime

        if not is_prime(p):
            raise CharacteristicAnomaly(f"translation order {p} is not prime")
        cert.characteristic = p

    cls = conjugacy_class(G, int(j_idx[0]))
    cert.j_single_class = np.array_equal(cls, j_idx)
    if cert.characteristic != 2 and len(nontrivial):
        cls2 = conjugacy_class(G, int(nontrivial[0]))
        cert.j2_single_class = np.array_equal(cls2, nontrivial)


def _require_certified(G: PermGroup) -> S2TCertificate:
    cert = certify_sharply_2_transitive(G)
    if not cert.valid:
        raise NotSharply2Transitive(f"certificate failed: {cert.failure}")
    return cert


def _require_odd_characteristic(G: PermGroup) -> S2TCertificate:
    """The certificate of G, refused in characteristic 2: the involution
    geometry and everything built on it need involutions with fixed points."""
    cert = _require_certified(G)
    if cert.characteristic == 2:
        raise CharacteristicTwo("involutions have no fixed points in characteristic 2")
    return cert


def involutions(G: PermGroup) -> np.ndarray:
    """Element indices of all order-2 elements, in enumeration order."""
    cert = _require_certified(G)
    if cert.j_single_class is not True:
        raise CharacteristicAnomaly("involutions do not form a single conjugacy class")
    return cert._j


def translations(G: PermGroup) -> np.ndarray:
    """Element indices of all products of two involutions (identity included)."""
    cert = _require_certified(G)
    trans = cert._translations
    nontrivial = trans[trans != G.identity_index]
    rows = G.rows(nontrivial)
    if np.any(np.any(rows == np.arange(G.degree), axis=1)):
        raise CharacteristicAnomaly("a nontrivial translation has a fixed point")
    if cert.characteristic != 2 and cert.j2_single_class is not True:
        raise CharacteristicAnomaly("nontrivial translations are not a single class")
    return trans


def characteristic(G: PermGroup) -> int:
    cert = _require_certified(G)
    return int(cert.characteristic)


def swap_involution(G: PermGroup, x: int, y: int) -> np.ndarray:
    """The unique element exchanging the points x and y; always order 2."""
    for point in (x, y):
        if not (_is_int(point) and 0 <= point < G.degree):
            raise PointOutOfRange(f"point {point!r} is not in 0..{G.degree - 1}")
    _require_certified(G)
    if x == y:
        raise PointsEqual(f"need two distinct points, got {x} twice")
    mask = (G.column(x) == y) & (G.column(y) == x)
    hits = np.nonzero(mask)[0]
    if len(hits) != 1:
        raise UniquenessViolated(
            f"{len(hits)} elements swap {x} and {y}; input is not sharply 2-transitive"
        )
    row = G.rows(hits[0])
    if not np.array_equal(row[row], np.arange(G.degree)):
        raise UniquenessViolated(f"unique swapper of ({x},{y}) is not an involution")
    return row


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
    cert = _require_odd_characteristic(G)
    j_idx = cert._j
    n = len(j_idx)
    positions = np.arange(n)
    fix = cert._fix_points
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
        table = _conjugate_fixed_points(G, cert, stack[ipos], others)
        rest = np.delete(np.arange(G.degree), fix[ipos])
        bad = np.nonzero(np.any(np.sort(table, axis=0) != rest[:, None], axis=0))[0]
        witness = (int(j_idx[ipos]), int(j_idx[others[bad[0]]]))
    elif sized < n:
        witness = (int(j_idx[sized]), "centralizer-size", int(sizes[sized]), n - 1)
    checks.append(Check("centralizer-regular-on-other-involutions", witness is None,
                        witness=witness))

    bad = np.nonzero(np.any(np.sort(cert._j_conj, axis=0) != positions[:, None],
                            axis=0))[0]
    witness = (int(j_idx[bad[0]]),) if len(bad) else None
    checks.append(Check("involution-conjugation-regular", witness is None,
                        witness=witness))

    # the centralizer of i meets the translations in {1} exactly when one
    # member is a translation and that member is 1
    is_translation = np.zeros(G.order, dtype=bool)
    is_translation[cert._translations] = True
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


def fixed_point_bijection_ok(G: PermGroup) -> bool:
    """True iff involution -> fixed point is a bijection, as the certificate checked."""
    return _require_odd_characteristic(G)._j_of_point is not None
