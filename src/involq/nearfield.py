"""Finite near-fields as explicit addition/multiplication tables.

Two constructions are provided:

* ``make_field(p, e)`` -- the field GF(p^e) over the lexicographically least
  monic irreducible polynomial f of degree e over GF(p), built for every e,
  e = 1 included, by Horner's rule over the base-p digits (see there).
* ``make_dickson(q, n)`` -- the twisted near-field of order q^n obtained from
  GF(q^n) by replacing multiplication with ``x * y = frob(x, r(y)) * y``,
  where ``r(y)`` is the twist class of ``y``.

Elements are the indices 0..order-1; ``0`` is the additive and ``1`` the
multiplicative identity in every table produced here. A near-field keeps the
additive group of its field but is only right-distributive, which is the
convention matching the affine action ``x -> (x mul m) add a`` used by
:func:`involq.permgroup.affine_group`.

Index encoding for GF(p^e): the element ``sum c_i * X**i`` (polynomial basis
modulo f) has index ``sum c_i * p**i``. "Lexicographically least"
irreducible means the non-leading coefficient vector, read from the highest
degree down, is smallest -- equivalently the polynomial whose coefficient
digits encode the smallest base-p integer.

Tables are numpy int32 arrays, write-protected after construction, so values
are immutable and safe to share.

:func:`verify_nearfield_axioms` decides every axiom exactly. The quadratic
ones are scanned whole; associativity is reduced to q**2 checks per element
of a small generating set (Light's test), and each distributive law to the
additivity, on the additive generators, of the maps x -> x c (or c x) of 0
and the multiplicative generators, every c when multiplication is not
associative. The cubic scan over all triples only locates the least witness
of a law that fails. Table builds and scans run
in the row chunks of :mod:`involq.reporting`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import max_nearfield_order
from .errors import (
    AxiomFailure,
    ConstructionSanityFailure,
    EvenCharacteristicUnsupported,
    InvolqError,
    NotDicksonPair,
    NotPrime,
    OrderCapExceeded,
)
from .reporting import (
    Check,
    CheckReport,
    chunk_rows,
    in_chunks,
    least_cell,
    least_cell_in_chunks,
)

# ---------------------------------------------------------------------------
# small integer helpers


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q == p**e, or None if q is not a prime power."""
    ps = prime_factors(q)
    if len(ps) != 1:
        return None
    p = ps[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), little-endian coefficient lists


def _poly_divisible(num: list[int], den: list[int], p: int) -> bool:
    """True if den (monic) divides num over GF(p)."""
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[dd + k]
        if c:
            for i in range(dd + 1):
                num[i + k] = (num[i + k] - c * den[i]) % p
    return not any(num[:dd])


def _digits(k: int, p: int, e: int) -> list[int]:
    return [(k // p**i) % p for i in range(e)]


def least_irreducible(p: int, e: int) -> list[int]:
    """Least monic irreducible of degree e over GF(p), little-endian coeffs.

    Candidates x^e + c are scanned in increasing order of the base-p integer
    encoded by the coefficient digits of c; a candidate is irreducible iff no
    monic polynomial of degree 1..e//2 divides it.
    """
    divisors = []
    for d in range(1, e // 2 + 1):
        for t in range(p**d):
            divisors.append(_digits(t, p, d) + [1])
    # an irreducible of every degree exists, so the scan always returns
    candidates = (_digits(k, p, e) + [1] for k in range(p**e))
    return next(cand for cand in candidates
                if all(not _poly_divisible(cand, den, p) for den in divisors))


# ---------------------------------------------------------------------------
# the NearField value


class NearField:
    """An order-q algebra given by total add/mul tables on indices 0..q-1.

    ``zero`` is index 0 and ``one`` is index 1. ``char_p`` is the additive
    order of ``one`` (0 if that order is not finite, which only happens for
    hand-built broken tables). The constructor performs shape checks only;
    axioms are the business of :func:`verify_nearfield_axioms`, so that
    deliberately corrupted tables can be built and reported on.
    """

    def __init__(self, order: int, family: str, add, mul):
        add = np.ascontiguousarray(add, dtype=np.int32)
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        if add.shape != (order, order) or mul.shape != (order, order):
            raise ValueError("tables must be order x order")
        if order < 2:
            raise ValueError("need at least the elements 0 and 1")
        if add.min() < 0 or add.max() >= order or mul.min() < 0 or mul.max() >= order:
            raise ValueError("table entries out of range")
        add.setflags(write=False)
        mul.setflags(write=False)
        self.order = int(order)
        self.family = family
        self.add = add
        self.mul = mul
        self.char_p = _order(add, 1, 0, order + 1)
        self._verified = False

    @property
    def is_field_family(self) -> bool:
        return self.family.startswith("field(")

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "family": self.family,
            "add": self.add.tolist(),
            "mul": self.mul.tolist(),
        }

    def __repr__(self):
        return f"NearField(order={self.order}, family={self.family!r})"


def nearfield_from_json(doc: dict) -> NearField:
    return NearField(int(doc["order"]), str(doc["family"]), doc["add"], doc["mul"])


def _order(table: np.ndarray, g: int, identity: int, bound: int) -> int:
    """Least k with the k-fold ``table`` power of g equal to ``identity``, or 0
    when no k <= bound is (only a broken table has such a g)."""
    cur, count = g, 1
    while cur != identity:
        cur = int(table[cur, g])
        count += 1
        if count > bound:
            return 0
    return count


# ---------------------------------------------------------------------------
# field construction


def make_field(p: int, e: int = 1) -> NearField:
    """Build GF(p^e) as index tables.

    The representation is canonical: polynomial basis modulo
    f = :func:`least_irreducible`. ``add`` sums base-p digits mod p; ``a * b``
    is Horner's rule over the digits of ``a``, top first: multiply by X, add
    the digit times ``b``. For e = 1, f = X, so X is 0 and this is the
    product mod p. Identical inputs produce identical tables.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be integers")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("e must be >= 1")
    q = p**e
    cap = max_nearfield_order()
    if q > cap:
        raise OrderCapExceeded(f"order {q} exceeds cap {cap}")

    f = least_irreducible(p, e)
    pw = p ** np.arange(e, dtype=np.int64)
    digits = (np.arange(q, dtype=np.int64)[:, None] // pw) % p
    # add one digit at a time, the new digit on top: for a = hi * size + lo,
    # add[a, b] = (hi_a + hi_b mod p) * size + add[lo_a, lo_b]
    digit_add = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(np.int32)
    add = np.zeros((1, 1), dtype=np.int32)
    for size in pw.tolist():
        add = (digit_add[:, None, :, None] * size + add[:, None, :]).reshape(p * size, -1)
    # times[d, b] = d * b digit by digit; x_times[c] = c * X: shift the digits
    # up and fold the top digit back through X**e = -(f - X**e)
    times = ((np.arange(p)[:, None, None] * digits) % p) @ pw
    fold = int((-np.array(f[:e]) % p) @ pw)
    x_times = add[digits[:, :-1] @ pw[1:], times[digits[:, -1], fold]].astype(np.int64)
    # Horner's rule by flat gathers from add, over row chunks, so the only
    # full-size arrays are the two int32 tables
    flat_add, mul = add.ravel(), np.empty((q, q), dtype=np.int32)
    rows = chunk_rows(q)
    for lo in range(0, q, rows):
        top = digits[lo:lo + rows]
        part = times[top[:, -1]]
        for i in range(e - 2, -1, -1):
            part = flat_add[x_times[part] * q + times[top[:, i]]]
        mul[lo:lo + rows] = part
    nf = NearField(q, f"field({p},{e})", add, mul)
    nf.modulus = f
    return _require_axioms(nf, ConstructionSanityFailure)


# ---------------------------------------------------------------------------
# Dickson near-fields


def is_dickson_pair(q: int, n: int) -> bool:
    """True iff every prime divisor of n divides q-1, and q = 1 mod 4 when 4 | n."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    if any((q - 1) % r != 0 for r in prime_factors(n)):
        return False
    if n % 4 == 0 and q % 4 != 1:
        return False
    return True


def make_dickson(q: int, n: int) -> NearField:
    """Build the Dickson near-field of order q^n (q an odd prime power, n >= 2).

    Underlying additive group: GF(q^n). Multiplication: ``x * y`` is the field
    product of ``y`` with ``x`` raised to the q^r-th power, r being the twist
    class of y. Classes: fix the least-index generator g of GF(q^n)*; the
    class of ``y = g**i`` is the unique r in 0..n-1 with
    ``i = (q**r - 1)/(q - 1) (mod n)``. One lookup of ``i mod n`` gives every
    class, and one gather through the q^r-th power maps fills the table. For
    a Dickson pair the classes partition the nonzero elements into n blocks
    of size (q^n - 1)/n: the anchors (q^r - 1)/(q - 1), r < n, are distinct
    mod n, and n divides q^n - 1. The finished table is then checked exactly
    against every required near-field axiom.
    """
    pe = prime_power(q)
    if pe is None:
        raise NotDicksonPair(f"{q} is not a prime power")
    if not is_dickson_pair(q, n):
        raise NotDicksonPair(f"({q},{n}) is not a Dickson pair")
    if q % 2 == 0:
        raise EvenCharacteristicUnsupported("even q is not supported")
    if n < 2:
        raise ValueError("need n >= 2; use make_field for n = 1")
    p, e = pe
    order = q**n
    K = make_field(p, e * n)
    m = order - 1

    # K passed the field gate, so K* is cyclic and g has order m: its powers
    # are every nonzero element
    g = next(c for c in range(2, order) if _order(K.mul, c, 1, m) == m)
    dlog = np.full(order, -1, dtype=np.int64)
    dlog[1] = 0
    cur = 1
    for i in range(1, m):
        cur = int(K.mul[cur, g])
        dlog[cur] = i

    # twist_class[i % n] is the r whose anchor exponent (q**r - 1)/(q - 1) is
    # i mod n; 0 (dlog -1) lands in some class, and its column is 0 whatever r
    anchors = [((q**r - 1) // (q - 1)) % n for r in range(n)]
    twist_class = np.argsort(anchors)
    class_of = twist_class[dlog % n]

    # x -> x^q as an index permutation; frob_qr[r] is its r-th iterate x^(q^r)
    idx = np.arange(order, dtype=np.int64)
    frob_q = idx
    for _ in range(q - 1):
        frob_q = K.mul[frob_q, idx]
    frob_qr = [idx]
    for _ in range(1, n):
        frob_qr.append(frob_q[frob_qr[-1]])
    frob_qr = np.array(frob_qr)

    # mul[x, y] = K.mul[frob_qr[class_of[y], x], y]
    mul = K.mul[frob_qr[class_of].T, idx]
    return _require_axioms(NearField(order, f"dickson({q},{n})", K.add, mul),
                           ConstructionSanityFailure)


# ---------------------------------------------------------------------------
# axiom verification: each law is decided exactly by a reduction; the cube is
# scanned only to locate the least witness of a law that fails


def _generators(t: np.ndarray, members: np.ndarray) -> list[int]:
    """A greedy generating set of the magma (S, t), S being the True cells of
    the boolean mask ``members``. S must be closed under ``t``; both callers
    have decided that already (every element under ``add``, whose entries
    the constructor range-checks, and the nonzero elements under ``mul``
    once ``mul-nonzero-closure`` passed).

    The least element of S outside the closure so far joins the set, and the
    closure grows by masks: each round takes the products, both ways round,
    of the elements the previous round found with every element found so
    far, so each product is taken at most twice; the products are taken in
    chunks of the new elements. No labelling is assumed.
    (``take`` and ``put`` cost a fraction of fancy indexing on small tables.)"""
    inside = np.zeros(len(t), dtype=bool)
    step = chunk_rows(len(t))  # new elements per chunk of products
    gens = []
    while (rest := (members > inside).nonzero()[0]).size:
        new = rest[:1]
        gens.append(int(new[0]))
        while new.size:
            inside[new] = True
            old = inside.nonzero()[0]
            grown = inside.copy()
            for lo in range(0, len(new), step):
                part = new[lo:lo + step]
                grown.put(t.take(part, 0).take(old, 1), True)
                grown.put(t.take(part, 1).take(old, 0), True)
            new = (grown > inside).nonzero()[0]
    return gens


def _first_mismatch3(lhs_fn, q: int) -> tuple | None:
    """Least (a,b,c) where the triple comparison, chunked over a, fails, else
    None: the witness of a law the reductions found broken or could not try."""
    return least_cell_in_chunks(lhs_fn, q, q * q)


def _law_witness(reduced, gens: list[int] | None, cube, q: int, width: int,
                 first=None) -> tuple | None:
    """None when ``reduced(g, lo, hi)``, the rows lo:hi of a q x ``width``
    mask of failures, is clear for every g in ``gens``; otherwise, or when no
    ``gens`` apply, the cube's least witness. When the ``gens`` apply and
    ``first()`` gives the first coordinate of that witness, only its slab of
    the cube is read."""
    if gens is not None:
        if not any(least_cell_in_chunks(lambda lo, hi: reduced(g, lo, hi), q, width) is not None
                   for g in gens):
            return None
        if first is not None:
            a = first()
            return (a,) + least_cell(cube(a, a + 1))[1:]
    return _first_mismatch3(cube, q)


def verify_nearfield_axioms(nf: NearField) -> CheckReport:
    """Decide every near-field invariant of ``nf`` exactly.

    The quadratic checks scan all their tuples. The four cubic laws are
    decided by two reductions, A being a greedy generating set
    (:func:`_generators`):

    * Associativity, by Light's test: if (x a) y = x (a y) for all x, y and
      each a in A, the law holds. The a that pass form a submagma: for a, b
      passing, (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y))
      = x ((a b) y). It contains A, so it is everything. For ``mul``, A
      generates K*; that needs nonzero closure, and zero annihilation
      settles every triple holding 0.
    * Distributivity, once ``add`` is associative: a map f is additive if
      f(x add g) = f(x) add f(g) for all x and each g in A_add, since the g
      that pass are closed under ``add``: f(x add (g add h))
      = f((x add g) add h) = (f(x) add f(g)) add f(h) = f(x) add f(g add h).
      The maps are x -> x mul c (right distributivity) and x -> c mul x
      (left distributivity). When ``mul`` is associative, x (c d) = (x c) d
      and (c d) x = c (d x), so the map of c d is a composition of the maps
      of c and d; a composition of additive maps is additive, so the c
      whose map is additive are closed under ``mul``. If they hold 0 and
      A_mul, they are all of K. So only those 1 + |A_mul| maps are read,
      and each law costs q |A_add| (1 + |A_mul|) cells; otherwise every c
      is read, q**2 |A_add| cells.

    A failing reduced check exhibits a violating triple, so a law fails
    exactly when its reduction fails. Only then, or when a reduction's
    premise fails, is the cube scanned (chunked over the first coordinate)
    to find the witness; but left distributivity fails at a exactly when the
    map x -> a mul x fails additivity, so with ``add`` associative the
    reduction tried on every map gives the witness's a, and only that
    q x q slab is read. Failures carry the lexicographically least
    violating tuple, read by :func:`involq.reporting.least_cell`. Every scan
    that would hold a q x q temporary other than a boolean mask runs in row
    chunks (:func:`involq.reporting.least_cell_in_chunks`), so the gate's
    memory stays near that of one mask beside the tables.
    Commutativity and left distributivity are only *required* for the field
    family; for other families they are still evaluated and reported with
    required=False.
    """
    q = nf.order
    add, mul = nf.add, nf.mul
    idx = np.arange(q, dtype=np.int64)
    nonzero = idx > 0
    checks: list[Check] = []

    def light(t):  # (xa)y vs x(ay), rows x
        return lambda a, lo, hi: t.take(t[lo:hi, a], 0) != t[lo:hi].take(t[a], 1)

    def associativity(t):
        return lambda lo, hi: t[t[lo:hi]] != t[lo:hi][:, t]   # (ab)c vs a(bc)

    add_gens = _generators(add, np.ones(q, dtype=bool))
    w = _law_witness(light(add), add_gens, associativity(add), q, q)
    checks.append(Check("add-associativity", w is None, witness=w))
    if w is not None:
        add_gens = None                    # the distributive reductions need it

    w = least_cell(add != add.T)
    checks.append(Check("add-commutativity", w is None, witness=w))

    w = least_cell((add[:, 0] != idx) | (add[0, :] != idx))
    checks.append(Check("add-identity", w is None, witness=w))

    w = least_cell(~np.any(add == 0, axis=1))
    checks.append(Check("add-inverses", w is None, witness=w))

    # char_p prime and char_p . x == 0 for every x
    w = (1,)
    if is_prime(nf.char_p):
        acc = np.zeros(q, dtype=np.int64)
        for _ in range(nf.char_p):
            acc = add[acc, idx]
        w = least_cell(acc != 0)
    checks.append(
        Check("add-exponent-char", w is None, witness=w,
              note=f"char_p={nf.char_p}")
    )

    w = least_cell((mul[0, :] != 0) | (mul[:, 0] != 0))
    checks.append(Check("mul-zero-annihilation", w is None, witness=w))
    annihilates = w is None

    w = least_cell_in_chunks(
        lambda lo, hi: (mul[lo:hi] == 0) & nonzero[lo:hi, None] & nonzero, q, q)
    checks.append(Check("mul-nonzero-closure", w is None, witness=w))

    mul_gens = _generators(mul, nonzero) if annihilates and w is None else None
    w = _law_witness(light(mul), mul_gens, associativity(mul), q, q)
    checks.append(Check("mul-associativity", w is None, witness=w))
    # the c whose maps decide distributivity (see above); the slice, every c,
    # keeps mul a view
    maps = [0] + mul_gens if mul_gens is not None and w is None else slice(None)

    w = least_cell((mul[:, 1] != idx) | (mul[1, :] != idx))
    checks.append(Check("mul-identity", w is None, witness=w))

    # a != 0 needs some b != 0 with a mul b == b mul a == 1
    def lacks_inverse(lo, hi):
        inverse = (mul[lo:hi] == 1) & (mul[:, lo:hi].T == 1) & nonzero
        return nonzero[lo:hi] & ~inverse.any(axis=1)

    w = least_cell_in_chunks(lacks_inverse, q, q)
    checks.append(Check("mul-inverses", w is None, witness=w))

    required_extra = nf.is_field_family
    note = "" if required_extra else "not required for near-fields"

    w = least_cell(mul != mul.T)
    checks.append(Check("mul-commutativity", w is None, required=required_extra,
                        witness=w, note=note))

    # column c of f is a map: f(x add g) vs f(x) add f(g), the sum read from
    # the flat add table (twice as fast as a 2-d gather)
    def additivity(f):
        return lambda g, lo, hi: (f.take(add[lo:hi, g], 0)
                                  != add.take(f[lo:hi].astype(np.int64) * q + f[g]))

    def rdist(lo, hi):
        lhs = mul[add[lo:hi]]                      # (a add b) mul c
        rhs = add[mul[lo:hi][:, None, :], mul[None, :, :]]
        return lhs != rhs

    def ldist(lo, hi):
        lhs = mul[lo:hi][:, add]                   # a mul (b add c)
        part = mul[lo:hi]
        rhs = add[part[:, :, None], part[:, None, :]]
        return lhs != rhs

    def least_nonadditive():
        """The least a whose map x -> a mul x some g in add_gens shows is not
        additive, read from every map: a mul (b add c) fails for some b, c
        exactly then, as the g that pass are closed under (associative) add."""
        fails, mask = np.zeros(q, dtype=bool), additivity(mul.T)  # column a: x -> a mul x
        for g in add_gens:
            fails |= in_chunks(lambda lo, hi: mask(g, lo, hi).any(axis=0)[None], q, q).any(axis=0)
        return int(np.argmax(fails))

    for name, f, cube, first, required in (
        ("right-distributivity", mul[:, maps], rdist, None, True),         # x -> x mul c
        ("left-distributivity", mul[maps].T, ldist, least_nonadditive,    # x -> c mul x
         required_extra),
    ):
        w = _law_witness(additivity(f), add_gens, cube, q, f.shape[1], first)
        checks.append(Check(name, w is None, required=required, witness=w,
                            note="" if required else note))

    checks.sort(key=lambda c: (c.name, c.witness or ()))
    return CheckReport(f"near-field axioms for {nf.family}", checks)


def _require_axioms(nf: NearField, error: type[InvolqError]) -> NearField:
    """The axiom gate: decide every axiom of ``nf`` unless it is verified (its
    tables are read-only), raise ``error`` naming the first failed required
    axiom and its witness, else mark ``nf`` verified."""
    if not nf._verified:
        report = verify_nearfield_axioms(nf)
        if not report.ok:
            bad = report.failures()[0]
            raise error(f"{nf.family} fails axiom {bad.name} at {bad.witness}")
        nf._verified = True
    return nf


@dataclass(frozen=True)
class MultiplicativeGroupSummary:
    """Brute-force shape of the nonzero elements under multiplication."""

    order: int
    abelian: bool
    involution_count: int
    exponent: int
    element_orders: tuple[int, ...]


def multiplicative_group_summary(nf: NearField) -> MultiplicativeGroupSummary:
    """Raises AxiomFailure when some nonzero element has no finite order
    under ``mul``, which a hand-built table can have."""
    q = nf.order
    mul = nf.mul
    orders = [_order(mul, a, 1, q) for a in range(1, q)]
    if 0 in orders:
        raise AxiomFailure(f"element {orders.index(0) + 1} has no finite order")
    sub = mul[1:, 1:]
    return MultiplicativeGroupSummary(
        order=q - 1,
        abelian=bool(np.array_equal(sub, sub.T)),
        involution_count=sum(1 for o in orders if o == 2),
        exponent=math.lcm(*orders),
        element_orders=tuple(sorted(orders)),
    )
