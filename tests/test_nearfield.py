"""Near-field construction and axiom-scan tests.

The oracles here are independent of the vectorized code in the package: a
deliberately naive pure-Python scan of the 13 axiom checks
(`naive_witnesses`), the whole q**3 cube of each cubic law
(`cube_witnesses`), schoolbook digit-polynomial field tables
(`schoolbook_field`) and a brute-force twisted Dickson product. Each sees the
same inputs as the package and must agree with it.
"""

import math

import numpy as np
import pytest

from involq import (
    AxiomFailure,
    EvenCharacteristicUnsupported,
    NearField,
    NotDicksonPair,
    NotPrime,
    OrderCapExceeded,
    is_dickson_pair,
    make_dickson,
    make_field,
    multiplicative_group_summary,
    nearfield_from_json,
    verify_nearfield_axioms,
)
from involq import nearfield, reporting
from involq.catalog import run_catalog
from involq.config import DEFAULT_NEARFIELD_ORDER_CAP
from involq.errors import InputError
from involq.nearfield import _generators, least_irreducible
from involq.splitting import coordinatize


# ---------------------------------------------------------------------------
# independent oracles

EXTRA = {"mul-commutativity", "left-distributivity"}  # required of fields only


def naive_witnesses(add, mul):
    """Exhaustive pure-Python scan of the 13 axiom checks: each name maps to
    its least violating tuple in lexicographic order, or None."""
    q = len(add)
    out = {}

    def first(name, tuples, bad):
        out[name] = next((t for t in tuples if bad(*t)), None)

    pairs = [(a, b) for a in range(q) for b in range(q)]
    triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    singles = [(a,) for a in range(q)]
    first("add-associativity", triples, lambda a, b, c: add[add[a][b]][c] != add[a][add[b][c]])
    first("add-commutativity", pairs, lambda a, b: add[a][b] != add[b][a])
    first("add-identity", singles, lambda a: add[a][0] != a or add[0][a] != a)
    first("add-inverses", singles, lambda a: all(add[a][b] != 0 for b in range(q)))
    char, cur = 1, 1  # the additive order of 1, 0 when the walk from 1 never reaches 0
    while cur != 0 and char <= q:
        cur, char = add[cur][1], char + 1
    char = 0 if cur != 0 else char

    def char_multiple(x):
        acc = 0
        for _ in range(char):
            acc = add[acc][x]
        return acc

    if char < 2 or any(char % d == 0 for d in range(2, char)):
        out["add-exponent-char"] = (1,)
    else:
        first("add-exponent-char", singles, lambda x: char_multiple(x) != 0)
    first("mul-zero-annihilation", singles, lambda a: mul[a][0] != 0 or mul[0][a] != 0)
    first("mul-nonzero-closure", pairs, lambda a, b: a and b and mul[a][b] == 0)
    first("mul-associativity", triples, lambda a, b, c: mul[mul[a][b]][c] != mul[a][mul[b][c]])
    first("mul-identity", singles, lambda a: mul[a][1] != a or mul[1][a] != a)
    first("mul-inverses", singles, lambda a: a and not any(
        mul[a][b] == 1 and mul[b][a] == 1 for b in range(1, q)))
    first("right-distributivity", triples,
          lambda a, b, c: mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]])
    first("mul-commutativity", pairs, lambda a, b: mul[a][b] != mul[b][a])
    first("left-distributivity", triples,
          lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]])
    return out


def naive_axiom_violations(add, mul, require_two_sided=False):
    """Names of the axioms the naive scan finds violated; the two extras only
    when two-sided laws are required."""
    return {name for name, w in naive_witnesses(add, mul).items()
            if w is not None and (require_two_sided or name not in EXTRA)}


CUBIC = ("add-associativity", "mul-associativity", "right-distributivity",
         "left-distributivity")


def cube_witnesses(add, mul):
    """Least violating triple of each cubic law, from the whole q**3 cube."""
    q = len(add)
    add, mul = add.astype(np.int64), mul.astype(np.int64)
    a, b, c = np.ix_(np.arange(q), np.arange(q), np.arange(q))
    cubes = {
        "add-associativity": add[add[a, b], c] != add[a, add[b, c]],
        "mul-associativity": mul[mul[a, b], c] != mul[a, mul[b, c]],
        "right-distributivity": mul[add[a, b], c] != add[mul[a, c], mul[b, c]],
        "left-distributivity": mul[a, add[b, c]] != add[mul[a, b], mul[a, c]],
    }
    return {name: tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None
            for name, bad in cubes.items()}


def schoolbook_field(p, e):
    """GF(p^e) by digit-polynomial arithmetic: add digit by digit, multiply by
    convolving the digit vectors and reducing the top coefficients, highest
    first, through the monic f = least_irreducible(p, e)."""
    f = least_irreducible(p, e)
    q = p**e
    weights = p ** np.arange(e)
    digits = (np.arange(q)[:, None] // weights) % p
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            prod[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    for k in range(2 * e - 2, e - 1, -1):  # X**k = X**(k-e) * (X**e - f)
        top = prod[:, :, k].copy()
        for i in range(e + 1):
            prod[:, :, k - e + i] -= top * f[i]
    return add, (prod[:, :, :e] % p) @ weights


# ---------------------------------------------------------------------------
# prime fields


def test_gf3_is_integers_mod_3(f3):
    assert f3.order == 3
    assert f3.char_p == 3
    for a in range(3):
        for b in range(3):
            assert f3.add[a, b] == (a + b) % 3
            assert f3.mul[a, b] == (a * b) % 3
    assert f3.add[1, 2] == 0


def test_gf5_axioms_all_pass(f5):
    report = verify_nearfield_axioms(f5)
    assert report.ok
    assert all(c.passed for c in report.checks)  # fields satisfy even the extras


# ---------------------------------------------------------------------------
# extension fields


def test_gf9_canonical_modulus(f9):
    # the two monic quadratics below x^2+1 factor over GF(3), so x^2+1 is least
    assert f9.modulus == [1, 0, 1]
    assert f9.mul[3, 3] == 2  # X*X = -1 = 2 in the polynomial basis


def test_gf9_passes_naive_oracle(f9):
    assert naive_axiom_violations(f9.add.tolist(), f9.mul.tolist(),
                                  require_two_sided=True) == set()
    report = verify_nearfield_axioms(f9)
    assert report.ok
    assert report.check("mul-commutativity").passed
    assert report.check("left-distributivity").passed


def test_gf4_char_2(f4):
    assert f4.order == 4
    assert f4.char_p == 2
    assert f4.modulus == [1, 1, 1]
    assert f4.mul[2, 2] == 3  # X*X = X+1
    for a in range(4):
        assert f4.add[a, a] == 0


def test_gf25_and_gf27_verify():
    for p, e in [(5, 2), (3, 3)]:
        nf = make_field(p, e)
        assert nf.char_p == p
        assert verify_nearfield_axioms(nf).ok


def test_field_units_are_cyclic():
    for p, e in [(3, 2), (2, 2), (5, 2), (3, 3)]:
        nf = make_field(p, e)
        summary = multiplicative_group_summary(nf)
        assert summary.abelian
        assert summary.exponent == nf.order - 1  # cyclic of full order
        assert max(summary.element_orders) == nf.order - 1


def test_frobenius_is_automorphism():
    """x -> x^p preserves both tables and has order e."""
    for p, e in [(3, 2), (5, 2), (3, 3)]:
        nf = make_field(p, e)
        q = nf.order
        frob = np.arange(q)
        for _ in range(p - 1):
            frob = nf.mul[frob, np.arange(q)]
        for a in range(q):
            for b in range(q):
                assert frob[nf.add[a, b]] == nf.add[frob[a], frob[b]]
                assert frob[nf.mul[a, b]] == nf.mul[frob[a], frob[b]]
        power, steps = frob.copy(), 1
        while not np.array_equal(power, np.arange(q)):
            power = frob[power]
            steps += 1
        assert steps == e


def test_cubic_scan_witnesses_past_the_first_chunk():
    """The cubic scans run in chunks of 2**18 // 81**2 = 39 first coordinates
    at order 81. Corrupting one cell in row 50 of GF(81)'s multiplication
    breaks left distributivity only at a = 50, in the second chunk; every
    cubic witness is the least failing triple of the whole cube."""
    gf81 = make_field(3, 4)
    mul = gf81.mul.copy()
    mul[50, 7] = mul[50, 8]
    report = verify_nearfield_axioms(NearField(81, "corrupted", gf81.add, mul))
    for name, least in cube_witnesses(gf81.add, mul).items():
        assert report.check(name).witness == least, name
    assert report.check("left-distributivity").witness[0] == 50


PRIME_POWERS_TO_128 = [(p, e) for p in range(2, 129) if all(p % d for d in range(2, p))
                      for e in range(1, 8) if p**e <= 128]


@pytest.mark.parametrize("p,e", PRIME_POWERS_TO_128,
                         ids=[f"{p}^{e}" for p, e in PRIME_POWERS_TO_128])
def test_field_tables_match_schoolbook_oracle(p, e):
    nf = make_field(p, e)
    add, mul = schoolbook_field(p, e)
    assert nf.modulus == least_irreducible(p, e)
    assert np.array_equal(nf.add, add)
    assert np.array_equal(nf.mul, mul)


def test_field_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)
    with pytest.raises(OrderCapExceeded):
        make_field(2, 13)  # 8192 > default cap 4096
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(TypeError, match="p and e must be integers"):
        make_field(3.0, 1)


@pytest.mark.slow
def test_field_at_the_default_order_cap(monkeypatch):
    """GF(2^12) has the default near-field order cap, 4096, and its tables
    are built and every axiom decided (about 5 s and 180 MB peak RSS on a
    2-core host, the tables 2.6 s and 165 MB of it, since the axiom gate
    scans in row chunks and reads the maps of 0 and of the 3 multiplicative
    generators alone for distributivity; the triple scan alone would take
    hours)."""
    monkeypatch.delenv("INVOLQ_ORDER_CAP", raising=False)
    nf = make_field(2, 12)
    assert nf.order == DEFAULT_NEARFIELD_ORDER_CAP == 4096
    assert nf._verified and nf.char_p == 2
    assert nf.modulus == least_irreducible(2, 12)


def test_field_determinism():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a.add.tobytes() == b.add.tobytes()
    assert a.mul.tobytes() == b.mul.tobytes()


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "8")
    with pytest.raises(OrderCapExceeded):
        make_field(3, 2)  # order 9 exceeds the overridden cap
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "9")
    assert make_field(3, 2).order == 9
    for raw in ("junk", "0", "-3"):
        monkeypatch.setenv("INVOLQ_ORDER_CAP", raw)
        with pytest.raises(InputError):
            make_field(3, 2)


# ---------------------------------------------------------------------------
# Dickson pairs


@pytest.mark.parametrize(
    "q,n,expected",
    [
        (3, 2, True),
        (3, 4, False),   # 4 | n forces q = 1 mod 4
        (5, 4, True),
        (5, 2, True),
        (7, 2, True),
        (7, 3, True),
        (9, 2, True),
        (11, 2, True),
        (3, 3, False),   # 3 does not divide 2
        (2, 1, True),
        (13, 1, True),
    ],
)
def test_is_dickson_pair(q, n, expected):
    assert is_dickson_pair(q, n) is expected


@pytest.mark.parametrize("q,n", [(1, 2), (3, 0)])
def test_is_dickson_pair_refuses_small_arguments(q, n):
    with pytest.raises(ValueError, match=r"need q >= 2 and n >= 1"):
        is_dickson_pair(q, n)


def test_dickson_twist_anchors_are_a_residue_system():
    """make_dickson relies on this without checking it: for a Dickson pair
    (q, n), the anchors (q^r - 1)/(q - 1), r < n, are n distinct residues
    mod n, and n divides q^n - 1, so the n twist classes of the q^n - 1
    nonzero elements are equal in size."""
    pairs = [(q, n) for q in range(3, 400, 2) if nearfield.prime_power(q)
             for n in range(2, 60) if is_dickson_pair(q, n)]
    assert len(pairs) == 901
    for q, n in pairs:
        anchors = {((q**r - 1) // (q - 1)) % n for r in range(n)}
        assert len(anchors) == n, (q, n)
        assert (q**n - 1) % n == 0, (q, n)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 2), (9, 2), (11, 2)])
def test_catalog_dickson_matches_twisted_field_product(q, n):
    """x * y = frob^r(y)(x) . y over the field tables, with the twist class
    r(y) of y = g**i the r having i = (q**r - 1)/(q - 1) mod n, for g the
    least-index generator. Everything is found by brute force here."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    K = make_field(p, round(math.log(q**n, p)))
    order, mul = q**n, K.mul.tolist()

    def powers(x):
        out = [1]
        while len(out) == 1 or out[-1] != 1:
            out.append(mul[out[-1]][x])
        return out[:-1]

    g = next(x for x in range(2, order) if len(powers(x)) == order - 1)
    dlog = {y: i for i, y in enumerate(powers(g))}
    twist = {y: next(r for r in range(n) if (i - (q**r - 1) // (q - 1)) % n == 0)
             for y, i in dlog.items()}
    def power(x, k):
        if x == 0:
            return 0
        cycle = powers(x)
        return cycle[k % len(cycle)]

    frob = [[power(x, q**r) for x in range(order)] for r in range(n)]
    expected = [[mul[frob[twist[y]][x]][y] if y else 0 for y in range(order)]
                for x in range(order)]
    nf = make_dickson(q, n)
    assert nf.mul.tolist() == expected
    assert np.array_equal(nf.add, K.add)


def test_dickson_9_matches_square_twist(d9, f9):
    """Independent reconstruction: multiply plainly by squares, through the
    cube map otherwise. Squares are found by brute force, not via the
    generator machinery the construction uses."""
    squares = {f9.mul[z, z] for z in range(1, 9)}
    cube = [f9.mul[f9.mul[x, x], x] for x in range(9)]
    for y in range(1, 9):
        for x in range(9):
            expected = f9.mul[x, y] if y in squares else f9.mul[cube[x], y]
            assert d9.mul[x, y] == expected
    assert np.array_equal(d9.add, f9.add)


def test_dickson_9_naive_oracle(d9):
    assert naive_axiom_violations(d9.add.tolist(), d9.mul.tolist()) == set()


def test_dickson_9_axiom_report(d9):
    report = verify_nearfield_axioms(d9)
    assert report.ok
    left = report.check("left-distributivity")
    assert not left.required and not left.passed and left.witness is not None
    comm = report.check("mul-commutativity")
    assert not comm.required and not comm.passed


def test_dickson_9_quaternion_signature(d9):
    summary = multiplicative_group_summary(d9)
    assert summary.order == 8
    assert not summary.abelian
    assert summary.involution_count == 1
    assert summary.exponent == 4
    assert summary.element_orders == (1, 2, 4, 4, 4, 4, 4, 4)


def test_summary_refuses_a_unit_of_no_finite_order():
    """GF(3) with 2 * 2 = 2: the powers of 2 never reach 1. A hand-built
    table reaches this, so it is an axiom failure of the input."""
    f3 = make_field(3, 1)
    mul = f3.mul.copy()
    mul[2, 2] = 2
    with pytest.raises(AxiomFailure, match="^element 2 has no finite order$"):
        multiplicative_group_summary(NearField(3, "tables", f3.add, mul))


def test_dickson_25(d25):
    assert d25.order == 25 and d25.char_p == 5
    report = verify_nearfield_axioms(d25)
    assert report.ok
    assert not report.check("mul-commutativity").passed
    witness = report.check("left-distributivity").witness
    assert witness is not None
    a, b, c = witness
    lhs = d25.mul[a, d25.add[b, c]]
    rhs = d25.add[d25.mul[a, b], d25.mul[a, c]]
    assert lhs != rhs  # the reported witness is a genuine violation
    # right distributivity never fails
    assert naive_axiom_violations(d25.add.tolist(), d25.mul.tolist()) == set()


def test_dickson_errors(monkeypatch):
    with pytest.raises(NotDicksonPair):
        make_dickson(3, 4)
    with pytest.raises(NotDicksonPair):
        make_dickson(6, 2)  # not a prime power
    with pytest.raises(EvenCharacteristicUnsupported):
        make_dickson(4, 3)
    with pytest.raises(ValueError):
        make_dickson(3, 1)
    monkeypatch.setenv("INVOLQ_ORDER_CAP", "8")
    with pytest.raises(OrderCapExceeded, match="^order 9 exceeds cap 8$"):
        make_dickson(3, 2)


def test_dickson_determinism():
    a = make_dickson(3, 2)
    b = make_dickson(3, 2)
    assert a.mul.tobytes() == b.mul.tobytes()


def test_every_catalog_dickson_is_noncommutative():
    pairs = [e.params for e in run_catalog(121) if e.family == "agl-dickson"]
    assert pairs == [(11, 2), (3, 2), (5, 2), (7, 2), (9, 2)]  # sorted by id
    for q, n in pairs:
        nf = make_dickson(q, n)
        assert not np.array_equal(nf.mul, nf.mul.T)
        assert verify_nearfield_axioms(nf).ok


# ---------------------------------------------------------------------------
# corrupted tables are reported, not masked


def test_corrupt_multiplication_row_is_caught(f4):
    mul = f4.mul.copy()
    mul[3, :] = 0  # kill one row
    broken = NearField(4, "field(2,2)", f4.add, mul)
    report = verify_nearfield_axioms(broken)
    assert not report.ok
    closure = report.check("mul-nonzero-closure")
    assert not closure.passed and closure.witness == (3, 1)
    assert not report.check("mul-inverses").passed
    # the naive oracle sees the same failure
    assert "mul-nonzero-closure" in naive_axiom_violations(f4.add.tolist(), mul.tolist())


def test_constructor_checks_shape_and_range_only(f5):
    """The constructor refuses tables that are not order x order, an order
    below 2 and entries outside 0..order-1; it checks no axiom, so a broken
    table within range is built (and names itself by order and family)."""
    with pytest.raises(ValueError, match="order x order"):
        NearField(5, "tables", f5.add[:4], f5.mul)
    with pytest.raises(ValueError, match="order x order"):
        NearField(5, "tables", f5.add, f5.mul[:, :4])
    with pytest.raises(ValueError, match="at least the elements 0 and 1"):
        NearField(1, "tables", [[0]], [[0]])
    for value in (-1, 5):
        bad = f5.add.copy()
        bad[2, 3] = value
        with pytest.raises(ValueError, match="out of range"):
            NearField(5, "tables", bad, f5.mul)
        with pytest.raises(ValueError, match="out of range"):
            NearField(5, "tables", f5.add, bad)
    broken = NearField(5, "tables", f5.add, np.zeros((5, 5)))
    assert not verify_nearfield_axioms(broken).ok
    assert repr(broken) == "NearField(order=5, family='tables')"
    assert repr(f5) == "NearField(order=5, family='field(5,1)')"


def single_cell_corruptions(nf):
    """(table name, cell, new value) for the cells where rows 0, 1, 2, q-1
    meet columns 0, 1, 2, q-1, plus the cell holding the additive or
    multiplicative inverse of 2; each cell takes its value + 1 and 0."""
    q = nf.order
    edges = (0, 1, 2, q - 1)
    for name, table, unit in (("add", nf.add, 0), ("mul", nf.mul, 1)):
        cells = [(r, c) for r in edges for c in edges]
        cells.append((2, int(np.flatnonzero(table[2] == unit)[0])))
        for r, c in cells:
            for value in {(int(table[r, c]) + 1) % q, 0} - {int(table[r, c])}:
                yield name, (r, c), value


def test_axiom_witnesses_match_naive_scan(f7, f9, d9):
    """Every one of the 13 checks reports the least violating tuple the naive
    scan finds, on single-cell corruptions of GF(7), GF(9) and the order-9
    Dickson tables; across them every check fails at least once."""
    failed = set()
    for base in (f7, f9, d9):
        for name, cell, value in single_cell_corruptions(base):
            tables = {"add": base.add.copy(), "mul": base.mul.copy()}
            tables[name][cell] = value
            report = verify_nearfield_axioms(
                NearField(base.order, base.family, tables["add"], tables["mul"]))
            naive = naive_witnesses(tables["add"].tolist(), tables["mul"].tolist())
            assert len(report.checks) == 13
            for check in report.checks:
                assert check.witness == naive[check.name], (base.family, name, cell, value,
                                                             check.name)
                assert check.passed == (naive[check.name] is None)
                if not check.passed:
                    failed.add(check.name)
    assert failed == set(naive)


def spy_on_cube(monkeypatch):
    """Record every call of the cubic witness scan and let it run."""
    calls = []
    scan = nearfield._first_mismatch3

    def spy(lhs_fn, q):
        calls.append(scan(lhs_fn, q))
        return calls[-1]

    monkeypatch.setattr(nearfield, "_first_mismatch3", spy)
    return calls


@pytest.mark.parametrize("p,e,kind", [(5, 2, "field"), (3, 3, "field"), (5, 2, "dickson")])
def test_cubic_fallback_witnesses_match_the_cube(p, e, kind, monkeypatch):
    """On single-cell corruptions of GF(25), GF(27) and the order-25 Dickson
    tables, every cubic law that fails is located by the chunked scan, and
    its witness is the least violating triple of the whole cube. While the
    premises of the reductions hold (``add`` associative, zero annihilation,
    nonzero closure), the scan runs for failing laws only."""
    base = make_field(p, e) if kind == "field" else make_dickson(p, e)
    calls = spy_on_cube(monkeypatch)
    failed = set()
    for name, cell, value in single_cell_corruptions(base):
        tables = {"add": base.add.copy(), "mul": base.mul.copy()}
        tables[name][cell] = value
        report = verify_nearfield_axioms(
            NearField(base.order, base.family, tables["add"], tables["mul"]))
        cube = cube_witnesses(tables["add"], tables["mul"])
        for law in CUBIC:
            assert report.check(law).witness == cube[law], (name, cell, value, law)
            if cube[law] is not None:
                failed.add(law)
                assert cube[law] in calls
        premises = ("add-associativity", "mul-zero-annihilation", "mul-nonzero-closure")
        if all(report.check(c).passed for c in premises):
            assert None not in calls, (name, cell, value)
        calls.clear()
    assert failed >= {"add-associativity", "mul-associativity", "right-distributivity"}


def corrupted_gf25_add():
    """GF(25) with add[3, 4] = add[4, 3] = add[3, 3]: still commutative, no
    longer associative, and both distributive laws fail."""
    f = make_field(5, 2)
    add = f.add.copy()
    add[3, 4], add[4, 3] = add[3, 3], add[3, 3]
    return add, f.mul


def skewed_gf7_add():
    """x add y = 4x + 5y over GF(7): not associative (4 * 4 != 4), yet every
    scaling x -> x c maps it to itself, so both distributive laws hold."""
    x = np.arange(7)
    return (4 * x[:, None] + 5 * x[None, :]) % 7, (x[:, None] * x[None, :]) % 7


@pytest.mark.parametrize("tables", [corrupted_gf25_add, skewed_gf7_add])
def test_distributive_laws_take_the_cube_without_additive_associativity(tables, monkeypatch):
    """With ``add`` not associative the generator reduction of the
    distributive laws has no premise, so both are decided by the chunked
    scan, whether they fail or hold; every cubic witness equals the cube's
    and the naive scan's."""
    add, mul = tables()
    calls = spy_on_cube(monkeypatch)
    report = verify_nearfield_axioms(NearField(len(add), "corrupted", add, mul))
    cube = cube_witnesses(add, mul)
    naive = naive_witnesses(add.tolist(), mul.tolist())
    assert cube["add-associativity"] is not None
    assert report.check("add-commutativity").passed == (tables is corrupted_gf25_add)
    for law in CUBIC:
        assert report.check(law).witness == cube[law] == naive[law], law
    # add associativity, then right and left distributivity
    assert calls == [cube["add-associativity"], cube["right-distributivity"],
                     cube["left-distributivity"]]


def constant_one_add():
    """q = 2 with x add y = 1 for every x, y: associative, but 0 add 0 != 0,
    so the map of 0, x -> 0, is not additive, while the map of the one
    multiplicative generator, 1, is the identity. Both laws fail at (0, 0, 0),
    seen only through the map of 0."""
    return np.ones((2, 2), dtype=np.int64), np.array([[0, 0], [0, 1]])


def gf7_relabelled_units():
    """GF(7) addition with the product relabelled through the swap of 2 and
    3: ``mul`` is associative and closed on the nonzero elements, isomorphic
    to GF(7)*, but neither distributive law holds."""
    x = np.arange(7)
    swap = np.array([0, 1, 3, 2, 4, 5, 6])
    return (x[:, None] + x) % 7, swap[(swap[:, None] * swap) % 7]


def z4_add_gf4_mul():
    """Z/4 addition under the GF(4) product: (K, add) is a group, but not an
    elementary abelian one, and neither distributive law holds."""
    x = np.arange(4)
    return (x[:, None] + x) % 4, make_field(2, 2).mul


@pytest.mark.parametrize("tables", [constant_one_add, gf7_relabelled_units, z4_add_gf4_mul])
def test_distributive_reduction_reads_the_maps_of_zero_and_the_units(tables, monkeypatch):
    """With ``add`` and ``mul`` associative, the distributive laws are decided
    on the maps of 0 and of the multiplicative generators alone: each table
    fails both laws, and every witness equals the cube's and the naive
    scan's."""
    add, mul = tables()
    calls = spy_on_cube(monkeypatch)
    report = verify_nearfield_axioms(NearField(len(add), "tables", add, mul))
    cube = cube_witnesses(add, mul)
    naive = naive_witnesses(add.tolist(), mul.tolist())
    assert report.check("add-associativity").passed and report.check("mul-associativity").passed
    assert not report.check("right-distributivity").passed
    assert not report.check("left-distributivity").passed
    for law in CUBIC:
        assert report.check(law).witness == cube[law], law
    for check in report.checks:
        assert check.witness == naive[check.name], check.name
    assert calls == [cube["right-distributivity"], cube["left-distributivity"]]
    if tables is constant_one_add:
        assert cube["right-distributivity"] == cube["left-distributivity"] == (0, 0, 0)


def catalog_nearfields():
    """Every near-field of the default catalog (order <= 121), built from its
    entry's parameters."""
    out = []
    for entry in run_catalog(121):
        if entry.family == "agl-field":
            out.append(make_field(*entry.params))
        elif entry.family == "agl-dickson":
            out.append(make_dickson(*entry.params))
    return out


def test_valid_nearfields_never_scan_the_cube(monkeypatch, d9_relabelled):
    """The reductions decide every law of a valid near-field, so the cubic
    scan runs only for left distributivity of a proper near-field, where it
    is expected to fail. Each distributive reduction reads the maps of 0 and
    of the multiplicative generators, 1 + len(mul_gens) of them, for each
    additive generator. The recovered order-9 near-field carries arbitrary
    labels, so no encoding is assumed."""
    nfs = catalog_nearfields() + [coordinatize(d9_relabelled).nearfield]
    assert len(nfs) == 42 and sum(nf.is_field_family for nf in nfs) == 36
    scanned, widths = [], []

    def cube_only_for_witness(lhs_fn, q):
        scanned.append(q)
        return (-1, -1, -1)

    law_witness = nearfield._law_witness

    def read_widths(reduced, gens, cube, q, width):
        widths.append([reduced(g, 0, q).shape for g in gens])
        return law_witness(reduced, gens, cube, q, width)

    monkeypatch.setattr(nearfield, "_first_mismatch3", cube_only_for_witness)
    monkeypatch.setattr(nearfield, "_law_witness", read_widths)
    for nf in nfs:
        q = nf.order
        add_gens = _generators(nf.add, np.ones(q, dtype=bool))
        mul_gens = _generators(nf.mul, np.arange(q) > 0)
        report = verify_nearfield_axioms(nf)
        expected = [] if nf.is_field_family else ["left-distributivity"]
        assert [c.name for c in report.checks if c.witness == (-1, -1, -1)] == expected, nf
        assert report.ok
        # add and mul associativity (Light's test), then the two distributive laws
        assert widths == [[(q, q)] * len(add_gens), [(q, q)] * len(mul_gens)] + \
            [[(q, 1 + len(mul_gens))] * len(add_gens)] * 2, nf
        widths.clear()
    assert len(scanned) == sum(not nf.is_field_family for nf in nfs)


def naive_closure(t, gens):
    """The closure of ``gens`` under the table ``t``, by pairwise products."""
    inside = set(gens)
    while more := {int(t[a][b]) for a in inside for b in inside} - inside:
        inside |= more
    return inside


def test_generators_are_greedy_and_generate(f9, d9, d9_relabelled):
    """Each generator is the least element outside the closure of those
    before it, and together they generate the set: (K, add), (K*, mul) and a
    closed proper subset, on fields, a Dickson near-field and the recovered
    near-field with arbitrary labels."""
    recovered = coordinatize(d9_relabelled).nearfield
    subfield = np.isin(np.arange(9), [0, 1, 2])           # GF(3) inside GF(9)
    cases = []
    for nf in (f9, d9, recovered, make_field(5, 2)):
        q = nf.order
        cases += [(nf.add, np.ones(q, dtype=bool)), (nf.mul, np.arange(q) > 0)]
    cases.append((f9.add, subfield))
    # x . y = x except 0 . 1 = 2: the closure of {0, 1} needs the product of
    # the older element on the left, so the set is [0, 1]
    magma = np.array([[0, 2, 0], [1, 1, 1], [2, 2, 2]])
    assert _generators(magma, np.ones(3, dtype=bool)) == [0, 1]
    cases.append((magma, np.ones(3, dtype=bool)))
    for t, members in cases:
        gens = _generators(t, members)
        wanted = {int(x) for x in np.flatnonzero(members)}
        assert naive_closure(t, gens) == wanted
        for k, g in enumerate(gens):
            assert g == min(wanted - naive_closure(t, gens[:k]))


def test_one_without_finite_additive_order(f7):
    """Sending 6 + 1 back to 1 traps the walk from 1 in 1, 2, ..., 6, so 1 has
    no finite additive order: char_p reads 0 and the witness is (1,)."""
    add = f7.add.copy()
    add[6, 1] = 1
    broken = NearField(7, "corrupted", add, f7.mul)
    assert broken.char_p == 0
    check = verify_nearfield_axioms(broken).check("add-exponent-char")
    assert not check.passed and check.witness == (1,) and check.note == "char_p=0"


def test_witness_is_lexicographically_least(f5):
    mul = f5.mul.copy()
    mul[2, 3] = 4  # break one cell; (a,b,c) scans must report the least triple
    broken = NearField(5, "field(5,1)", f5.add, mul)
    report = verify_nearfield_axioms(broken)
    assoc = report.check("mul-associativity")
    assert not assoc.passed
    lhs = lambda a, b, c: mul[mul[a, b], c]
    rhs = lambda a, b, c: mul[a, mul[b, c]]
    expected = min(
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if lhs(a, b, c) != rhs(a, b, c)
    )
    assert assoc.witness == expected


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip(d9):
    doc = d9.to_json_dict()
    assert set(doc) == {"order", "family", "add", "mul"}
    back = nearfield_from_json(doc)
    assert back.order == d9.order and back.family == d9.family
    assert np.array_equal(back.add, d9.add)
    assert np.array_equal(back.mul, d9.mul)


def test_row_chunked_scans_keep_every_witness(f7, f9, d9, monkeypatch):
    """With one row per chunk, every axiom report on the single-cell
    corruptions of GF(7), GF(9), the order-9 Dickson tables and GF(25) equals
    the report with the default chunks, and the greedy generators are
    unchanged."""
    bases = (f7, f9, d9, make_field(5, 2))
    cases = []
    for base in bases:
        for name, cell, value in single_cell_corruptions(base):
            tables = {"add": base.add.copy(), "mul": base.mul.copy()}
            tables[name][cell] = value
            cases.append(NearField(base.order, base.family, tables["add"], tables["mul"]))

    def outcomes():
        reports = [[(c.name, c.passed, c.witness) for c in verify_nearfield_axioms(nf).checks]
                   for nf in cases]
        gens = [_generators(t, members) for nf in bases
                for t, members in ((nf.add, np.ones(nf.order, dtype=bool)),
                                   (nf.mul, np.arange(nf.order) > 0),
                                   (nf.mul, np.arange(nf.order) > 1))]
        return reports, gens

    default = outcomes()
    assert any(not passed for rep in default[0] for _, passed, _ in rep)
    monkeypatch.setattr(reporting, "CHUNK_CELLS", 1)
    assert outcomes() == default
