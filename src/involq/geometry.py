"""The point-line incidence structure on the involutions of a certified group.

Points are the involutions. For distinct involutions i, j the line through
them can be described three ways, and all three are recomputed and compared
for every pair during the build:

* membership:   { k in J : k (i j) lies in J }
* coset:        { i c : c centralizing i j }          (must land inside J)
* conjugation:  { k in J : k^-1 (i j) k == j i }

The build only proceeds when the four equivalent preconditions hold
(commuting transitive on nontrivial translations; unique square roots in the
products iJ meet kJ; centralizers equal to those products, abelian and
inverted; centralizer classes partitioning the nontrivial translations).
The finished structure satisfies the partial-plane axioms: two points span
exactly one line, two lines meet in at most one point.

Inside this module points are positions 0..|J|-1 into the involution list;
the ``points`` array maps positions back to group element indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicAnomaly,
    CharacteristicTwo,
    CharacterizationMismatch,
    GeometryConditionsFailed,
    PointsEqual,
)
from .permgroup import PermGroup, centralizer
from .reporting import Check, CheckReport
from .s2t import _j_positions, _require_certified


# ---------------------------------------------------------------------------
# the four equivalent preconditions


def check_geometry_conditions(G: PermGroup) -> CheckReport:
    """Evaluate the four conditions independently and report agreement."""
    cert = _require_certified(G)
    if cert.characteristic == 2:
        raise CharacteristicTwo("the incidence structure needs char != 2")

    j_idx = cert._j
    trans = cert._translations
    nontrivial = trans[trans != G.identity_index].astype(np.int64)
    checks: list[Check] = []

    # (a) commuting is transitive on the nontrivial translations
    products = G.mul(nontrivial[:, None], nontrivial[None, :])
    commute = products == products.T
    reach = (commute.astype(np.int64) @ commute.astype(np.int64)) > 0
    bad = reach & ~commute
    witness = None
    if bad.any():
        a, c = np.argwhere(bad)[0]
        b = int(np.nonzero(commute[a] & commute[:, c])[0][0])
        witness = (int(nontrivial[a]), int(nontrivial[b]), int(nontrivial[c]))
    checks.append(Check("commuting-transitive-on-translations", witness is None,
                        witness=witness))

    # products iJ for each involution, as index sets
    n = len(j_idx)
    ij = G.mul(j_idx[:, None], j_idx[None, :])  # row i: i then each involution
    i_j_products = [frozenset(row.tolist()) for row in ij]

    # (b) squaring is a bijection of iJ meet kJ for all involution pairs
    every = np.arange(G.order)
    square_of = G.mul(every, every)
    witness = None
    for i in range(n):
        if witness:
            break
        for k in range(i + 1, n):
            meet = sorted(i_j_products[i] & i_j_products[k])
            squares = [int(square_of[s]) for s in meet]
            if any(s not in i_j_products[i] or s not in i_j_products[k] for s in squares) \
                    or len(set(squares)) != len(squares):
                witness = (int(j_idx[i]), int(j_idx[k]))
                break
            if set(squares) != set(meet):
                witness = (int(j_idx[i]), int(j_idx[k]))
                break
    checks.append(Check("unique-square-roots-in-product-meets", witness is None,
                        witness=witness))

    # (c) Cen(ik) equals iJ meet kJ, is abelian, and is inverted by k
    abelian_cache: dict[frozenset, bool] = {}
    witness = None
    for i in range(n):
        if witness:
            break
        for k in range(n):
            if i == k:
                continue
            cen = centralizer(G, int(ij[i, k]))
            cen_set = frozenset(cen.tolist())
            if cen_set != (i_j_products[i] & i_j_products[k]):
                witness = (int(j_idx[i]), int(j_idx[k]), "centralizer-mismatch")
                break
            if cen_set not in abelian_cache:
                cen_products = G.mul(cen[:, None], cen[None, :])
                abelian_cache[cen_set] = bool(np.all(cen_products == cen_products.T))
            if not abelian_cache[cen_set]:
                witness = (int(j_idx[i]), int(j_idx[k]), "not-abelian")
                break
            if not np.array_equal(G.conj(cen, j_idx[k]), G.inv(cen)):
                witness = (int(j_idx[i]), int(j_idx[k]), "not-inverted")
                break
    checks.append(Check("centralizers-match-products-abelian-inverted", witness is None,
                        witness=witness))

    # (d) centralizer classes partition the nontrivial translations
    class_sets = []
    seen: set[frozenset] = set()
    for t in nontrivial.tolist():
        cen = centralizer(G, t)
        cls = frozenset(int(c) for c in cen if c != G.identity_index)
        if cls not in seen:
            seen.add(cls)
            class_sets.append(cls)
    counts = {int(t): 0 for t in nontrivial}
    witness = None
    for cls in class_sets:
        for t in cls:
            if t not in counts:
                witness = (t, "outside-translations")
                break
            counts[t] += 1
        if witness:
            break
    if witness is None:
        for t, c in sorted(counts.items()):
            if c != 1:
                witness = (t, f"in-{c}-classes")
                break
    checks.append(Check("centralizer-classes-partition-translations", witness is None,
                        witness=witness))

    verdicts = {c.passed for c in checks}
    checks.append(Check("conditions-agree", len(verdicts) == 1,
                        note="the four conditions are equivalent"))
    return CheckReport("geometry preconditions", checks)


# ---------------------------------------------------------------------------
# geometry construction


@dataclass(frozen=True)
class Line:
    points: tuple[int, ...]  # positions into Geometry.points, sorted
    class_id: int            # defining translation class


class Geometry:
    """Finished incidence structure; immutable after build."""

    def __init__(self, G: PermGroup):
        self.group = G
        self.points: np.ndarray | None = None        # J positions -> element index
        self.translation_ids: np.ndarray | None = None
        self.classes: list[tuple[int, ...]] = []     # element indices per class
        self.class_of_translation: dict[int, int] = {}
        self.lines: list[Line] = []
        self.line_of_pair: np.ndarray | None = None  # (|J|,|J|), -1 on diagonal
        self.line_of_translation: dict[int, int] = {}
        self.incidence: list[tuple[int, ...]] = []

    @property
    def n_points(self) -> int:
        return len(self.points)

    def as_json_dict(self) -> dict:
        return {
            "points": [int(p) for p in self.points],
            "lines": [list(line.points) for line in self.lines],
            "classes": [sorted(cls) for cls in self.classes],
        }


def build_geometry(G: PermGroup, conditions: CheckReport | None = None) -> Geometry:
    """Construct all lines, cross-validating the three characterizations."""
    cert = _require_certified(G)
    if cert.characteristic == 2:
        raise CharacteristicTwo("the incidence structure needs char != 2")
    if conditions is None:
        conditions = check_geometry_conditions(G)
    if not conditions.ok:
        raise GeometryConditionsFailed(
            f"failed: {[c.name for c in conditions.failures()]}"
        )

    geom = Geometry(G)
    j_idx = cert._j
    n = len(j_idx)
    geom.points = j_idx.copy()
    geom.points.setflags(write=False)
    geom.translation_ids = cert._translations

    nontrivial = [int(t) for t in cert._translations if t != G.identity_index]

    # translation classes: Cen(sigma) minus identity, ordered by least member
    remaining = set(nontrivial)
    class_list: list[tuple[int, ...]] = []
    for t in sorted(nontrivial):
        if t not in remaining:
            continue
        cls = tuple(
            sorted(
                int(c)
                for c in centralizer(G, t)
                if c != G.identity_index
            )
        )
        class_list.append(cls)
        remaining -= set(cls)
    geom.classes = class_list
    for cid, cls in enumerate(class_list):
        for t in cls:
            geom.class_of_translation[t] = cid

    # per-translation line via membership and conjugation characterizations
    line_pts_of_translation: dict[int, tuple[int, ...]] = {}

    def line_positions(sigma_idx: int) -> tuple[int, ...]:
        cached = line_pts_of_translation.get(sigma_idx)
        if cached is not None:
            return cached
        # membership form: k then sigma is an involution
        member = np.nonzero(cert._jpos[G.mul(j_idx, sigma_idx)] >= 0)[0]
        # conjugation form: k^-1 sigma k == sigma^-1 with k an involution
        by_conj = np.nonzero(G.conj(sigma_idx, j_idx) == G.inv(sigma_idx))[0]
        if not np.array_equal(member, by_conj):
            raise CharacterizationMismatch(
                f"membership and conjugation disagree for translation {sigma_idx}"
            )
        pts = tuple(member.tolist())
        line_pts_of_translation[sigma_idx] = pts
        return pts

    line_index: dict[tuple[int, ...], int] = {}
    geom.line_of_pair = np.full((n, n), -1, dtype=np.int64)
    lines: list[Line] = []

    ab = G.mul(j_idx[:, None], j_idx[None, :])  # a then b
    for a in range(n):
        for b in range(a + 1, n):
            sigma_idx = int(ab[a, b])
            pts = line_positions(sigma_idx)
            # coset characterization for this particular pair
            cen = centralizer(G, sigma_idx)
            coset_pos = cert._jpos[G.mul(j_idx[a], cen)]  # a then c, c centralizing
            if np.any(coset_pos < 0):
                raise CharacterizationMismatch(
                    f"coset of pair ({int(j_idx[a])},{int(j_idx[b])}) leaves J"
                )
            if set(coset_pos.tolist()) != set(pts):
                raise CharacterizationMismatch(
                    f"coset and membership disagree for pair ({int(j_idx[a])},{int(j_idx[b])})"
                )
            if a not in pts or b not in pts:
                raise CharacterizationMismatch("a line misses its defining points")

            lid = line_index.get(pts)
            if lid is None:
                lid = len(lines)
                line_index[pts] = lid
                cid = geom.class_of_translation[sigma_idx]
                lines.append(Line(points=pts, class_id=cid))
                if len(pts) != len(cen):
                    raise CharacterizationMismatch(
                        f"line size {len(pts)} != centralizer size {len(cen)}"
                    )
            geom.line_of_translation[sigma_idx] = lid
            prev = geom.line_of_pair[a, b]
            if prev != -1 and prev != lid:
                raise CharacterizationMismatch(
                    f"pair ({a},{b}) lies on two lines {prev} and {lid}"
                )
            geom.line_of_pair[a, b] = lid
            geom.line_of_pair[b, a] = lid

    geom.lines = lines
    geom.line_of_pair.setflags(write=False)

    # partial-plane axioms
    for a in range(n):
        for b in range(a + 1, n):
            if geom.line_of_pair[a, b] < 0:
                raise CharacterizationMismatch(f"pair ({a},{b}) spans no line")
    for la in range(len(lines)):
        for lb in range(la + 1, len(lines)):
            common = set(lines[la].points) & set(lines[lb].points)
            if len(common) > 1:
                raise CharacterizationMismatch(
                    f"lines {la} and {lb} share {len(common)} points"
                )

    # product of two points of a line centralizes the defining translation class
    for lid, line in enumerate(lines):
        cls = geom.classes[line.class_id] + (G.identity_index,)
        pts = j_idx[list(line.points)]
        if not np.isin(G.mul(pts[:, None], pts[None, :]), cls).all():
            raise CharacterizationMismatch(
                f"line {lid} is not closed into its translation class"
            )

    geom.incidence = [
        tuple(lid for lid, line in enumerate(lines) if p in line.points)
        for p in range(n)
    ]
    return geom


def line_through(geom: Geometry, i: int, j: int) -> Line:
    """The unique line through two distinct point positions."""
    if i == j:
        raise PointsEqual(f"need two distinct points, got {i} twice")
    lid = int(geom.line_of_pair[i, j])
    return geom.lines[lid]


# ---------------------------------------------------------------------------
# conjugation action on lines


def _conjugation_position_table(geom: Geometry) -> np.ndarray:
    """table[k] = permutation of point positions induced by conjugating with
    the involution at position k."""
    G = geom.group
    j_idx = geom.points
    return _j_positions(_require_certified(G), G.conj(j_idx[None, :], j_idx[:, None]))


def verify_line_lemma(geom: Geometry) -> CheckReport:
    """Conjugation facts about lines, scanned over every (line, involution):

    (a) if two distinct involutions conjugate a line to the same image, both
        lie on the line;
    (b) if a line meets its conjugate under an involution, that involution
        lies on the line;
    plus the sanity fact that points of a line fix it under conjugation.
    """
    table = _conjugation_position_table(geom)
    n = geom.n_points
    checks = []

    witness_a = witness_b = witness_fix = None
    for lid, line in enumerate(geom.lines):
        pts = set(line.points)
        images = {}
        for k in range(n):
            img = frozenset(int(table[k, p]) for p in line.points)
            images.setdefault(img, []).append(k)
            if k in pts and img != frozenset(pts) and witness_fix is None:
                witness_fix = (lid, int(geom.points[k]))
            if img & pts and k not in pts and witness_b is None:
                witness_b = (lid, int(geom.points[k]))
        if witness_a is None:
            for img, ks in sorted(images.items(), key=lambda kv: kv[1]):
                if len(ks) >= 2 and any(k not in pts for k in ks):
                    bad = [k for k in ks if k not in pts]
                    witness_a = (lid, int(geom.points[bad[0]]))
                    break
    checks.append(Check("equal-conjugates-force-membership", witness_a is None,
                        witness=witness_a))
    checks.append(Check("meeting-conjugate-forces-membership", witness_b is None,
                        witness=witness_b))
    checks.append(Check("line-points-stabilize-line", witness_fix is None,
                        witness=witness_fix))
    return CheckReport("line conjugation lemma", checks)


# ---------------------------------------------------------------------------
# closures and the no-proper-plane verdict


@dataclass(frozen=True)
class ClosureResult:
    points: tuple[int, ...]
    contained_lines: tuple[int, ...]
    pairwise_meeting: bool  # condition (b): contained lines pairwise intersect


def plane_closure(geom: Geometry, seed) -> ClosureResult:
    """Least superset of ``seed`` closed under joining two points by their line."""
    current = set(int(p) for p in seed)
    merged_lines: set[int] = set()
    changed = True
    while changed:
        changed = False
        members = sorted(current)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                lid = int(geom.line_of_pair[members[i], members[j]])
                if lid in merged_lines:
                    continue  # its points are already in the closure
                merged_lines.add(lid)
                for p in geom.lines[lid].points:
                    if p not in current:
                        current.add(p)
                        changed = True
    pts = tuple(sorted(current))
    contained = tuple(
        lid for lid, line in enumerate(geom.lines) if set(line.points) <= current
    )
    meeting = all(
        set(geom.lines[a].points) & set(geom.lines[b].points)
        for ai, a in enumerate(contained)
        for b in contained[ai + 1:]
    )
    return ClosureResult(points=pts, contained_lines=contained, pairwise_meeting=meeting)


@dataclass(frozen=True)
class NoPlaneVerdict:
    hypotheses_met: bool
    failed_hypothesis: str | None
    witness: tuple | None
    line_count: int | None

    @property
    def ok(self) -> bool:
        return (not self.hypotheses_met) or self.line_count <= 1

    def as_dict(self) -> dict:
        return {
            "hypotheses_met": self.hypotheses_met,
            "failed_hypothesis": self.failed_hypothesis,
            "witness": list(self.witness) if self.witness else None,
            "line_count": self.line_count,
            "ok": self.ok,
        }


def verify_no_proper_plane(geom: Geometry, point_set) -> NoPlaneVerdict:
    """If the set is line-closed and its lines pairwise meet, it holds <= 1 line."""
    X = set(int(p) for p in point_set)
    members = sorted(X)
    inside: dict[int, bool] = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            lid = int(geom.line_of_pair[members[i], members[j]])
            if lid not in inside:
                inside[lid] = set(geom.lines[lid].points) <= X
            if not inside[lid]:
                return NoPlaneVerdict(False, "a", (members[i], members[j]), None)
    contained = [lid for lid, line in enumerate(geom.lines) if set(line.points) <= X]
    for ai in range(len(contained)):
        for bi in range(ai + 1, len(contained)):
            a, b = contained[ai], contained[bi]
            if not (set(geom.lines[a].points) & set(geom.lines[b].points)):
                return NoPlaneVerdict(False, "b", (a, b), None)
    return NoPlaneVerdict(True, None, None, len(contained))


# ---------------------------------------------------------------------------
# odd-order subgroup scan


@dataclass
class SubgroupScanReport:
    examined: int
    found: int
    size_histogram: dict[int, int]
    violations: list[tuple]
    skipped_over_cap: int
    complete: bool
    generator_depth: int = 2

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "examined": self.examined,
            "found": self.found,
            "size_histogram": {str(k): v for k, v in sorted(self.size_histogram.items())},
            "violations": [list(v) for v in self.violations],
            "skipped_over_cap": self.skipped_over_cap,
            "complete": self.complete,
            "generator_depth": self.generator_depth,
        }


def divisible_subgroup_scan(geom: Geometry, cap: int = 512) -> SubgroupScanReport:
    """Enumerate odd-order subgroups inside the translation set that some
    involution normalizes, and check each sits inside a translation centralizer.

    Candidates are closures of one or two translations (subgroups needing more
    generators are outside the scan; the report says so via generator_depth).
    A closure that leaves the translation set is discarded -- it cannot be a
    subgroup contained in the translations. Closures exceeding ``cap`` are
    counted in skipped_over_cap and the report is marked incomplete.
    """
    G = geom.group
    trans_idx = geom.translation_ids
    trans = trans_idx.tolist()
    nt = len(trans)
    t_pos = np.full(G.order, -1, dtype=np.int64)  # element -> translation position
    t_pos[trans_idx] = np.arange(nt)

    # partial Cayley table on the translation set; -1 marks products outside it
    table = t_pos[G.mul(trans_idx[:, None], trans_idx[None, :])]

    ident_pos = int(t_pos[G.identity_index])
    if ident_pos < 0:
        raise CharacteristicAnomaly("the identity is not a translation")
    _CAPPED = frozenset({-1})

    def close_set(seed_positions) -> frozenset | None:
        members = sorted(set(int(s) for s in seed_positions) | {ident_pos})
        while True:
            arr = np.array(members, dtype=np.int64)
            prods = table[np.ix_(arr, arr)]
            if (prods < 0).any():
                return None  # a product escaped the translation set
            produced = set(prods.flatten().tolist())
            fresh = produced - set(members)
            if not fresh:
                return frozenset(members)
            members = sorted(set(members) | produced)
            if len(members) > cap:
                return _CAPPED

    nontrivial_pos = [k for k in range(nt) if k != ident_pos]

    # cyclic subgroup of each element; the subgroup generated by a pair only
    # depends on the pair of cyclic subgroups, which keeps the pair phase small
    subgroups: set[frozenset] = set()
    skipped = 0
    cyclic_of: dict[int, frozenset | None] = {}
    for k in nontrivial_pos:
        members = {ident_pos, k}
        cur, ok = k, True
        while True:
            cur = int(table[cur, k])
            if cur < 0:
                ok = False
                break
            if cur in members:
                break
            members.add(cur)
            if len(members) > cap:
                ok = None
                break
        if ok is True:
            cyclic_of[k] = frozenset(members)
            subgroups.add(cyclic_of[k])
        elif ok is None:
            cyclic_of[k] = _CAPPED
            skipped += 1
        else:
            cyclic_of[k] = None

    distinct_cyclic = sorted(
        {c for c in cyclic_of.values() if c not in (None, _CAPPED)},
        key=sorted,
    )
    for ai in range(len(distinct_cyclic)):
        for bi in range(ai + 1, len(distinct_cyclic)):
            cl = close_set(distinct_cyclic[ai] | distinct_cyclic[bi])
            if cl is None:
                continue
            if cl == _CAPPED:
                skipped += 1
                continue
            subgroups.add(cl)

    # conjugation of translation positions by each involution; None where a
    # conjugate leaves the translation set
    conj_pos = t_pos[G.conj(trans_idx[None, :], geom.points[:, None])]
    conj_tables = [perm if (perm >= 0).all() else None for perm in conj_pos]

    cen_sets = []
    for cls in geom.classes:
        rep = cls[0]
        cen = set(int(c) for c in centralizer(G, rep))
        cen_sets.append(cen)

    found = 0
    histogram: dict[int, int] = {}
    violations: list[tuple] = []
    examined = 0
    for sub in sorted(subgroups, key=lambda s: (len(s), sorted(s))):
        examined += 1
        if len(sub) % 2 == 0 or len(sub) == 1:
            continue
        normalized = any(
            perm is not None and frozenset(int(perm[a]) for a in sub) == sub
            for perm in conj_tables
        )
        if not normalized:
            continue
        found += 1
        histogram[len(sub)] = histogram.get(len(sub), 0) + 1
        elems = {trans[a] for a in sub}
        if not any(elems <= cen for cen in cen_sets):
            violations.append(tuple(sorted(elems)))

    return SubgroupScanReport(
        examined=examined,
        found=found,
        size_histogram=histogram,
        violations=violations,
        skipped_over_cap=skipped,
        complete=skipped == 0,
    )
