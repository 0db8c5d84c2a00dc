"""The point-line incidence structure on the involutions of a certified group.

Points are the involutions. For distinct involutions i, j the line through
them can be described three ways, and all three are computed and compared
during the build:

* membership:   { k in J : k (i j) lies in J }
* coset:        { i c : c centralizing i j }          (must land inside J)
* conjugation:  { k in J : k^-1 (i j) k == j i }

The membership and conjugation forms are one boolean row per distinct
translation i j; the coset form is checked once per distinct translation,
over every pair with that product.

The build only proceeds when the four equivalent preconditions hold
(commuting transitive on nontrivial translations; unique square roots in the
products iJ meet kJ; centralizers equal to those products, abelian and
inverted; centralizer classes partitioning the nontrivial translations).
The finished structure satisfies the partial-plane axioms: two points span
exactly one line, two lines meet in at most one point.

Inside this module points are positions 0..|J|-1 into the involution list;
the ``points`` array maps positions back to group element indices. Lines are
the rows of ``Geometry.incidence``, an (n_lines, n_points) boolean matrix,
and ``Geometry.line_of_translation`` is an order-length array giving the
line of each nontrivial translation (-1 on every other element). Closures,
the no-proper-plane verdict, the line lemma and the X_alpha covering all
read that matrix.

Closures and the no-proper-plane verdict are batched kernels over an
(S, n_points) stack of point masks: :func:`close_point_masks` grows every
row by the lines holding two of its points until no row changes, and
:func:`no_plane_verdicts` tests both hypotheses of every row, building its
(S, n, n) and (S, L, L) masks in chunks of about _CHUNK_CELLS cells.
:func:`plane_closure` and :func:`verify_no_proper_plane` are one-row calls
of the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicAnomaly,
    CharacterizationMismatch,
    GeometryConditionsFailed,
    PointsEqual,
)
from .permgroup import PermGroup, centralizer, distinct
from .reporting import Check, CheckReport, field_dict, least_cell, least_cells
from .s2t import _require_certified, _require_odd_characteristic


def _distinct_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) for the rows of a boolean matrix: the first row of each
    distinct row, and the group of every row, groups numbered by first
    appearance."""
    packed = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[group]


# ---------------------------------------------------------------------------
# the four equivalent preconditions

_C_REASONS = ("centralizer-mismatch", "not-abelian", "not-inverted")
_CHUNK_CELLS = 1 << 18  # cells per chunk of a cube: condition (c), closure verdicts


def check_geometry_conditions(G: PermGroup) -> CheckReport:
    """Evaluate the four conditions independently and report agreement."""
    cert = _require_odd_characteristic(G)

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

    # iJ as a membership mask, row i for the involution at position i; the
    # diagonal products ii are the identity, every other product ik a
    # translation. Scans of row i read the columns ij[i], the elements of iJ.
    n = len(j_idx)
    ij = cert._jj  # row i: i then each involution
    in_ij = np.zeros((n, G.order), dtype=bool)
    in_ij[np.arange(n)[:, None], ij] = True

    # (b) squaring is a bijection of iJ meet kJ for all involution pairs
    every = np.arange(G.order)
    square_of = G.mul(every, every)
    witness = None
    for i in range(n - 1):
        column = np.full(G.order, n)  # column n collects squares outside iJ
        column[ij[i]] = np.arange(n)
        meet = in_ij[i + 1:, ij[i]]  # row k - i - 1: iJ meet kJ
        rows, cols = np.nonzero(meet)
        image = np.zeros((len(meet), n + 1), dtype=bool)
        image[rows, column[square_of[ij[i, cols]]]] = True
        bad = np.flatnonzero((image[:, :n] != meet).any(axis=1) | image[:, n])
        if len(bad):
            witness = (int(j_idx[i]), int(j_idx[i + 1 + bad[0]]))
            break
    checks.append(Check("unique-square-roots-in-product-meets", witness is None,
                        witness=witness))

    # one centralizer mask per distinct translation: the products ik (i != k)
    # and the listed nontrivial translations
    sigmas = distinct(np.append(ij[~np.eye(n, dtype=bool)], nontrivial))
    row_of = np.full(G.order, -1, dtype=np.int64)
    row_of[sigmas] = np.arange(len(sigmas))
    cen = np.zeros((len(sigmas), G.order), dtype=bool)
    for r, t in enumerate(sigmas.tolist()):
        cen[r, centralizer(G, t)] = True

    # (c) Cen(ik) equals iJ meet kJ, is abelian, and is inverted by k
    first, group = _distinct_rows(cen)
    abelian = np.empty(len(first), dtype=bool)
    for g, r in enumerate(first):
        members = np.flatnonzero(cen[r])
        table = G.mul(members[:, None], members[None, :])
        abelian[g] = np.array_equal(table, table.T)
    abelian = abelian[group]
    # Cen(ik) is compared on the columns of iJ, and a centralizer element
    # outside iJ shows as a size difference; mismatch is tested first, so
    # inversion by k need only be tabulated on the elements of J.J
    cen_size = cen.sum(axis=1)
    jj = distinct(ij)
    inverted = np.zeros((n, G.order), dtype=bool)
    inverted[:, jj] = G.conj(jj[None, :], j_idx[:, None]) == G.inv(jj)[None, :]
    # cube (i, k, c): cell c of iJ for the pair (i, k), masked on k == i.
    # Chunks over i are scanned in order, so the first hit is row-major least
    step = max(1, _CHUNK_CELLS // (n * n))
    witness = None
    for start in range(0, n, step):
        i = np.arange(start, min(start + step, n))
        cells = ij[i]  # the elements of iJ
        rows = row_of[cells]  # Cen(ik); -1 on the diagonal
        cen_on_ij = cen[:, cells][rows, np.arange(len(i))[:, None]]
        failed = np.stack([
            (cen_on_ij != in_ij[:, cells].transpose(1, 0, 2)).any(axis=2)
            | (np.count_nonzero(cen_on_ij, axis=2) != cen_size[rows]),
            ~abelian[rows],
            (cen_on_ij & ~inverted[:, cells].transpose(1, 0, 2)).any(axis=2),
        ])
        failed[:, i - start, i] = False
        hit = least_cell(failed.any(axis=0))
        if hit is not None:
            r, k = hit
            reason = _C_REASONS[int(np.argmax(failed[:, r, k]))]
            witness = (int(j_idx[start + r]), int(j_idx[k]), reason)
            break
    checks.append(Check("centralizers-match-products-abelian-inverted", witness is None,
                        witness=witness))

    # (d) centralizer classes partition the nontrivial translations
    classes = cen[row_of[nontrivial]]
    classes = classes[_distinct_rows(classes)[0]]
    classes[:, G.identity_index] = False
    is_translation = np.zeros(G.order, dtype=bool)
    is_translation[nontrivial] = True
    outside = np.flatnonzero(classes.any(axis=0) & ~is_translation)
    counts = classes.sum(axis=0)[nontrivial]
    off = np.flatnonzero(counts != 1)
    witness = None
    if len(outside):
        witness = (int(outside[0]), "outside-translations")
    elif len(off):
        witness = (int(nontrivial[off[0]]), f"in-{counts[off[0]]}-classes")
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
        self.lines: list[Line] = []
        self.incidence: np.ndarray | None = None     # (n_lines, n_points) bool
        self.line_of_pair: np.ndarray | None = None  # (|J|,|J|), -1 on diagonal
        self.line_of_translation: np.ndarray | None = None  # order-length, -1 off lines

    @property
    def n_points(self) -> int:
        return len(self.points)

    def lines_inside(self, on: np.ndarray) -> np.ndarray:
        """Which lines have every point in the point mask ``on``: the last
        axis of ``on`` holds the points, and of the result the lines."""
        return ~(~on @ self.incidence.T)

    def as_json_dict(self) -> dict:
        return {
            "points": [int(p) for p in self.points],
            "lines": [list(line.points) for line in self.lines],
            "classes": [sorted(cls) for cls in self.classes],
        }


def build_geometry(G: PermGroup, conditions: CheckReport | None = None) -> Geometry:
    """Construct all lines, cross-validating the three characterizations."""
    cert = _require_odd_characteristic(G)
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

    # translation classes: Cen(sigma) minus identity, ordered by least member
    class_of = np.full(G.order, -1, dtype=np.int64)
    for t in cert._translations.tolist():
        if t == G.identity_index or class_of[t] >= 0:
            continue
        cls = centralizer(G, t)
        cls = cls[cls != G.identity_index]
        class_of[cls] = len(geom.classes)
        geom.classes.append(tuple(cls.tolist()))

    # the pairs a < b in row-major order, and the distinct translations ab in
    # order of first appearance
    a, b = np.triu_indices(n, 1)
    sigma_of_pair = cert._jj[a, b]  # a then b
    _, first_pair = np.unique(sigma_of_pair, return_index=True)
    sigmas = sigma_of_pair[np.sort(first_pair)]
    row_of = np.full(G.order, -1, dtype=np.int64)
    row_of[sigmas] = np.arange(len(sigmas))
    row_of_pair = row_of[sigma_of_pair]

    # membership form: k then sigma is an involution
    member = cert._jpos[G.mul(j_idx[None, :], sigmas[:, None])] >= 0
    # conjugation form: k^-1 sigma k == sigma^-1 with k an involution
    by_conj = G.conj(sigmas[:, None], j_idx[None, :]) == G.inv(sigmas)[:, None]
    differ = np.flatnonzero((member != by_conj).any(axis=1))
    if len(differ):
        raise CharacterizationMismatch(
            f"membership and conjugation disagree for translation {int(sigmas[differ[0]])}"
        )

    # coset form, for every pair (a, b) with product sigma: a then c, c
    # centralizing sigma, gives the membership line (so the line holds a and
    # b and has |Cen(sigma)| points)
    for r, sigma in enumerate(sigmas.tolist()):
        pa, pb = a[row_of_pair == r], b[row_of_pair == r]
        coset = cert._jpos[G.mul(j_idx[pa][:, None], centralizer(G, sigma)[None, :])]
        leaves = (coset < 0).any(axis=1)
        on_coset = np.zeros((len(pa), n), dtype=bool)
        on_coset[np.arange(len(pa))[:, None], coset] = True
        bad = np.flatnonzero(leaves | (on_coset != member[r]).any(axis=1))
        if len(bad):
            x, y = int(j_idx[pa[bad[0]]]), int(j_idx[pb[bad[0]]])
            what = "leaves J" if leaves[bad[0]] else "disagrees with membership"
            raise CharacterizationMismatch(f"coset of pair ({x},{y}) {what}")

    first_sigma, line_of_sigma = _distinct_rows(member)
    geom.incidence = member[first_sigma]
    geom.incidence.setflags(write=False)
    geom.lines = [
        Line(points=tuple(np.flatnonzero(on).tolist()), class_id=int(class_of[sigma]))
        for on, sigma in zip(geom.incidence, sigmas[first_sigma])
    ]
    geom.line_of_translation = np.full(G.order, -1, dtype=np.int64)
    geom.line_of_translation[sigmas] = line_of_sigma
    geom.line_of_translation.setflags(write=False)
    geom.line_of_pair = np.full((n, n), -1, dtype=np.int64)
    geom.line_of_pair[a, b] = geom.line_of_pair[b, a] = line_of_sigma[row_of_pair]
    geom.line_of_pair.setflags(write=False)

    # partial-plane axioms: every pair lies on its line by construction; two
    # lines share at most one point
    inc = geom.incidence.astype(np.int64)
    shared = np.triu(inc @ inc.T, 1)
    pair = least_cell(shared > 1)
    if pair is not None:
        la, lb = pair
        raise CharacterizationMismatch(
            f"lines {la} and {lb} share {shared[la, lb]} points"
        )

    # product of two points of a line centralizes the defining translation class
    for lid, line in enumerate(geom.lines):
        cls = geom.classes[line.class_id] + (G.identity_index,)
        pts = j_idx[list(line.points)]
        if not np.isin(G.mul(pts[:, None], pts[None, :]), cls).all():
            raise CharacterizationMismatch(
                f"line {lid} is not closed into its translation class"
            )
    return geom


def line_through(geom: Geometry, i: int, j: int) -> Line:
    """The unique line through two distinct point positions."""
    if i == j:
        raise PointsEqual(f"need two distinct points, got {i} twice")
    lid = int(geom.line_of_pair[i, j])
    return geom.lines[lid]


# ---------------------------------------------------------------------------
# conjugation action on lines


def verify_line_lemma(geom: Geometry) -> CheckReport:
    """Conjugation facts about lines, scanned over every (line, involution):

    (a) if two distinct involutions conjugate a line to the same image, both
        lie on the line;
    (b) if a line meets its conjugate under an involution, that involution
        lies on the line;
    plus the sanity fact that points of a line fix it under conjugation.
    """
    table = _require_certified(geom.group)._j_conj  # row k: the points conjugated by k
    n = geom.n_points
    checks = []

    witness_a = witness_b = witness_fix = None
    for lid, on_line in enumerate(geom.incidence):
        images = np.zeros((n, n), dtype=bool)  # row k: the line conjugated by k
        images[np.arange(n)[:, None], table[:, on_line]] = True
        off_line = np.flatnonzero(~on_line)
        moved = np.flatnonzero(on_line & (images != on_line).any(axis=1))
        meeting = off_line[(images[off_line] & on_line).any(axis=1)]
        if witness_fix is None and len(moved):
            witness_fix = (lid, int(geom.points[moved[0]]))
        if witness_b is None and len(meeting):
            witness_b = (lid, int(geom.points[meeting[0]]))
        if witness_a is None:
            # image groups are numbered by their least involution
            _, group = _distinct_rows(images)
            shared = off_line[np.bincount(group)[group[off_line]] >= 2]
            if len(shared):
                witness_a = (lid, int(geom.points[shared[np.argmin(group[shared])]]))
    checks.append(Check("equal-conjugates-force-membership", witness_a is None,
                        witness=witness_a))
    checks.append(Check("meeting-conjugate-forces-membership", witness_b is None,
                        witness=witness_b))
    checks.append(Check("line-points-stabilize-line", witness_fix is None,
                        witness=witness_fix))
    return CheckReport("line conjugation lemma", checks)


# ---------------------------------------------------------------------------
# closures and the no-proper-plane verdict


def _point_mask(geom: Geometry, point_set) -> np.ndarray:
    """The one-row stack (1, n_points) holding the mask of ``point_set``."""
    on = np.zeros((1, geom.n_points), dtype=bool)
    on[0, np.array([int(p) for p in point_set], dtype=np.int64)] = True
    return on


def close_point_masks(geom: Geometry, masks: np.ndarray) -> np.ndarray:
    """Close every row of an (S, n_points) stack of point masks under joining
    two points by their line: a line holding two points of a row joins them,
    so all its points join the row. All rows grow together until none
    changes; a closed row is a fixed point, so each row ends at its own
    least closed superset."""
    on_line = geom.incidence.T.astype(np.int32)  # point counts per line
    current = masks
    while True:
        joining = (current @ on_line) >= 2
        grown = current | (joining @ geom.incidence)
        if np.array_equal(grown, current):
            return grown
        current = grown


def _stacked_least_cells(mask_of_rows, rows: int, cells: int) -> np.ndarray:
    """least_cells of the stack that ``mask_of_rows(lo, hi)`` gives for rows
    lo:hi, built in chunks of about _CHUNK_CELLS cells."""
    step = max(1, _CHUNK_CELLS // max(cells, 1))
    return np.concatenate([least_cells(mask_of_rows(lo, lo + step))
                           for lo in range(0, max(rows, 1), step)])


def _unmet_line_pairs(geom: Geometry, inside: np.ndarray) -> np.ndarray:
    """Per row of the (S, n_lines) mask ``inside``, the least pair of its lines
    that do not meet, or (-1, -1)."""
    n_lines = len(geom.incidence)
    apart = np.triu(~(geom.incidence @ geom.incidence.T), 1)

    def unmet(lo, hi):
        within = inside[lo:hi]
        return within[:, :, None] & within[:, None, :] & apart

    return _stacked_least_cells(unmet, len(inside), n_lines * n_lines)


@dataclass(frozen=True)
class ClosureResult:
    points: tuple[int, ...]
    contained_lines: tuple[int, ...]
    pairwise_meeting: bool  # condition (b): contained lines pairwise intersect


def plane_closure(geom: Geometry, seed) -> ClosureResult:
    """Least superset of ``seed`` closed under joining two points by their
    line: one row of :func:`close_point_masks`."""
    closed = close_point_masks(geom, _point_mask(geom, seed))
    inside = geom.lines_inside(closed)
    return ClosureResult(
        points=tuple(np.flatnonzero(closed[0]).tolist()),
        contained_lines=tuple(np.flatnonzero(inside[0]).tolist()),
        pairwise_meeting=bool(_unmet_line_pairs(geom, inside)[0, 0] < 0),
    )


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


HYPOTHESES = (None, "a", "b")  # the failed hypothesis, by no_plane_verdicts code


def no_plane_verdicts(geom: Geometry, masks: np.ndarray):
    """The no-proper-plane hypotheses of every row of an (S, n_points) stack
    of point masks, each tested on its own:

    (a) the line through every pair of members lies inside the set;
    (b) the lines inside the set pairwise meet.

    Returns (failed, witness, line_count). ``failed[s]`` indexes HYPOTHESES:
    0 when both hold, 1 when (a) fails, 2 when only (b) fails. ``witness[s]``
    is the least failing pair of that hypothesis (points for (a), lines for
    (b)), (-1, -1) when both hold. ``line_count[s]`` counts the lines inside
    the set. The (S, n, n) and (S, L, L) masks are built in chunks of rows.
    """
    n = geom.n_points
    inside = geom.lines_inside(masks)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    def leaving(lo, hi):  # member pairs p < q whose line is not inside
        on = masks[lo:hi]
        out = np.take(~inside[lo:hi], geom.line_of_pair, axis=1)
        out &= on[:, :, None]
        out &= on[:, None, :]
        out &= upper
        return out

    pairs_a = _stacked_least_cells(leaving, len(masks), n * n)
    pairs_b = _unmet_line_pairs(geom, inside)
    fails_a = pairs_a[:, 0] >= 0
    failed = np.where(fails_a, 1, np.where(pairs_b[:, 0] >= 0, 2, 0))
    witness = np.where(fails_a[:, None], pairs_a, pairs_b)
    return failed, witness, np.count_nonzero(inside, axis=1)


def verify_no_proper_plane(geom: Geometry, point_set) -> NoPlaneVerdict:
    """If the set is line-closed and its lines pairwise meet, it holds <= 1
    line: one row of :func:`no_plane_verdicts`."""
    failed, witness, line_count = (v[0] for v in no_plane_verdicts(
        geom, _point_mask(geom, point_set)))
    if failed:
        return NoPlaneVerdict(False, HYPOTHESES[failed], tuple(witness.tolist()), None)
    return NoPlaneVerdict(True, None, None, int(line_count))


# ---------------------------------------------------------------------------
# odd-order subgroup scan

DEFAULT_SUBGROUP_CAP = 512  # size past which a scan candidate is abandoned


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
        return field_dict(
            self,
            size_histogram={str(k): v for k, v in sorted(self.size_histogram.items())},
            violations=[list(v) for v in self.violations],
        )


def divisible_subgroup_scan(geom: Geometry) -> SubgroupScanReport:
    """Enumerate odd-order subgroups inside the translation set that some
    involution normalizes, and check each sits inside a translation centralizer.

    A subgroup is a boolean mask over the translation positions. Candidates
    are the closures of one or two translations (subgroups needing more
    generators are outside the scan; the report says so via generator_depth):

    * the cyclic subgroup of each nontrivial translation, from its powers,
      walked for all translations at once;
    * the closure of each pair of distinct cyclic subgroups, grown in rounds
      that multiply every member by every member.

    A candidate with a power or product outside the translation set is
    discarded: it cannot be a subgroup contained in the translations. One
    that grows past DEFAULT_SUBGROUP_CAP members is abandoned and counted in
    skipped_over_cap (once per translation or pair), and the report is marked
    incomplete; within a round an escaping product is found before the cap is
    tested. Violations are listed in (size, sorted translation positions)
    order.
    """
    G = geom.group
    trans = geom.translation_ids
    nt = len(trans)
    t_pos = np.full(G.order, -1, dtype=np.int64)  # element -> translation position
    t_pos[trans] = np.arange(nt)
    ident = int(t_pos[G.identity_index])
    if ident < 0:
        raise CharacteristicAnomaly("the identity is not a translation")

    # partial Cayley table on the translation set; -1 marks products outside it
    table = t_pos[G.mul(trans[:, None], trans[None, :])]

    # cyclic subgroups: row r walks the powers of gens[r]; the first repeated
    # power is the identity, and every live row holds `size` members
    gens = np.flatnonzero(np.arange(nt) != ident)
    cyclic = np.zeros((len(gens), nt), dtype=bool)
    cyclic[:, ident] = True
    cyclic[np.arange(len(gens)), gens] = True
    closed = np.zeros(len(gens), dtype=bool)
    live, power, size = np.arange(len(gens)), gens, 2
    while len(live):
        power = table[power, gens[live]]
        closed[live[power == ident]] = True
        grows = (power >= 0) & (power != ident)
        live, power = live[grows], power[grows]
        cyclic[live, power] = True
        size += 1
        if size > DEFAULT_SUBGROUP_CAP:
            break
    skipped = len(live)
    cyclic = cyclic[closed]
    cyclic = cyclic[_distinct_rows(cyclic)[0]]

    # a pair generates what its two cyclic subgroups generate, so distinct
    # cyclic subgroups are paired; the identity is a member of every closure,
    # so each round's products hold its members
    closures = [cyclic]
    for a, b in zip(*np.triu_indices(len(cyclic), 1)):
        members = np.flatnonzero(cyclic[a] | cyclic[b])
        while True:
            products = table[members[:, None], members]
            if products.min() < 0:
                break
            grown = np.zeros(nt, dtype=bool)
            grown[products] = True
            if np.count_nonzero(grown) == len(members):
                closures.append(grown[None, :])
                break
            members = np.flatnonzero(grown)
            if len(members) > DEFAULT_SUBGROUP_CAP:
                skipped += 1
                break

    subgroups = np.concatenate(closures)
    subgroups = subgroups[_distinct_rows(subgroups)[0]]
    sizes = subgroups.sum(axis=1)

    # odd subgroups normalized by an involution whose conjugation keeps the
    # translations: the conjugate of every member is a member
    conj = t_pos[G.conj(trans[None, :], geom.points[:, None])]
    conj = conj[(conj >= 0).all(axis=1)]
    odd = subgroups[(sizes % 2 == 1) & (sizes > 1)]
    found = odd[(odd[:, conj] | ~odd[:, None, :]).all(axis=2).any(axis=1)]

    # centralizers of the translation classes, on the translation positions
    cen = np.zeros((len(geom.classes), nt), dtype=bool)
    for c, cls in enumerate(geom.classes):
        on = t_pos[centralizer(G, cls[0])]
        cen[c, on[on >= 0]] = True
    outside = (found[:, None, :] & ~cen).any(axis=2).all(axis=1)
    violations = sorted((np.flatnonzero(m) for m in found[outside]),
                        key=lambda p: (len(p), p.tolist()))

    histogram = np.bincount(found.sum(axis=1))
    return SubgroupScanReport(
        examined=len(subgroups),
        found=len(found),
        size_histogram={int(k): int(histogram[k]) for k in np.flatnonzero(histogram)},
        violations=[tuple(np.sort(trans[p]).tolist()) for p in violations],
        skipped_over_cap=skipped,
        complete=skipped == 0,
    )
