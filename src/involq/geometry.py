"""The point-line incidence structure on the involutions of a certified group.

Points are the involutions. For distinct involutions i, j the line through
them can be described three ways, and all three are computed and compared
during the build:

* membership:   { k in J : k (i j) lies in J }
* coset:        { i c : c centralizing i j }          (must land inside J)
* conjugation:  { k in J : k^-1 (i j) k == j i }

The three forms are one boolean row per distinct translation i j: the coset
of its first pair decides every pair with that product, as
:func:`build_geometry` argues.

The build only proceeds when the four equivalent preconditions hold
(commuting transitive on nontrivial translations; unique square roots in the
products iJ meet kJ; centralizers equal to those products, abelian and
inverted; centralizer classes partitioning the nontrivial translations).
:func:`check_geometry_conditions` decides (a) from labels of the commuting
rows of the translations, and the others for every pair from tables of about
|J|^2 cells over the columns of J.J, by the exact reductions its docstring
states.
The finished structure is a partial plane: two points span exactly one
line, two lines meet in at most one point. A :class:`Geometry` refuses to be
built otherwise, and derives the line of each pair from its incidence.

Inside this module points are positions 0..|J|-1 into the involution list;
the ``points`` array maps positions back to group element indices. Lines are
the rows of ``Geometry.incidence``, an (n_lines, n_points) boolean matrix,
and ``Geometry.line_of_translation`` is an order-length array giving the
line of each nontrivial translation (-1 on every other element). Closures,
the no-proper-plane verdict, the line lemma and the X_alpha covering all
read that matrix. A Geometry holds no group: the line lemma and the
odd-subgroup scan take ``(G, geom)`` and read the involution conjugation
table and the translations from the certified sets of G, which
:mod:`involq.s2t` builds once and caches.

The odd-subgroup scan (:func:`divisible_subgroup_scan`) closes all its
candidate subgroups together, in rounds over a stack of masks, each distinct
set grown once per round.

Closures and the no-proper-plane verdict are batched kernels over an
(S, n_points) stack of point masks: :func:`close_point_masks` grows every
row by the lines holding two of its points until no row changes, and
:func:`no_plane_verdicts` returns, per row, the code of the failed
hypothesis and the count of contained lines, each hypothesis decided per
line from member counts and one product of the contained lines with the
pairs of lines that do not meet. Both rest on the partial-plane axioms,
which every :class:`Geometry` checks when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CharacterizationMismatch, GeometryConditionsFailed
from .permgroup import PermGroup, centralizer, distinct, member_mask
from .reporting import Check, CheckReport, field_dict, in_chunks, least_cell
from .s2t import _require_certified, _require_odd_characteristic, translation_products


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) for the rows of a boolean or integer matrix: the first
    row of each distinct row, and the group of every row, groups numbered by
    first appearance."""
    packed = np.ascontiguousarray(np.packbits(rows, axis=1) if rows.dtype == bool else rows)
    keys = packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[group]


def _members(masks: np.ndarray, pad) -> tuple[np.ndarray, np.ndarray]:
    """The True positions of each row of a boolean matrix, in order, as the
    rows of one int64 matrix padded with ``pad``; and the count per row."""
    rows, cols = np.nonzero(masks)
    size = np.count_nonzero(masks, axis=1)
    out = np.full((len(masks), size.max(initial=0)), pad, dtype=np.int64)
    out[rows, np.arange(len(rows)) - (np.cumsum(size) - size)[rows]] = cols
    return out, size


def _padded(rows: list[np.ndarray], pad) -> np.ndarray:
    """The arrays ``rows`` as the rows of one matrix, padded with ``pad``."""
    out = np.full((len(rows), max(map(len, rows), default=0)), pad, dtype=np.int64)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


# ---------------------------------------------------------------------------
# the four equivalent preconditions

_C_REASONS = ("centralizer-mismatch", "not-abelian", "not-inverted")


def check_geometry_conditions(G: PermGroup) -> CheckReport:
    """Evaluate the four conditions independently and report agreement.

    (a) is decided without the |T|^3 reachability product: commuting is
    reflexive and symmetric, so it is transitive exactly when translations
    that commute have equal commuting rows. The product is built only on
    failure, to name the least failing triple. (b) and (c) are decided for
    every pair of involutions by exact reductions to tables of about |J|^2
    cells, and each witness is the least failing tuple of the pair loop that
    the reduction replaces:

    * iJ is held as a boolean row over the columns of J.J only: iJ, and so
      every meet iJ ∩ kJ, lies inside J.J.
    * (b) asks whether squaring maps iJ ∩ kJ onto itself, a property of the
      two sets alone. It is tested once per pair of distinct iJ rows, on
      representatives, in row chunks, and each pair (i, k) reads the verdict
      of its pair of rows. In every catalog group iJ = J.J for all i, so
      one pair of rows is tested.
    * (c) is read from three count matrices over the J.J columns:
      |iJ ∩ kJ| per (i, k), |Cen(σ) ∩ iJ| per (σ, i), and the members of
      Cen(σ) that k does not invert per (σ, k). For σ = ik, Cen(σ) differs
      from iJ ∩ kJ exactly when |Cen(σ)| differs from |Cen(σ) ∩ iJ|, from
      |Cen(σ) ∩ kJ| or from |iJ ∩ kJ|. When it does not, Cen(σ) lies inside
      iJ, so k inverts all of Cen(σ) exactly when it inverts the members in
      iJ that the loop tested. The counts are int64, so no product goes
      through float BLAS, whose thread count a caller need not pin.
    * The abelian test of (c), the count rows and (d) run once per distinct
      centralizer set.
    """
    sets = _require_odd_characteristic(G)

    j_idx = sets.j
    trans = sets.translations
    keep = trans != G.identity_index
    nontrivial = trans[keep].astype(np.int64)
    checks: list[Check] = []

    # (a) commuting is transitive on the nontrivial translations. It is
    # reflexive and symmetric, so it is transitive exactly when translations
    # that commute have equal commuting rows; the |T|^3 product is built only
    # to name the least failing triple
    products = translation_products(G)[np.ix_(keep, keep)]
    commute = products == products.T
    label = _distinct_rows(commute)[1]
    witness = None
    if (commute & (label[:, None] != label[None, :])).any():
        reach = (commute.astype(np.int64) @ commute.astype(np.int64)) > 0
        a, c = np.argwhere(reach & ~commute)[0]
        b = int(np.nonzero(commute[a] & commute[:, c])[0][0])
        witness = (int(nontrivial[a]), int(nontrivial[b]), int(nontrivial[c]))
    checks.append(Check("commuting-transitive-on-translations", witness is None,
                        witness=witness))

    # iJ as a membership row over the columns of J.J, row i for the
    # involution at position i; column m collects elements outside J.J
    n = len(j_idx)
    ij = sets.jj  # row i: i then each involution
    jj = distinct(ij)
    m = len(jj)
    column = np.full(G.order, m, dtype=np.int64)
    column[jj] = np.arange(m)
    in_ij = np.zeros((n, m), dtype=bool)
    in_ij[np.arange(n)[:, None], column[ij]] = True
    first_ij, group_ij = _distinct_rows(in_ij)

    # (b) squaring is a bijection of iJ meet kJ for all involution pairs,
    # decided per pair left <= right of distinct iJ rows
    square_column = column[G.mul(jj, jj)]
    left, right = np.triu_indices(len(first_ij))

    def squares_differ(lo, hi):
        meet = in_ij[first_ij[left[lo:hi]]] & in_ij[first_ij[right[lo:hi]]]
        rows, cols = np.nonzero(meet)
        image = np.zeros((hi - lo, m + 1), dtype=bool)
        image[rows, square_column[cols]] = True
        return image[:, m] | (image[:, :m] != meet).any(axis=1)

    fails = np.zeros((len(first_ij),) * 2, dtype=bool)
    fails[left, right] = fails[right, left] = in_chunks(squares_differ, len(left), m)
    witness = least_cell(np.triu(fails[group_ij[:, None], group_ij[None, :]], 1))
    if witness is not None:
        witness = (int(j_idx[witness[0]]), int(j_idx[witness[1]]))
    checks.append(Check("unique-square-roots-in-product-meets", witness is None,
                        witness=witness))

    # one centralizer set per distinct translation: the products ik (i != k)
    # and the listed nontrivial translations; set r of the distinct sets is
    # cens[first_cen[r]], and row_of sends each translation to its cens row
    sigmas = distinct(np.append(ij[~np.eye(n, dtype=bool)], nontrivial))
    row_of = np.full(G.order, -1, dtype=np.int64)
    row_of[sigmas] = np.arange(len(sigmas))
    cens = [centralizer(G, t) for t in sigmas.tolist()]
    first_cen, set_of = _distinct_rows(_padded(cens, -1))
    sets = [cens[r] for r in first_cen]
    set_size = np.array([len(members) for members in sets])

    # (c) Cen(ik) equals iJ meet kJ, is abelian, and is inverted by k
    set_on_jj = np.zeros((len(sets), m + 1), dtype=np.int64)  # on the J.J columns
    abelian = np.empty(len(sets), dtype=bool)
    for r, members in enumerate(sets):
        set_on_jj[r, column[members]] = 1
        table = G.mul(members[:, None], members[None, :])
        abelian[r] = np.array_equal(table, table.T)
    set_on_jj = set_on_jj[:, :m]
    inverted = G.conj(jj[None, :], j_idx[:, None]) == G.inv(jj)[None, :]
    rows_ij = in_ij[first_ij].astype(np.int64)
    meet_size = (rows_ij @ rows_ij.T)[group_ij[:, None], group_ij[None, :]]  # (i, k)
    set_in_ij = (set_on_jj @ rows_ij.T)[:, group_ij]  # (set, i)
    not_inverted = set_on_jj @ (~inverted).T.astype(np.int64)  # (set, k)

    i, k = np.indices((n, n))
    s = set_of[row_of[ij]]  # (i, k): the set Cen(ik); any set on the diagonal
    size = set_size[s]
    reasons = np.stack([
        (meet_size != size) | (set_in_ij[s, i] != size) | (set_in_ij[s, k] != size),
        ~abelian[s],
        not_inverted[s, k] > 0,
    ])
    reasons[:, i == k] = False
    witness = None
    if (hit := least_cell(reasons.any(axis=0))) is not None:
        a, b = hit
        witness = (int(j_idx[a]), int(j_idx[b]), _C_REASONS[int(np.argmax(reasons[:, a, b]))])
    checks.append(Check("centralizers-match-products-abelian-inverted", witness is None,
                        witness=witness))

    # (d) centralizer classes partition the nontrivial translations
    members = np.concatenate([sets[r] for r in distinct(set_of[row_of[nontrivial]])])
    members = members[members != G.identity_index]
    outside = members[~member_mask(G, nontrivial)[members]]
    counts = np.bincount(members, minlength=G.order)[nontrivial]
    off = np.flatnonzero(counts != 1)
    witness = None
    if len(outside):
        witness = (int(outside.min()), "outside-translations")
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


@dataclass(frozen=True, eq=False)
class Geometry:
    """Finished incidence structure, a partial plane: every pair p != q lies
    on a line, and two lines share at most one point. Construction checks
    both from ``incidence`` (CharacterizationMismatch on a failure) and
    derives ``line_of_pair[p, q]``, their line (-1 on the diagonal). The
    arrays are read-only; line l's points are the True cells of its row."""

    points: np.ndarray                    # J positions -> element index
    classes: tuple[tuple[int, ...], ...]  # element indices per class
    incidence: np.ndarray                 # (n_lines, n_points) bool
    line_of_translation: np.ndarray       # order-length, -1 off lines
    line_of_pair: np.ndarray = field(init=False)  # (|J|,|J|), -1 on diagonal

    def __post_init__(self):
        inc = self.incidence.astype(np.int64)
        shared = np.triu(inc @ inc.T, 1)
        if (pair := least_cell(shared > 1)) is not None:
            la, lb = pair
            raise CharacterizationMismatch(f"lines {la} and {lb} share {shared[la, lb]} points")
        # lines share at most one point, so a pair is on at most one line:
        # the sum of 1 + l over the lines l holding it is 1 + its line, or 0
        line = (inc.T * np.arange(1, len(inc) + 1)) @ inc - 1
        np.fill_diagonal(line, 0)
        if (pair := least_cell(line < 0)) is not None:
            raise CharacterizationMismatch(f"pair ({pair[0]},{pair[1]}) is on no line")
        np.fill_diagonal(line, -1)
        object.__setattr__(self, "line_of_pair", line)
        for array in (self.points, self.incidence, self.line_of_pair, self.line_of_translation):
            array.setflags(write=False)

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
            "lines": [np.flatnonzero(on).tolist() for on in self.incidence],
            "classes": [sorted(cls) for cls in self.classes],
        }


def build_geometry(G: PermGroup, conditions: CheckReport | None = None) -> Geometry:
    """Construct all lines, cross-validating the three characterizations,
    each once per distinct translation: the coset form on the first pair with
    that product, which decides every such pair as centralizer() returns a
    subgroup (the argument is stated at that step)."""
    sets = _require_odd_characteristic(G)
    if conditions is None:
        conditions = check_geometry_conditions(G)
    if not conditions.ok:
        raise GeometryConditionsFailed(
            f"failed: {[c.name for c in conditions.failures()]}"
        )

    j_idx = sets.j
    n = len(j_idx)

    # translation classes: Cen(sigma) minus identity, ordered by least member
    classes: list[tuple[int, ...]] = []
    class_of = np.full(G.order, -1, dtype=np.int64)
    for t in sets.translations.tolist():
        if t == G.identity_index or class_of[t] >= 0:
            continue
        cls = centralizer(G, t)
        cls = cls[cls != G.identity_index]
        class_of[cls] = len(classes)
        classes.append(tuple(cls.tolist()))

    # the pairs a < b in row-major order, and the distinct translations ab in
    # order of first appearance, each with its first pair
    a, b = np.triu_indices(n, 1)
    sigma_of_pair = sets.jj[a, b]  # a then b
    first = np.full(G.order, len(a))
    np.minimum.at(first, sigma_of_pair, np.arange(len(a)))
    first_pair = np.flatnonzero(first[sigma_of_pair] == np.arange(len(a)))
    sigmas = sigma_of_pair[first_pair]

    # membership form: k then sigma is an involution
    member = sets.jpos[G.mul(j_idx[None, :], sigmas[:, None])] >= 0
    # conjugation form: k^-1 sigma k == sigma^-1 with k an involution
    by_conj = G.conj(sigmas[:, None], j_idx[None, :]) == G.inv(sigmas)[:, None]
    differ = np.flatnonzero((member != by_conj).any(axis=1))
    if len(differ):
        raise CharacterizationMismatch(
            f"membership and conjugation disagree for translation {int(sigmas[differ[0]])}"
        )

    # coset form, for every pair (a, b) with product sigma: a then c, c
    # centralizing sigma, gives the membership line (so the line holds a and
    # b and has |Cen(sigma)| points). The first pair of each sigma decides
    # every pair (a', b') with that product, because centralizer() returns a
    # subgroup: a' lies on the line, as a' sigma = b' is in J, so when
    # a Cen(sigma) is the line, a' = a c' with c' in Cen(sigma) and
    # a' Cen(sigma) = a Cen(sigma); when it is not, no a' Cen(sigma) is, or
    # it would hold a. So the pair named is the first failing pair of the
    # first failing sigma. Row r of `on_coset` marks the J positions of the
    # coset of sigma_r, and its last column the products outside J (-1).
    cens = [centralizer(G, sigma) for sigma in sigmas.tolist()]
    owner = np.repeat(np.arange(len(sigmas)), [len(cen) for cen in cens])
    coset = sets.jpos[G.mul(j_idx[a[first_pair]][owner], np.concatenate(cens))]
    on_coset = np.zeros((len(sigmas), n + 1), dtype=bool)
    on_coset[owner, coset] = True
    leaves = on_coset[:, n]
    fails = np.flatnonzero(leaves | (on_coset[:, :n] != member).any(axis=1))
    if len(fails):
        pair = first_pair[fails[0]]
        x, y = int(j_idx[a[pair]]), int(j_idx[b[pair]])
        what = "leaves J" if leaves[fails[0]] else "disagrees with membership"
        raise CharacterizationMismatch(f"coset of pair ({x},{y}) {what}")

    first_sigma, line_of_sigma = _distinct_rows(member)
    incidence = member[first_sigma]
    line_class = class_of[sigmas[first_sigma]]  # -1: the translation is in no class
    line_of_translation = np.full(G.order, -1, dtype=np.int64)
    line_of_translation[sigmas] = line_of_sigma
    geom = Geometry(j_idx, tuple(classes), incidence, line_of_translation)

    # product of two points of a line centralizes the defining translation
    # class: in a partial plane, the pairs of distinct points of a line are
    # the pairs whose line it is, and each product must be in the line's
    # class. The diagonal (j j is the identity, which every class admits; -1
    # in line_of_pair) is masked. A line whose translation is in no class
    # fails explicitly, as its products, in no class either, would match it.
    pair_class = line_class[geom.line_of_pair]
    bad = ~np.eye(n, dtype=bool) & ((class_of[sets.jj] != pair_class) | (pair_class < 0))
    if bad.any():
        raise CharacterizationMismatch(
            f"line {geom.line_of_pair[bad].min()} is not closed into its translation class"
        )
    return geom


# ---------------------------------------------------------------------------
# conjugation action on lines


def verify_line_lemma(G: PermGroup, geom: Geometry) -> CheckReport:
    """Conjugation facts about lines, scanned over every (line, involution):

    (a) if two distinct involutions conjugate a line to the same image, both
        lie on the line;
    (b) if a line meets its conjugate under an involution, that involution
        lies on the line;
    plus the sanity fact that points of a line fix it under conjugation.
    """
    table = _require_odd_characteristic(G).j_conj  # row k: the points conjugated by k
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


def no_plane_verdicts(geom: Geometry, masks: np.ndarray):
    """The no-proper-plane hypotheses of every row of an (S, n_points) stack
    of point masks, each tested on its own:

    (a) the line through every pair of members lies inside the set;
    (b) the lines inside the set pairwise meet.

    Returns (failed, line_count). ``failed[s]`` is 0 when both hold, 1 when
    (a) fails and 2 when only (b) fails. ``line_count[s]`` counts the lines
    inside the set.

    Both are decided per line, with no point-pair mask. In a partial plane
    the line of two members is the one line holding both, so a set fails (a)
    exactly when a line holds two or more members and is not inside the set;
    the members per line are an integer product, never float BLAS. A set
    fails (b) when a line inside it is apart from another line inside it:
    one boolean product of the contained lines with the pairs of distinct
    lines that share no point.
    """
    inside = geom.lines_inside(masks)
    members = masks.astype(np.int32) @ geom.incidence.T.astype(np.int32)
    apart = ~(geom.incidence @ geom.incidence.T)
    np.fill_diagonal(apart, False)
    fails_a = ((members >= 2) & ~inside).any(axis=1)
    fails_b = ((inside @ apart) & inside).any(axis=1)
    failed = np.where(fails_a, 1, np.where(fails_b, 2, 0))
    return failed, np.count_nonzero(inside, axis=1)


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


def divisible_subgroup_scan(G: PermGroup, geom: Geometry) -> SubgroupScanReport:
    """Enumerate odd-order subgroups inside the translation set that some
    involution normalizes, and check each sits inside a translation centralizer.

    A subgroup is a boolean mask over the translation positions. Candidates
    are the closures of one or two translations (subgroups needing more
    generators are outside the scan; the report says so via generator_depth):

    * the cyclic subgroup of each nontrivial translation, from its powers,
      walked for all translations at once;
    * the closure of each pair of distinct cyclic subgroups, grown for all
      pairs at once in rounds that multiply every member by every member.
      A pair's later rounds depend only on its current set, so each round
      grows every distinct set once, however many pairs hold it, with its
      products formed in the row chunks of :mod:`involq.reporting`.

    A candidate with a power or product outside the translation set is
    discarded: it cannot be a subgroup contained in the translations. One
    that grows past DEFAULT_SUBGROUP_CAP members is abandoned and counted in
    skipped_over_cap (once per translation or pair), and the report is marked
    incomplete; within a round an escaping product is found before a closed
    set, and a closed set before the cap. Each subgroup is tested for an
    involution normalizing it once per distinct conjugation action of the
    involutions on the translations. Violations are listed in (size, sorted
    translation positions) order.
    """
    trans = _require_certified(G).translations
    nt = len(trans)
    t_pos = np.full(G.order, -1, dtype=np.int64)  # element -> translation position
    t_pos[trans] = np.arange(nt)
    ident = int(t_pos[G.identity_index])  # j j = 1 for every involution j

    # partial Cayley table on the translation set; -1 marks products outside it
    table = t_pos[translation_products(G)]

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
    # cyclic subgroups are paired, one row of `current` per pair a < b. The
    # rest of a pair's rounds depends only on its current set, so each round
    # grows every distinct set once, for the `pairs` pairs that hold it: all
    # member x member products of every set at once, in row chunks, members
    # padded with the identity, whose products add nothing. Column nt of a
    # grown set marks a product outside the translations
    a, b = np.triu_indices(len(cyclic), 1)
    current = cyclic[a] | cyclic[b]
    pairs = np.ones(len(current), dtype=np.int64)
    closures = [cyclic]
    flat_table = table.ravel()
    while len(current):
        first, group = _distinct_rows(current)
        current = current[first]
        pairs = np.bincount(group, weights=pairs).astype(np.int64)
        members, size = _members(current, ident)
        width = members.shape[1]

        def grow(lo, hi):
            at = members[lo:hi]
            products = flat_table[at[:, :, None] * nt + at[:, None, :]]
            products[products < 0] = nt
            grown = np.zeros((hi - lo, nt + 1), dtype=bool)
            grown.ravel()[products + (np.arange(hi - lo) * (nt + 1))[:, None, None]] = True
            return grown

        grown = in_chunks(grow, len(current), width * width)
        escaped = grown[:, nt]
        grown_size = np.count_nonzero(grown[:, :nt], axis=1)
        closed = ~escaped & (grown_size == size)
        over = ~escaped & ~closed & (grown_size > DEFAULT_SUBGROUP_CAP)
        closures.append(current[closed])
        skipped += int(pairs[over].sum())
        live = ~(escaped | closed | over)
        current, pairs = grown[live, :nt], pairs[live]

    subgroups = np.concatenate(closures)
    subgroups = subgroups[_distinct_rows(subgroups)[0]]
    sizes = subgroups.sum(axis=1)

    # odd subgroups normalized by an involution whose conjugation keeps the
    # translations: the conjugate of every member is a member. Involutions
    # that act alike are tested once (in K x| K* every one inverts T)
    conj = t_pos[G.conj(trans[None, :], geom.points[:, None])]
    conj = conj[(conj >= 0).all(axis=1)]
    conj = conj[_distinct_rows(conj)[0]]
    odd = subgroups[(sizes % 2 == 1) & (sizes > 1)]
    found = odd[in_chunks(lambda lo, hi: (odd[lo:hi, conj] | ~odd[lo:hi, None, :])
                          .all(axis=2).any(axis=1), len(odd), conj.size)]

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
