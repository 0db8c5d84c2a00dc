"""The point-line structure on involutions, built and cross-validated.

Points are involutions; the line through two of them collects every
involution k whose product with their translation stays inside the
involutions. Split groups collapse to a single line containing all points,
and the no-proper-plane verdict confirms nothing richer hides inside.
"""

import numpy as np

from involq import (
    affine_group,
    build_geometry,
    check_geometry_conditions,
    divisible_subgroup_scan,
    make_dickson,
    verify_line_lemma,
)
from involq.geometry import close_point_masks, no_plane_verdicts

G = affine_group(make_dickson(3, 2))
conditions = check_geometry_conditions(G)
print("geometry preconditions:")
for check in conditions.checks:
    print(f"  {check.name:45s} {'pass' if check.passed else 'FAIL'}")

geom = build_geometry(G, conditions)
print(f"\npoints: {geom.n_points}, lines: {len(geom.incidence)},"
      f" translation classes: {len(geom.classes)}")
# the lines are the rows of the incidence matrix
line = np.flatnonzero(geom.incidence[geom.line_of_pair[0, 1]]).tolist()
print("the line through points 0 and 1 has", len(line), "points:", line)

lemma = verify_line_lemma(G, geom)
print("line conjugation lemma:", "pass" if lemma.ok else "FAIL")

# closures and verdicts take a stack of point masks, here one row
seed = np.zeros((1, geom.n_points), dtype=bool)
seed[0, [2, 5]] = True
closure = close_point_masks(geom, seed)
print(f"\nclosing {{2, 5}} under joins gives {np.count_nonzero(closure)} points")
failed, line_count = no_plane_verdicts(geom, closure)
print(f"no-proper-plane verdict: hypotheses_met={failed[0] == 0},"
      f" contained lines={line_count[0]}")

scan = divisible_subgroup_scan(G, geom)
print(f"\nodd-order subgroups inside the translations, normalized by an involution:")
print(f"  found {scan.found} (sizes {scan.size_histogram}),"
      f" violations: {len(scan.violations)}, complete: {scan.complete}")
