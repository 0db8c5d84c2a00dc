"""Affine groups over near-fields, and why they are sharply 2-transitive.

Every map x -> (x * m) + a with m nonzero is a permutation; together they act
regularly on ordered pairs of distinct points: exactly one map carries any
pair to any other. The certificate below checks that by brute force.
"""

import numpy as np

from involq import (
    affine_group,
    centralizer,
    certify_sharply_2_transitive,
    conjugacy_class,
    involutions,
    make_dickson,
    make_field,
    translations,
)

G = affine_group(make_field(5, 1))
print(f"affine group over GF(5): degree {G.degree}, order {G.order}")
cert = certify_sharply_2_transitive(G)
print(f"certificate: valid={cert.valid}, characteristic={cert.characteristic},")
print(f"  involutions={cert.involution_count} ({cert.fixed_point_profile})")

# the unique element swapping 0 and 1 is an involution: x -> -x + 1
(swap,) = np.flatnonzero((G.column(0) == 1) & (G.column(1) == 0))
print("swap(0,1) images:", G.rows(swap).tolist())

J = involutions(G)
T = translations(G)
print(f"|J| = {len(J)} involutions, |J.J| = {len(T)} translations")

shift = G.elements[T[1]]
print("a translation:", shift.tolist())
print("its centralizer has", len(centralizer(G, shift)), "elements (the translations)")
print("its conjugacy class has", len(conjugacy_class(G, shift)),
      "elements (the nontrivial translations)")

# the same machinery over a noncommutative near-field
H = affine_group(make_dickson(3, 2))
cert_h = certify_sharply_2_transitive(H)
print(f"\naffine group over dickson(3,2): degree {H.degree}, order {H.order},")
print(f"  certified={cert_h.valid}, characteristic={cert_h.characteristic}")
print("centralizer of a nontrivial translation:",
      len(centralizer(H, H.elements[translations(H)[1]])), "elements")
