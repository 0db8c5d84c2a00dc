"""Every odd entry of the default catalog against closed forms in its
parameters.

A finite sharply 2-transitive group of odd degree q = p^e is K x| K* for a
near-field K of order q, so each report field the pipeline computes by
scanning the group is fixed by (p, e). Here those values come from
``CatalogEntry.params`` alone, and the involutions and translations from the
near-field tables alone, with no group arithmetic:

* J = {x -> (x mul -1) add a} and T = {x -> x add a}, over a in K;
* |G| = q(q - 1), and |J|, nhat, khat, |J.J|, |J.J.J| and the alpha count
  are q, while lhat is 0;
* every X_alpha has q members;
* the geometry is one line of q points, in one class;
* all 100 plane closures meet the hypotheses, none holding two lines;
* the subgroups of T of order p and p^2 number the Gaussian binomials
  [e, 1]_p and [e, 2]_p.
"""

import numpy as np
import pytest

from involq import s2t
from involq.catalog import build_entry, run_catalog
from involq.nearfield import make_dickson, make_field, prime_power
from involq.pipeline import verify_group

ODD_ENTRIES = [e for e in run_catalog() if e.expected_certified and e.degree % 2]


def _order_and_nearfield(entry):
    """(p, e) with p^e the degree, and the near-field the entry is built on."""
    if entry.family == "agl-field":
        p, e = entry.params
        return p, e, make_field(p, e)
    q, n = entry.params
    p, e = prime_power(q)
    return p, e * n, make_dickson(q, n)


def _gaussian_binomial(e, k, p):
    """The number of k-dimensional subspaces of GF(p)^e."""
    num = den = 1
    for i in range(k):
        num *= p ** (e - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _row_set(rows):
    return sorted(map(tuple, np.asarray(rows).tolist()))


def test_the_oracle_covers_every_odd_default_entry():
    assert len(ODD_ENTRIES) == 40


@pytest.mark.parametrize("entry", ODD_ENTRIES, ids=lambda e: e.id)
def test_odd_entry_matches_its_closed_forms(entry):
    p, e, nf = _order_and_nearfield(entry)
    q = p**e
    G = build_entry(entry)

    minus_one = int(np.flatnonzero(nf.add[:, 1] == 0)[0])
    shift = nf.add.T  # row a: x -> x add a
    assert _row_set(G.rows(s2t.involutions(G))) == _row_set(shift[:, nf.mul[:, minus_one]])
    assert _row_set(G.rows(s2t.translations(G))) == _row_set(shift)

    report = verify_group(G, entry)
    assert report["ok"] and report["conforms"]
    sections = report["sections"]
    assert report["order"] == q * (q - 1)
    assert sections["certificate"]["involution_count"] == q

    census = sections["census"]
    assert [census[k] for k in ("nhat", "khat", "j2_size", "j3_size")] == [q] * 4
    assert census["lhat"] == 0
    assert {size for _, size in census["xalpha_sizes"]} == {q}
    assert sections["xalpha_covering"]["alphas_total"] == q

    geometry = sections["geometry"]
    assert (geometry["n_lines"], geometry["line_sizes"], geometry["n_classes"]) == (1, [q], 1)

    planes = sections["no_proper_plane"]
    assert planes["closures_meeting_hypotheses"] == 100
    assert planes["max_contained_lines"] <= 1

    subgroups = sections["divisible_subgroups"]
    histogram = {p**k: _gaussian_binomial(e, k, p) for k in (1, 2)}
    assert subgroups["complete"]
    assert subgroups["size_histogram"] == {str(size): count for size, count in histogram.items()
                                           if count}
    assert subgroups["found"] == sum(histogram.values())
