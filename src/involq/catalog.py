"""Built-in verification targets.

The catalog holds, for each degree bound:

* affine groups over every finite field of odd order (the split positives),
* the affine group over GF(4) as the characteristic-2 path,
* affine groups over every Dickson near-field with odd q, n >= 2,
* the symmetric group on 4 points as a certification-negative fixture.

Entries carry the flags the pipeline expects to observe, so a batch run can
distinguish "this fixture failed as designed" from a real regression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvolqError
from .nearfield import is_dickson_pair, make_dickson, make_field, prime_power
from .permgroup import PermGroup, affine_group, parse_group_doc
from .reporting import field_dict

DEFAULT_MAX_DEGREE = 121

SYM4_DOC = {"degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    family: str                  # agl-field | agl-dickson | ingested
    params: tuple
    degree: int
    expected_certified: bool
    expected_split: bool | None
    expected_characteristic: int | None

    def as_dict(self) -> dict:
        return field_dict(self, params=list(self.params))


def _odd_prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(3, limit + 1, 2):
        if prime_power(q) is not None:
            out.append(q)
    return out


def _affine(entry_id: str, family: str, params: tuple, q: int) -> CatalogEntry:
    """The entry of an affine group over a near-field of order q: certified,
    split, and of the characteristic of q."""
    return CatalogEntry(
        id=entry_id,
        family=family,
        params=params,
        degree=q,
        expected_certified=True,
        expected_split=True,
        expected_characteristic=prime_power(q)[0],
    )


def run_catalog(max_degree: int = DEFAULT_MAX_DEGREE) -> list[CatalogEntry]:
    """All built-in entries of degree <= max_degree, in sorted id order."""
    if max_degree < 3:
        raise InputError(f"need max_degree >= 3, got {max_degree}")
    entries = [_affine(f"agl-field-{q}", "agl-field", prime_power(q), q)
               for q in _odd_prime_powers(max_degree)]
    if max_degree >= 4:
        entries.append(_affine("agl-field-4", "agl-field", (2, 2), 4))
        entries.append(
            CatalogEntry(
                id="sym4-fixture",
                family="ingested",
                params=(),
                degree=4,
                expected_certified=False,
                expected_split=None,
                expected_characteristic=None,
            )
        )
    for q in _odd_prime_powers(max_degree):
        n = 2
        while q**n <= max_degree:
            if is_dickson_pair(q, n):
                entries.append(_affine(f"agl-dickson-{q}-{n}", "agl-dickson", (q, n), q**n))
            n += 1
    return sorted(entries, key=lambda e: e.id)


def build_entry(entry: CatalogEntry) -> PermGroup:
    if entry.family == "agl-field":
        p, e = entry.params
        return affine_group(make_field(p, e))
    if entry.family == "agl-dickson":
        q, n = entry.params
        return affine_group(make_dickson(q, n))
    if entry.id == "sym4-fixture":
        return parse_group_doc(SYM4_DOC)
    raise InvolqError(f"cannot build entry {entry.id}")


def find_entry(entry_id: str, max_degree: int = DEFAULT_MAX_DEGREE) -> CatalogEntry | None:
    for entry in run_catalog(max_degree):
        if entry.id == entry_id:
            return entry
    return None
