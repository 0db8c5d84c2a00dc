"""The batch verification pipeline and its JSON report.

``STAGES`` declares the twelve report stages once, in the order they run:
certificate, basic regularity, geometry preconditions, geometry build, line
conjugation lemma, plane closures, odd-subgroup scan, split test,
coordinatization, roundtrip, census, line covering. Each row names the one
earlier stage it needs, and one rule decides whether the row runs:

* the needed stage was skipped: inherit its exact ``skipped: <reason>``;
* the needed stage did not pass: ``skipped: <reason>``, the reason that
  ``SKIP_WHEN_FAILED`` declares for the needed stage;
* otherwise run it. A stage that raises ``CharacteristicTwo`` reads
  ``skipped: characteristic two``; any other ``InvolqError`` it raises becomes
  ``{"status": "fail", "error": "<Type>: <message>"}`` and the batch goes on.

A fixture that is expected to fail certification conforms when it does. In
``verify all`` an entry whose group cannot be built is recorded with its
error and does not conform; the batch goes on.

Reports contain only sorted keys, integers, booleans and strings, and the
closure seeds come from a fixed linear-congruential sequence, so two runs on
the same input produce byte-identical files. The plane-closure stage builds
its 100 seeds as one stack of point masks, closes the stack in one call of
``geometry.close_point_masks``, closes it again for the idempotence check,
and judges every closure in one call of ``geometry.no_plane_verdicts``,
which returns the code of each closure's failed hypothesis and its count of
contained lines. The line lemma, the odd-subgroup scan and the line
covering take the group and the geometry, ``(G, geom)``.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import geometry as geometry_mod
from . import s2t
from . import splitting
from .census import census as compute_census
from .census import verify_xalpha_covering
from .catalog import (
    DEFAULT_MAX_DEGREE,
    CatalogEntry,
    build_entry,
    find_entry,
    run_catalog,
)
from .errors import CharacteristicTwo, InputError, InvolqError, MalformedDocument
from .permgroup import PermGroup, parse_group_doc

DEFAULT_CLOSURE_SEEDS = 100

SKIP_CHAR2 = "skipped: characteristic two"

# the status of a stage whose needed stage ran and did not pass, keyed by
# the needed stage
SKIP_WHEN_FAILED = {
    "certificate": "skipped: not sharply 2-transitive",
    "geometry_conditions": "skipped: geometry conditions failed",
    "geometry": "skipped: no geometry",
    "splitting": "skipped: not split",
    "coordinatization": "skipped: no coordinatization",
}


def _closure_seed_masks(count: int, n_points: int) -> np.ndarray:
    """Deterministic seeds as a (count, n_points) stack of point masks: seed t
    marks the next t % 5 draws, modulo n_points, of a fixed LCG."""
    sizes = np.arange(count) % 5
    draws = np.empty(int(sizes.sum()), dtype=np.int64)
    state = 0x2545F491
    for d in range(len(draws)):
        state = (1103515245 * state + 12345) % (1 << 31)
        draws[d] = state
    masks = np.zeros((count, n_points), dtype=bool)
    masks[np.repeat(np.arange(count), sizes), draws % n_points] = True
    return masks


# ---------------------------------------------------------------------------
# the stage table
#
# A stage's run(s) gets the namespace s holding G and the value of every
# stage that passed so far (s.certificate, s.geometry, ...), and returns
# (value, section). It names the traced functions through their
# modules, so a wrapper installed on a module attribute sees every call.


def _error(exc: InvolqError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _checked(rep, flag: str = "ok"):
    """(rep, section): status from rep.<flag>, then rep's own fields."""
    return rep, {
        "status": "pass" if getattr(rep, flag) else "fail",
        **rep.as_dict(),
    }


def _geometry(s):
    geom = geometry_mod.build_geometry(s.G, s.geometry_conditions)
    return geom, {
        "status": "pass",
        "n_points": geom.n_points,
        "n_lines": len(geom.incidence),
        "line_sizes": sorted(np.count_nonzero(geom.incidence, axis=1).tolist()),
        "n_classes": len(geom.classes),
    }


def _no_proper_plane(s):
    geom = s.geometry
    seeds = _closure_seed_masks(DEFAULT_CLOSURE_SEEDS, geom.n_points)
    closures = geometry_mod.close_point_masks(geom, seeds)
    again = geometry_mod.close_point_masks(geom, closures)
    idempotence_ok = bool(np.array_equal(again, closures))
    failed, line_counts = geometry_mod.no_plane_verdicts(geom, closures)
    met_line_counts = line_counts[failed == 0]
    closures_ok = bool((met_line_counts <= 1).all())
    return None, {
        "status": "pass" if (closures_ok and idempotence_ok) else "fail",
        "seeds": DEFAULT_CLOSURE_SEEDS,
        "closures_meeting_hypotheses": len(met_line_counts),
        "max_contained_lines": int(met_line_counts.max(initial=0)),
        "idempotence_ok": idempotence_ok,
    }


def _coordinatization(s):
    coord = splitting.coordinatize(s.G, s.splitting)
    nf = coord.nearfield
    return coord, {
        "status": "pass",
        "order": nf.order,
        "family": nf.family,
        "char_p": nf.char_p,
        "mul_commutative": bool((nf.mul == nf.mul.T).all()),
    }


def _roundtrip(s):
    rt = splitting.roundtrip_check(s.G, s.coordinatization)
    return rt, {"status": "pass" if rt else "fail", "equal": rt}


def _xalpha_covering(s):
    cover = verify_xalpha_covering(s.G, s.geometry)
    return cover, {
        **_checked(cover)[1],
        "alphas_checked": cover.alphas_checked,
        "alphas_total": cover.alphas_total,
        "complete": cover.complete,
    }


# (name, requires, run); a stage that raises CharacteristicTwo reads
# SKIP_CHAR2, which its dependents inherit. no_proper_plane closes and judges
# all its seeds at once through the batched geometry kernels
STAGES = (
    ("certificate", None,
     lambda s: _checked(s2t.certify_sharply_2_transitive(s.G), "valid")),
    ("basic_properties", "certificate",
     lambda s: _checked(s2t.verify_basic_properties(s.G))),
    ("geometry_conditions", "certificate",
     lambda s: _checked(geometry_mod.check_geometry_conditions(s.G))),
    ("geometry", "geometry_conditions", _geometry),
    ("line_lemma", "geometry",
     lambda s: _checked(geometry_mod.verify_line_lemma(s.G, s.geometry))),
    ("no_proper_plane", "geometry", _no_proper_plane),
    ("divisible_subgroups", "geometry",
     lambda s: _checked(geometry_mod.divisible_subgroup_scan(s.G, s.geometry))),
    ("splitting", "certificate",
     lambda s: _checked(splitting.neumann_split_test(s.G), "split")),
    ("coordinatization", "splitting", _coordinatization),
    ("roundtrip", "coordinatization", _roundtrip),
    ("census", "certificate", lambda s: _checked(compute_census(s.G))),
    ("xalpha_covering", "geometry", _xalpha_covering),
)


def verify_group(G: PermGroup, entry: CatalogEntry | None = None) -> dict:
    """Run every row of STAGES on one group and return its report section."""
    s = SimpleNamespace(G=G)
    sections: dict[str, dict] = {}
    for name, requires, run in STAGES:
        needed = sections[requires]["status"] if requires else "pass"
        if needed.startswith("skipped:"):
            sections[name] = {"status": needed}
        elif needed != "pass":
            sections[name] = {"status": SKIP_WHEN_FAILED[requires]}
        else:
            try:
                value, sections[name] = run(s)
            except CharacteristicTwo:
                sections[name] = {"status": SKIP_CHAR2}
            except InvolqError as exc:
                sections[name] = {"status": "fail", "error": _error(exc)}
            else:
                setattr(s, name, value)

    ok = all(
        sec["status"] == "pass" or sec["status"].startswith("skipped:")
        for sec in sections.values()
    )
    report = {"degree": G.degree, "order": G.order, "sections": sections, "ok": ok}
    if entry is not None:
        report["entry"] = entry.as_dict()
        report["conforms"] = _conforms(entry, sections, ok)
    return report


def _conforms(entry: CatalogEntry, sections: dict, ok: bool) -> bool:
    cert = sections["certificate"]
    if cert.get("valid") != entry.expected_certified:
        return False
    if not entry.expected_certified:
        return True  # designed-to-fail fixture behaved as designed
    if not ok:
        return False
    if entry.expected_characteristic is not None and (
        cert["characteristic"] != entry.expected_characteristic
    ):
        return False
    if entry.expected_split is not None and (
        (sections["splitting"].get("split") is True) != entry.expected_split
    ):
        return False
    return True


# ---------------------------------------------------------------------------
# target resolution and report files


def resolve_target(target: str, max_degree: int = DEFAULT_MAX_DEGREE):
    """An entry id or a GroupDoc file path -> (entry | None, PermGroup)."""
    entry = find_entry(target, max_degree)
    if entry is not None:
        return entry, build_entry(entry)
    if os.path.exists(target):
        with open(target, "rb") as fh:
            raw = fh.read()
        try:
            doc = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"document is not UTF-8: {exc}") from exc
        return None, parse_group_doc(doc)
    raise FileNotFoundError(f"no catalog entry or file named {target!r}")


def exit_status(run, *args) -> int:
    """Call run and return its exit status, mapping the errors that escape it.

    An unusable target, document, path or option prints ``input error: ...``
    on stderr and gives 2; any other involq error (one raised outside a
    stage, such as building an entry) prints ``verification failure: ...``
    and gives 1.
    """
    try:
        return run(*args)
    except (OSError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvolqError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def run_verify(
    target: str,
    report_path: str | None = None,
    max_degree: int = DEFAULT_MAX_DEGREE,
    quiet: bool = False,
) -> int:
    """Verify one target (or the whole catalog for target 'all').

    Exit codes: 0 when every applicable check passed, 1 on verification
    failure (a failing or raising stage included), 2 on input errors. In
    catalog mode the exit is 0 when every entry conforms to its expected
    flags, so designed-to-fail fixtures do not fail the batch. ``quiet``
    silences the progress lines, never an error message.
    """
    return exit_status(_verify, target, report_path, max_degree, quiet)


def _verify(target, report_path, max_degree, quiet) -> int:
    say = (lambda *_: None) if quiet else print
    if target == "all":
        report = {"max_degree": max_degree, "entries": {}}
        all_conform = True
        for entry in run_catalog(max_degree):
            try:
                G = build_entry(entry)
            except InputError:
                raise
            except InvolqError as exc:
                result = {"entry": entry.as_dict(), "conforms": False, "ok": False,
                          "error": _error(exc)}
            else:
                result = verify_group(G, entry)
                del G  # so the next entry is built without it or what s2t caches for it
            report["entries"][entry.id] = result
            all_conform &= result["conforms"]
            say(f"{entry.id}: {'conforms' if result['conforms'] else 'DEVIATES'}")
        report["ok"] = all_conform
        exit_code = 0 if all_conform else 1
    else:
        entry, G = resolve_target(target, max_degree)
        report = verify_group(G, entry)
        exit_code = 0 if report["ok"] else 1
        say(f"{target}: {'ok' if report['ok'] else 'FAILED'}")

    if report_path:
        write_report(report, report_path)
    return exit_code


def write_report(report: dict, path: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def recover_target(target: str, max_degree: int = DEFAULT_MAX_DEGREE) -> dict:
    """Coordinatize a split target and return the JSON payload."""
    entry, G = resolve_target(target, max_degree)
    split_report = splitting.neumann_split_test(G)
    coord = splitting.coordinatize(G, split_report)
    return {
        "target": target,
        "split": True,
        "roundtrip": splitting.roundtrip_check(G, coord),
        "coordinatization": coord.as_dict(),
    }


def census_target(target: str, max_degree: int = DEFAULT_MAX_DEGREE) -> dict:
    """Census a target and return the JSON payload."""
    entry, G = resolve_target(target, max_degree)
    try:
        rep = compute_census(G)
    except CharacteristicTwo:
        return {"target": target, "status": SKIP_CHAR2}
    payload = rep.as_dict()
    payload["target"] = target
    payload["status"] = "pass" if rep.ok else "fail"
    return payload
