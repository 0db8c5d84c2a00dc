"""Command line driver.

Subcommands:

* ``involq catalog``  -- list the built-in verification targets
* ``involq verify``   -- run the full pipeline on one target or the catalog
* ``involq recover``  -- coordinatize a split target, emit its near-field
* ``involq census``   -- emit the census quantities for one target

Targets are catalog entry ids (``involq catalog`` lists them) or paths to
group documents ``{"degree": d, "generators": [[...], ...]}``. Exit codes:
0 all applicable checks passed, 1 verification failure (a failing or raising
stage, a target that cannot be recovered, or a group document whose
degree exceeds the group-order cap), 2 input error. Every subcommand maps
errors through :func:`involq.pipeline.exit_status`, so input errors always
print ``input error: ...`` on stderr; ``--quiet`` silences the progress
lines of ``verify`` only. Nothing is randomized. Every scan bound is a
constant of the module that uses it (the odd-subgroup scan stops at 512
members, the X_alpha sample at 100 alphas); INVOLQ_ORDER_CAP, which
overrides the default size caps, is the only override.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import DEFAULT_MAX_DEGREE, run_catalog
from .pipeline import (
    census_target,
    exit_status,
    recover_target,
    run_verify,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
        help=f"catalog degree bound (default {DEFAULT_MAX_DEGREE})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involq",
        description="verification toolkit for finite sharply 2-transitive groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list built-in targets")
    _add_common(p_cat)
    p_cat.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_ver = sub.add_parser("verify", help="run the verification pipeline")
    p_ver.add_argument(
        "target", nargs="?", default="all",
        help="entry id, group document path, or 'all' (default)",
    )
    _add_common(p_ver)
    p_ver.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p_ver.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_rec = sub.add_parser("recover", help="coordinatize a split target")
    p_rec.add_argument("target")
    _add_common(p_rec)
    p_rec.add_argument("--out", metavar="PATH", help="write the near-field JSON here")

    p_cen = sub.add_parser("census", help="census quantities for a target")
    p_cen.add_argument("target")
    _add_common(p_cen)
    p_cen.add_argument("--out", metavar="PATH", help="write the census JSON here")
    p_cen.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")

    return parser


CENSUS_CSV_KEYS = ("target", "nhat", "khat", "khat_constant", "j2_size",
                   "j3_size", "lhat", "fiber_identity_ok", "status")


def _emit(payload: dict, out_path: str | None, csv_keys=None) -> None:
    """Write payload as JSON, or as a CSV header and row over csv_keys, to
    out_path or to stdout."""
    if csv_keys is None:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        row = [str(payload.get(k, "")) for k in csv_keys]
        text = f"{','.join(csv_keys)}\n{','.join(row)}\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(_run, args)


def _run(args) -> int:
    if args.command == "catalog":
        entries = run_catalog(args.max_degree)
        if args.json:
            print(json.dumps([e.as_dict() for e in entries], sort_keys=True, indent=2))
        else:
            for e in entries:
                flags = (
                    f"char={e.expected_characteristic} split={e.expected_split}"
                    if e.expected_certified
                    else "expected to fail certification"
                )
                print(f"{e.id:22s} degree={e.degree:<4d} {flags}")
        return 0

    if args.command == "verify":
        return run_verify(
            args.target,
            report_path=args.report,
            max_degree=args.max_degree,
            quiet=args.quiet,
        )

    if args.command == "recover":
        payload = recover_target(args.target, args.max_degree)
        _emit(payload, args.out)
        return 0 if payload["roundtrip"] else 1

    # argparse admits only the four subcommands, so this one is census
    payload = census_target(args.target, args.max_degree)
    _emit(payload, args.out, CENSUS_CSV_KEYS if args.csv else None)
    return 0 if payload.get("status", "pass").startswith(("pass", "skipped")) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
