"""The involq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a closed loop: one process
at a time, one thread each, every operation starting when the previous one
ends. Each pass runs in a fresh interpreter (``onepass.py``) that imports
involq from ``src/``, builds the workload's input groups and runs its
operations; passes repeat until ``--seconds`` have elapsed. A traced run
(``--trace 1``) alternates untraced and traced passes and reports per-layer
self times and counters instead of the end-to-end metrics.

Every reported time is in reference seconds: a pass's measured time scaled
by PROBE_NOMINAL_S / (mean duration of the probe kernel sampled through that
pass). On a shared host whose speed swings within seconds this keeps the
run-to-run spread of a metric at a few percent instead of tens; the raw
times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the environment and give every metric with its unit, including
error_rate (failed / attempted operations).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy can be imported

import spans  # noqa: E402
from workloads import WORKLOADS, Workload, ingest_document, known_answers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5          # set-ups measured per untraced run, passes included
PROBE_NOMINAL_S = 0.001    # the probe kernel's duration on the reference host
RUN_TIMEOUT_S = 170.0      # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
COUNTERS = {
    "permgroup.centralizer.repeat_ratio": "ratio",
    "permgroup.index_lookups": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[dict]
    passes: list[dict]        # every pass's own record
    raw: dict[str, float]     # unscaled end-to-end times
    numpy: str


def speed_factor(record: dict) -> float:
    """Reference seconds per measured second during one pass."""
    return PROBE_NOMINAL_S / statistics.fmean(record["probe_s"])


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.TRACED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    return units


def _run_pass(config: dict, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "onepass.py"), json.dumps(config)],
            stdout=subprocess.PIPE, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran past the {RUN_TIMEOUT_S:.0f} s budget") from exc
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _ingest_docs(workload: Workload, seed: int, workdir: Path) -> list[dict]:
    """Untimed: write one relabelled group document per entry."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from involq import build_entry, run_catalog

    catalog = {e.id: e for e in run_catalog()}
    rng = random.Random(seed)
    docs = []
    for position, eid in enumerate(workload.entries):
        n_gens = 2 + position % 2  # 2 or 3 generators, fixed per document
        doc = ingest_document(build_entry(catalog[eid]).elements, known_answers(eid),
                              n_gens, rng)
        path = workdir / f"doc-{eid}.json"
        path.write_text(json.dumps(doc))
        docs.append({"name": path.name, "entry": eid, "path": str(path.relative_to(ROOT))})
    return docs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 corrupt: str | None = None) -> RunResult:
    deadline = perf_counter() + RUN_TIMEOUT_S
    workdir = OUT / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = {
        "kind": workload.kind,
        "entries": list(workload.entries),
        "docs": _ingest_docs(workload, seed, workdir) if workload.kind == "ingest" else [],
        "outdir": str(workdir),
        "corrupt": corrupt,
        "trace": False,
        "setup_only": True,
    }
    _run_pass(base, deadline)  # warm-up: byte-compile and fill the page cache

    modes = (False, True) if trace else (False,)
    passes: list[dict] = []
    start = perf_counter()
    while len(passes) < len(modes) or perf_counter() - start < seconds:
        traced = modes[len(passes) % len(modes)]
        config = dict(base, trace=traced, setup_only=False,
                      spans_path=str(workdir / f"spans-{len(passes)}.json"))
        record = _run_pass(config, deadline)
        record["traced"] = traced
        passes.append(record)

    untraced = [p for p in passes if not p["traced"]]
    raw: dict[str, float] = {}
    if trace:
        metrics = _per_layer(passes, workdir)
    else:
        setups = untraced + [_run_pass(base, deadline)
                             for _ in range(SETUP_SAMPLES - len(untraced))]
        metrics = {}
        for name, group in (("wall_s", untraced), ("setup_s", setups), ("verify_s", untraced)):
            metrics[name] = statistics.median(p[name] * speed_factor(p) for p in group)
            raw[name] = statistics.median(p[name] for p in group)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in untraced)
    units = per_layer_units() if trace else END_TO_END
    return RunResult(
        metrics={name: (metrics[name], unit) for name, unit in units.items()},
        attempted=sum(p["attempted"] for p in passes),
        failures=[f for p in passes for f in p["failures"]],
        passes=passes,
        raw=raw,
        numpy=passes[0]["numpy"],
    )


def _per_layer(passes: list[dict], workdir: Path) -> dict[str, float]:
    """Medians over the traced passes of each layer's self time and counters."""
    traced = [p for p in passes if p["traced"]]
    rows = []
    for index, p in enumerate(passes):
        if not p["traced"]:
            continue
        data = json.loads((workdir / f"spans-{index}.json").read_text())
        selfs, calls = spans.self_times(data["spans"])
        p["self_s_total"] = sum(selfs.values())
        factor = speed_factor(p)
        row = {}
        for name in spans.TRACED:
            row[f"{name}.self_s"] = selfs.get(name, 0.0) * factor
            row[f"{name}.calls"] = calls.get(name, 0)
        n_cen = calls.get(spans.CENTRALIZER, 0)
        row["permgroup.centralizer.repeat_ratio"] = (
            p["centralizer_repeats"] / n_cen if n_cen else 0.0)
        row["permgroup.index_lookups"] = p["index_lookups"]
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] * speed_factor(p) for p in traced)
        - statistics.median(p["wall_s"] * speed_factor(p) for p in passes if not p["traced"])
    )
    return metrics


def environment(numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.decode().strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "involq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_PINS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "involq" / "__init__.py").is_file():
        print(f"error: no involq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed_note = "" if workload.seeded else " (ignored: catalog workloads are seed-independent)"
    print(f"workload {workload.name}, seed {args.seed}{seed_note}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(environment(result.numpy), sort_keys=True))
    missing = sorted({m for p in result.passes for m in p.get("missing_traced", [])})
    if missing:
        print("traced functions not found (reported as 0): " + ", ".join(missing))
    print(f"passes {len(result.passes)} "
          f"({sum(p['traced'] for p in result.passes)} traced), "
          f"operations {result.attempted}")
    for name, (value, unit) in result.metrics.items():
        raw = f" (raw {result.raw[name]:.6g} s)" if name in result.raw else ""
        print(f"{name} {value:.6g} {unit}{raw}")
    failed = len(result.failures)
    print(f"error_rate {failed / result.attempted:.6g} ({failed} failed of "
          f"{result.attempted} attempted operations)")
    for failure in result.failures:
        print("failed: " + json.dumps(failure), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
