"""Self-test of the benchmark harness on a tiny configuration.

    python3 perfbench/selftest.py

Runs the catalog entries of degree <= 9 and one degree-9 ingest document,
each with and without tracing, and checks that

* every metric BENCHMARK.json names is reported, with its unit;
* a corrupted known answer is counted as a failed operation;
* per traced pass, the self times sum to no more than the pass's wall_s;
* an ingest trace records no geometry call.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import sys

import run
from spans import TRACED
from workloads import Workload

TINY = (
    Workload("selftest-catalog", "catalog",
             ("agl-dickson-3-2", "agl-field-3", "agl-field-4", "agl-field-5",
              "agl-field-7", "agl-field-9", "sym4-fixture"), False),
    Workload("selftest-ingest", "ingest", ("agl-dickson-3-2",), True),
)
SEED = 7


def check_workload(workload: Workload, declared: dict) -> list[str]:
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(workload, SEED, seconds=0, trace=trace)
        reported = {name: unit for name, (_, unit) in result.metrics.items()}
        if reported != declared[kind]:
            problems.append(f"{workload.name} {kind}: reported {reported}, "
                            f"declared {declared[kind]}")
        if result.failures:
            problems.append(f"{workload.name} trace={trace}: {result.failures}")
        for p in result.passes:
            if p["traced"] and p["self_s_total"] > p["wall_s"]:
                problems.append(f"{workload.name}: self times {p['self_s_total']} "
                                f"exceed wall_s {p['wall_s']}")
        if trace and workload.kind == "ingest":
            geometry_calls = {name: result.metrics[f"{name}.calls"][0]
                              for name in TRACED if name.startswith("geometry.")}
            if any(geometry_calls.values()):
                problems.append(f"{workload.name}: geometry calls {geometry_calls}")

    corrupt = workload.entries[0]
    result = run.run_workload(workload, SEED, seconds=0, trace=False, corrupt=corrupt)
    expected = 1 if workload.kind == "catalog" else 2  # ingest: recover and census
    failed = [f["entry"] for f in result.failures]
    if failed != [corrupt] * expected:
        problems.append(f"{workload.name}: corrupting {corrupt} failed {failed}, "
                        f"want {expected} failure(s)")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    problems = [p for workload in TINY for p in check_workload(workload, declared)]
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
