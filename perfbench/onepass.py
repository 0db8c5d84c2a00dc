"""One pass of a workload in a fresh interpreter.

    python3 perfbench/onepass.py '<json config>'

The config names the workload, its entries or documents, whether to trace,
and whether to stop after set-up. The pass times the involq import, the
build of every input group, and each operation; checks every output against
its known answers once timing has ended; and prints one JSON line.

The host's speed swings by up to half within seconds as other tenants load
it. So a fixed pure-Python probe kernel runs from a timer signal every
PROBE_INTERVAL_S, in this one thread, and its durations are reported with
the pass; every time reported here excludes the time spent in the probe.
"""

import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

PROBE_LOOPS = 4000
PROBE_INTERVAL_S = 0.1


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        t = perf_counter()
        acc, table = 0, {}
        for i in range(PROBE_LOOPS):
            key = (i * 2654435761) & 0xFFFF
            acc += key % 7
            table[key & 1023] = acc
        took = perf_counter() - t
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def now(self) -> float:
        """perf_counter less the time spent in the probe."""
        return perf_counter() - self.spent


PROBE = SpeedProbe()
PROBE.start()
T0 = PROBE.now()


def main(config: dict) -> dict:
    now = PROBE.now
    import numpy
    from involq import catalog, pipeline

    import_s = now() - T0

    tracer = None
    missing: list[str] = []
    if config["trace"]:
        tracer = spans.Tracer(clock=now)
        missing = tracer.install()

    outdir = Path(config["outdir"])
    ops: list[dict] = []
    failures: list[dict] = []

    t_build = now()
    groups = {}
    if config["kind"] == "catalog":
        entries = {e.id: e for e in catalog.run_catalog()}
        for eid in config["entries"]:
            if tracer:
                tracer.entry = eid
            try:
                groups[eid] = (entries[eid], catalog.build_entry(entries[eid]))
            except Exception as exc:  # counted as a failed operation below
                failures.append({"entry": eid, "op": "build", "error": repr(exc)})
    build_s = now() - t_build

    results = []
    if not config["setup_only"]:
        if config["kind"] == "catalog":
            for eid in config["entries"]:
                if eid not in groups:
                    continue
                entry, G = groups.pop(eid)
                path = outdir / f"report-{eid}.json"
                if tracer:
                    tracer.entry = eid
                t = now()
                try:
                    pipeline.write_report(pipeline.verify_group(G, entry), str(path))
                    outcome = None
                except Exception as exc:  # counted as a failed operation
                    outcome = exc
                ops.append({"entry": eid, "op": "verify", "seconds": now() - t})
                results.append(("verify", eid, path, outcome))
                del G
        else:
            for doc in config["docs"]:
                for op_name, fn in (("recover", pipeline.recover_target),
                                    ("census", pipeline.census_target)):
                    if tracer:
                        tracer.entry = doc["name"]
                    t = now()
                    try:
                        outcome = fn(doc["path"])
                    except Exception as exc:  # counted as a failed operation
                        outcome = exc
                    ops.append({"entry": doc["name"], "op": op_name, "seconds": now() - t})
                    results.append((op_name, doc["entry"], doc["path"], outcome))
    t_end = now()
    PROBE.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed: the correctness gate
    for op_name, eid, path, outcome in results:
        try:
            problems = _check(op_name, eid, path, outcome, config.get("corrupt"))
        except Exception as exc:  # a malformed output fails its operation
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append({"entry": eid, "op": op_name, "problems": problems})
    # a failed build fails the entry's operation
    attempted = len(ops) + sum(1 for f in failures if f["op"] == "build")

    out = {
        "setup_s": import_s + build_s,
        "verify_s": sum(op["seconds"] for op in ops),
        "wall_s": t_end - T0,
        "probe_s": PROBE.samples,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "attempted": attempted if not config["setup_only"] else 0,
        "failures": failures,
        "numpy": numpy.__version__,
    }
    if tracer:
        out["missing_traced"] = missing
        out["index_lookups"] = tracer.index_lookups
        out["centralizer_repeats"] = tracer.centralizer_repeats
        Path(config["spans_path"]).write_text(json.dumps({"spans": tracer.spans}))
    return out


def _check(op_name, eid, path, outcome, corrupt) -> list[str]:
    if isinstance(outcome, Exception):
        return [f"raised {outcome!r}"]
    known = workloads.known_answers(eid)
    if corrupt == eid and known is not None:
        known = workloads.corrupted(known)
    if op_name == "verify":
        data = Path(path).read_bytes()
        return workloads.check_catalog_report(eid, json.loads(data), data, known)
    if op_name == "recover":
        return workloads.check_recover_payload(outcome, known)
    return workloads.check_census_payload(outcome, known)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
