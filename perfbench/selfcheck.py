"""Fast self-check of the benchmark on tiny scopes, before any long run.

    python3 perfbench/selfcheck.py

Runs the tiny workloads (sizes <= 2) untraced and traced through the same
driver code as the benchmark, and checks that:

* every sample matches its expected answer, and the answer check rejects
  a corrupted output;
* traced call counts repeat exactly between traced samples, every layer
  of the trace is reached, and the `--jobs 2` workers' claim records
  arrive from two processes;
* the metric names and units match BENCHMARK.json;
* isomorphism-class counts for sizes 1..3 are 1, 2 and 6, the README's
  double-oracle goldens (size 4, 33, needs the scan the sweep cannot
  afford yet).

Takes about ten seconds; exits with 1 and lists the failures otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import tracer
from workloads import WORKLOADS

TINY = ("verify-n2-iso", "verify-n2-iso-jobs2", "sweep-s2-iso")


def main() -> int:
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END,
           "end_to_end metrics differ from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units(),
           "per_layer metrics differ from run.per_layer_units()")
    expect(all(w["name"] in WORKLOADS for w in declared["workloads"]),
           "BENCHMARK.json names a workload missing from workloads.py")

    for workload in TINY:
        spec = WORKLOADS[workload]
        good = (run.EXPECTED / spec["expected"]).read_bytes()
        expect(not run.check_answer(spec, 0, good),
               f"{workload}: expected answer fails its own check")
        bad = good.replace(b"true", b"false", 1) if b"true" in good else good[:-40]
        expect(run.check_answer(spec, 0, bad),
               f"{workload}: a corrupted answer passes the check")
        for trace in (False, True):
            result = run.run_workload(workload, 0, 1.0, trace)
            expect(result["correct"],
                   f"{workload} trace={int(trace)}: {result['problems'][:3]}")
        expect(result["attempted"] >= 4,
               f"{workload}: fewer than two traced samples, counts not compared")
        spans, aggs = tracer.load(run.OUT / f"{workload}-seed0-trace1" / "trace-0")
        reached = {s["name"] for s in spans} | {a[1] for a in aggs}
        missing = {name for _, _, name, _ in tracer.LAYERS} - reached - {"harness.claim"}
        expect(not missing, f"{workload}: layers never reached: {sorted(missing)}")
        pids = {s["pid"] for s in spans if s["name"].startswith("harness.claim.")}
        if spec["jobs"] > 1:
            expect(len(pids) == 2, f"{workload}: claim records from {len(pids)} processes")

    sys.path.insert(0, str(run.ROOT / "src"))
    from obci.harness import enumerate_obci
    iso = [sum(1 for _ in enumerate_obci(n, up_to_iso=True)) for n in (1, 2, 3)]
    expect(iso == [1, 2, 6], f"isomorphism-class counts {iso}, expected [1, 2, 6]")

    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
