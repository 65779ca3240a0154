"""The obci benchmark: time to verdict of exhaustive sweeps, and a layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S]

Run from anywhere; the program is imported from `src/` next to this
directory, nothing is installed.  One run warms the bytecode cache, times
SETUP_PROBES fresh imports of `obci.cli`, then runs samples of the
workload (see workloads.py), one fresh process each, until --seconds have
passed.  Every sample's exit code and output are checked against
`expected/`; a mismatch counts as failed and its timing is still kept.

--trace 0 reports the end-to-end metrics, medians over the run's samples:

    wall_s       process start to exit (time to verdict)
    cpu_s        user + system CPU time of the process tree
    setup_s      process start until `obci.cli` is imported
    peak_rss_mb  peak resident memory of the largest process in the tree

--trace 1 alternates untraced and traced samples and reports the
per-layer metrics of tracer.py (medians over the traced samples) plus
trace.overhead_s, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a table with sample counts and
error_rate comes before it.  The full result, with an environment
fingerprint, is written to perfbench/out/<workload>-seed<N>-trace<T>.json
(compare two of them with compare.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracer
from workloads import CLAIM_IDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s; samples are killed past this

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

HOT = ("morphisms.classify", "morphisms.kernel", "products.product_structure",
       "products.pair_map", "products.k_upper_sets", "products.projection_kernels",
       "core.check_axiom", "substructures.predicates")


def per_layer_units() -> dict[str, str]:
    units = {"scan.valid_tables.s": "s", "scan.valid_tables.tables": "count",
             "harness.enumerate_obci.s": "s", "harness.enumerate_obci.algebras": "count"}
    for h in HOT:
        units[f"{h}.calls"] = "count"
        units[f"{h}.s"] = "s"
    units["morphisms.classify.ohom_ratio"] = "ratio"
    for c in CLAIM_IDS:
        units[f"harness.claim.{c}.s"] = "s"
    units.update({"harness.claims.checked": "count", "harness.claims.skipped": "count",
                  "harness.claims.checked_ratio": "ratio", "entry.self_s": "s",
                  "harness.jobs.worker_busy_max_s": "s",
                  "harness.jobs.worker_busy_min_s": "s", "trace.overhead_s": "s"})
    return units


# --- samples ---------------------------------------------------------------

def _spawn(run_dir: Path, index: int, workload: str, claims: list[str],
           deadline: float, *, trace_dir: Path | None = None,
           setup_only: bool = False) -> dict:
    """Run one sample process; time it and collect its output and rusage."""
    meta, out = run_dir / f"meta-{index}.json", run_dir / f"out-{index}.txt"
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--meta", str(meta), "--claims", ",".join(claims)]
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd += ["--trace-dir", str(trace_dir)]
    if setup_only:
        cmd.append("--setup-only")
    # The caller's PYTHON* settings (no bytecode cache, unbuffered output)
    # would change what a sample measures, so samples run without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(out, "wb") as stdout, open(run_dir / f"err-{index}.txt", "wb") as stderr:
        t0 = time.monotonic()
        # A session of its own, so the watchdog stops --jobs workers too.
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - t0), os.killpg,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    info = json.loads(meta.read_text()) if meta.exists() else {}
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "setup": info["setup_done"] - t0 if info else None,
            "backend": info.get("backend"), "exit": proc.returncode,
            "stdout": out.read_bytes(), "traced": trace_dir is not None}


def check_answer(spec: dict, code: int, stdout: bytes) -> list[str]:
    """Differences between a sample's exit code and answers and the expected."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return problems + ["output is not a JSON object of claim results"]
    for claim, answer in json.loads((EXPECTED / spec["expected"]).read_bytes()).items():
        if got.get(claim) != answer:
            problems.append(f"{claim}: [verified, checked, skipped, counterexamples] = "
                            f"{got.get(claim)}, expected {answer}")
    return problems


# --- metrics ---------------------------------------------------------------

def layer_metrics(trace_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced sample, from its trace files."""
    spans, aggs = tracer.load(trace_dir)
    calls, own, outcome = Counter(), Counter(), Counter()
    for s in spans:
        calls[s["name"]] += 1
        own[s["name"]] += s["self"]
        outcome[s["name"]] += s["outcome"]
    for _parent, name, n, _total, self_s, out in aggs:
        calls[name] += n
        own[name] += self_s
        outcome[name] += out
    m = {"scan.valid_tables.s": own["scan.valid_tables"],
         "scan.valid_tables.tables": outcome["scan.valid_tables"],
         "harness.enumerate_obci.s": own["harness.enumerate_obci"],
         "harness.enumerate_obci.algebras": outcome["harness.enumerate_obci"]}
    for h in HOT:
        m[f"{h}.calls"] = calls[h]
        m[f"{h}.s"] = own[h]
    classified = calls["morphisms.classify"]
    m["morphisms.classify.ohom_ratio"] = (
        outcome["morphisms.classify"] / classified if classified else 0.0)
    for c in CLAIM_IDS:
        m[f"harness.claim.{c}.s"] = own[f"harness.claim.{c}"]
    claim_spans = [s for s in spans if s["name"].startswith("harness.claim.")]
    checked = sum(s["checked"] for s in claim_spans)
    skipped = sum(s["skipped"] for s in claim_spans)
    m["harness.claims.checked"] = checked
    m["harness.claims.skipped"] = skipped
    m["harness.claims.checked_ratio"] = checked / (checked + skipped) if claim_spans else 0.0
    # The sample's own code outside verify_all: printing the answers.
    m["entry.self_s"] = own["workload"]
    # Busy time per process that ran claims: the --jobs workers, or the one
    # sample process of a serial run.
    busy = defaultdict(float)
    for s in claim_spans:
        busy[s["pid"]] += s["end"] - s["start"]
    m["harness.jobs.worker_busy_max_s"] = max(busy.values(), default=0.0)
    m["harness.jobs.worker_busy_min_s"] = min(busy.values(), default=0.0)
    return m


def _fingerprint(backends: set) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "cpu": cpu, "nproc": os.cpu_count(), "commit": _commit(),
            "scan_backend": ",".join(sorted(b or "unknown" for b in backends))}


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    text = f"{statistics.median(values):.6g}"
    q = int(100 * (1 - 10 / len(values)))
    if q > 50:
        text += f"  p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return text


# --- one run -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    claims = (random.Random(seed).sample(CLAIM_IDS, len(CLAIM_IDS)) if spec["permute"]
              else list(CLAIM_IDS))
    index = itertools.count()

    def spawn(**kw):
        return _spawn(run_dir, next(index), workload, claims, deadline, **kw)

    spawn(setup_only=True)  # writes the bytecode cache; not timed
    probes = [spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    samples, rounds = [], 0
    loop_start = time.monotonic()
    while True:
        samples.append(spawn())
        if trace:
            samples.append(spawn(trace_dir=run_dir / f"trace-{rounds}"))
        rounds += 1
        elapsed = time.monotonic() - loop_start
        # Stop at the round count that ends nearest to --seconds.
        if elapsed + elapsed / rounds / 2 > seconds:
            break

    failed, problems = 0, []
    for s in samples:
        s["problems"] = check_answer(spec, s["exit"], s.pop("stdout"))
        failed += bool(s["problems"])
        problems += s["problems"]
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if trace:
        layers = [layer_metrics(run_dir / f"trace-{i}") for i in range(rounds)]
        units = per_layer_units()
        counts = [{k: v for k, v in m.items() if units[k] == "count"} for m in layers]
        if any(c != counts[0] for c in counts):
            problems.append("trace counts differ between traced samples")
        values = {k: [m[k] for m in layers] for k in layers[0]}
        values["trace.overhead_s"] = [statistics.median(s["wall"] for s in traced)
                                      - statistics.median(s["wall"] for s in plain)]
    else:
        units = END_TO_END
        setups = [s["setup"] for s in probes + samples if s["setup"] is not None]
        values = {"wall_s": [s["wall"] for s in samples],
                  "cpu_s": [s["cpu"] for s in samples],
                  "setup_s": setups,
                  "peak_rss_mb": [s["rss_mb"] for s in samples]}
    metrics = {k: {"value": statistics.median(v), "unit": units[k], "samples": len(v)}
               for k, v in values.items()}
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "fingerprint": _fingerprint({s["backend"] for s in probes + samples}),
              "correct": not problems, "attempted": len(samples), "failed": failed,
              "error_rate": failed / len(samples), "problems": problems,
              "metrics": metrics, "summaries": {k: _summary(v) for k, v in values.items()},
              "samples": samples, "run_s": time.monotonic() - start}
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1))
    return result


def print_table(result: dict) -> None:
    fp = result["fingerprint"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"samples={result['attempted']} failed={result['failed']} "
          f"error_rate={result['error_rate']:.4g} run={result['run_s']:.1f}s")
    print(f"# {fp['python']} | {fp['cpu']} | nproc={fp['nproc']} | "
          f"commit={fp['commit'][:12]} | scan backend={fp['scan_backend']}")
    for k, m in result["metrics"].items():
        print(f"{k:44s} {result['summaries'][k]:>28s} {m['unit']:6s} n={m['samples']}")
    for p in result["problems"][:10]:
        print(f"! {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"'all' or one of: {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "obci" / "cli.py").is_file():
        print(f"error: no obci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
        for r in results:
            print_table(r)
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
