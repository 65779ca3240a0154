"""One benchmark sample, run as its own process by run.py.

    python3 perfbench/sample.py --workload NAME --meta FILE
        [--claims ID,ID,...] [--trace-dir DIR] [--setup-only]

Imports `obci.cli` (the end of set-up), writes the set-up timestamp and
the scan backend to FILE, then runs the workload (see workloads.py)
through the public entry point `obci.harness.verify_all` and prints the
per-claim answers as one JSON object (claim id -> [verified, checked,
skipped, counterexamples]).  With --trace-dir the layer functions are
wrapped first (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from workloads import PRODUCT_CLAIMS, WORKLOADS


def _verify(spec, claims) -> int:
    """The claims in the given order, one verify_all call per scope."""
    from obci import harness

    scopes = {c: spec["product_sizes"] if c in PRODUCT_CLAIMS else spec["sizes"]
              for c in claims}
    reports = []
    for sizes in dict.fromkeys(scopes.values()):
        group = [c for c in claims if scopes[c] == sizes]
        reports += harness.verify_all(group, sizes=sizes, up_to_iso=True,
                                      jobs=spec["jobs"])
    print(json.dumps({r.claim: [r.verified, r.instances_checked,
                                r.hypothesis_skipped, len(r.counterexamples)]
                      for r in reports}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--meta", required=True, type=Path)
    parser.add_argument("--claims", default="")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import obci.cli  # noqa: F401  (what a user of the CLI pays before any work)
    setup_done = time.monotonic()
    # Without a backend switch only the pure-Python scan exists.
    backend = getattr(sys.modules.get("obci.scan"), "BACKEND", "python")
    args.meta.write_text(json.dumps({"setup_done": setup_done, "backend": backend}))
    if args.setup_only:
        return 0

    spec = WORKLOADS[args.workload]
    run = lambda: _verify(spec, args.claims.split(","))  # noqa: E731
    if args.trace_dir is None:
        return run()

    from tracer import Tracer
    tracer = Tracer(args.trace_dir)
    tracer.install()
    code = tracer.span("workload", run)()
    tracer.flush()
    return code


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.exit(code)
