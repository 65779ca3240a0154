"""Compare two result files written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's median on both sides and NEW/BASE.  Two results are
not comparable, and the script exits with 2, when they differ in
workload, trace mode or scan backend: a compiled scan changes the scan's
cost by about two orders of magnitude.  Other fingerprint differences
(CPU, Python) are printed as warnings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    fb, fn = base["fingerprint"], new["fingerprint"]
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"NOT COMPARABLE: {key} {base[key]} vs {new[key]}")
            return 2
    if fb["scan_backend"] != fn["scan_backend"]:
        print(f"NOT COMPARABLE: scan backend {fb['scan_backend']} vs {fn['scan_backend']}")
        return 2
    for key in ("python", "cpu", "nproc"):
        if fb[key] != fn[key]:
            print(f"warning: {key} differs: {fb[key]} vs {fn[key]}")
    print(f"# {base['workload']} trace={base['trace']}: "
          f"{fb['commit'][:12]} (failed {base['failed']}/{base['attempted']}) -> "
          f"{fn['commit'][:12]} (failed {new['failed']}/{new['attempted']})")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        ratio = f"{n / b:.3f}" if n is not None and b else "-"
        print(f"{name:44s} {b:>14.6g} {'-' if n is None else format(n, '>14.6g'):>14s} "
              f"{ratio:>7s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
