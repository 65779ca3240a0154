"""Outside-in layer tracing for one benchmark sample.

The tracer replaces each layer function, in every loaded `obci` module
that binds it, with a timing wrapper.  Callers look functions up by
module-global name, so `harness.classify`, `products.product_structure`
(called by `k_upper_sets`) and `scan.valid_tables` all go through the
wrapper without any change to `obci` itself.

Two kinds of wrapper:

* spans, for coarse boundaries (workload, verify_all, each claim,
  enumeration, scan): one record per call with its parent span;
* hot functions (about 100,000 calls in one `verify-n3-iso` sample):
  aggregated in memory as calls, total and self time per (parent span,
  name).

Self time is a call's duration minus the time spent in wrapped calls it
made.  Each process appends its records as JSON lines to `<pid>.jsonl` in
the trace directory: the sample process when it ends, and each forked
`--jobs` worker after every claim, because the worker pool is terminated
rather than shut down cleanly.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter as clock

ROOT_SPAN = "root"

# (defining module, attribute, metric name, kind).  Kinds: "span" records
# every call; "hot" aggregates; "claim" is a span named after its claim id.
LAYERS = (
    ("obci.harness", "verify_all", "harness.verify_all", "span"),
    ("obci.harness", "verify_claim", "harness.claim", "claim"),
    ("obci.harness", "enumerate_obci", "harness.enumerate_obci", "span"),
    ("obci.scan", "valid_tables", "scan.valid_tables", "span"),
    ("obci.morphisms", "classify", "morphisms.classify", "hot"),
    ("obci.morphisms", "kernel", "morphisms.kernel", "hot"),
    ("obci.products", "product_structure", "products.product_structure", "hot"),
    ("obci.products", "pair_map", "products.pair_map", "hot"),
    ("obci.products", "k_upper_sets", "products.k_upper_sets", "hot"),
    ("obci.products", "projection_kernels", "products.projection_kernels", "hot"),
    ("obci.core", "check_axiom", "core.check_axiom", "hot"),
    ("obci.substructures", "is_subalgebra", "substructures.predicates", "hot"),
    ("obci.substructures", "is_ordered_subalgebra", "substructures.predicates", "hot"),
    ("obci.substructures", "is_filter", "substructures.predicates", "hot"),
    ("obci.substructures", "is_ordered_filter", "substructures.predicates", "hot"),
    ("obci.substructures", "satisfies_cone_condition", "substructures.predicates", "hot"),
)


def _outcome(name, result) -> int:
    """Work a span delivered: tables found by the scan."""
    return len(result) if name == "scan.valid_tables" else 0


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self, outcome]
        self.child = [0.0]          # time spent in wrapped callees, per open frame
        self.span_ids = [ROOT_SPAN]
        self._next = 0
        self.owner = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # A worker keeps the open-span stack (its claims are children of
        # the parent's verify_all span) but none of the parent's records.
        self.spans.clear()
        self.agg.clear()

    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}-{self._next}"

    # --- wrappers --------------------------------------------------------

    def _enter(self):
        self.child.append(0.0)
        return clock()

    def _leave(self, t0):
        dt = clock() - t0
        inner = self.child.pop()
        self.child[-1] += dt
        return dt, inner

    def hot(self, name, fn):
        agg, span_ids = self.agg, self.span_ids
        count_ohoms = name == "morphisms.classify"

        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt, inner = self._leave(t0)
                key = (span_ids[-1], name)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - inner
            if count_ohoms:
                entry[3] += result.is_ohom
            return result
        return wrapper

    def _record(self, name, sid, parent, start, total, inner, outcome, extra=None):
        rec = {"name": name, "id": sid, "parent": parent, "pid": os.getpid(),
               "start": start, "end": start + total, "total": total,
               "self": total - inner, "outcome": outcome}
        if extra:
            rec.update(extra)
        self.spans.append(rec)

    def span(self, name, fn, *, claim=False):
        def wrapper(*args, **kwargs):
            sid, parent = self._new_id(), self.span_ids[-1]
            self.span_ids.append(sid)
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total, inner = self._leave(t0)
                self.span_ids.pop()
            if claim:
                claim_id = args[0] if args else kwargs["claim"]
                self._record(f"{name}.{claim_id}", sid, parent, t0, total, inner, 0,
                             {"checked": result.instances_checked,
                              "skipped": result.hypothesis_skipped})
                if os.getpid() != self.owner:
                    self.flush()
            else:
                self._record(name, sid, parent, t0, total, inner, _outcome(name, result))
            return result
        return wrapper

    def generator_span(self, name, fn):
        """A span around a generator: timed only while it runs, one record
        when it is exhausted or closed; the outcome counts yielded items."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid, parent = self._new_id(), self.span_ids[-1]
            start, active, inner_total, items = None, 0.0, 0.0, 0
            try:
                while True:
                    self.span_ids.append(sid)
                    t0 = self._enter()
                    start = t0 if start is None else start
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt, inner = self._leave(t0)
                        self.span_ids.pop()
                        active += dt
                        inner_total += inner
                    items += 1
                    yield item
            finally:
                if start is not None:
                    self._record(name, sid, parent, start, active, inner_total, items)
        return wrapper

    # --- installation and output -----------------------------------------

    def install(self) -> None:
        """Wrap every layer function in each loaded obci module binding it.

        A layer a later version of obci no longer defines is skipped; its
        metrics then read zero."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "obci" or n.startswith("obci."))]
        for mod_name, attr, name, kind in LAYERS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            if kind == "hot":
                wrapped = self.hot(name, original)
            elif inspect.isgeneratorfunction(original):
                wrapped = self.generator_span(name, original)
            else:
                wrapped = self.span(name, original, claim=kind == "claim")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def flush(self) -> None:
        """Append this process's records to its file and drop them."""
        lines = [json.dumps({"span": s}) for s in self.spans]
        lines += [json.dumps({"agg": [parent, name, *entry]})
                  for (parent, name), entry in self.agg.items()]
        with open(self.out_dir / f"{os.getpid()}.jsonl", "a") as f:
            f.write("".join(line + "\n" for line in lines))
        self.spans.clear()
        self.agg.clear()


def load(trace_dir: Path) -> tuple[list[dict], list[list]]:
    """All span records and aggregate rows written into a trace directory."""
    spans, aggs = [], []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec["span"])
            else:
                aggs.append(rec["agg"])
    return spans, aggs
