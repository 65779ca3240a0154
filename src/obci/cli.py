"""Command-line interface.

Exit codes: 0 = all requested checks passed / object produced, 1 = a
checked property is violated (witnesses printed), 2 = usage, parse, or
structural error.

Two output formats.  Text is for people.  `--format machine` emits a
stable line-oriented stream: `LAW <id> HOLDS|FAIL [witness ...]` for law
checks, plus CONE/KER/CLASS/SET/CLAIM/CE/COUNT/RESULT/FINDING/NOTE lines;
witnesses are parenthesized comma-joined labels.  Algebra/map dumps use
the regular file formats.

Fixture references: anywhere a file path is expected, `fixture:<name>`
loads a bundled fixture instead; bundled maps know their own endpoint
algebras, so the src/dst arguments become optional for them.
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures as fixture_lib
from . import harness
from .core import (
    BudgetError,
    CheckReport,
    PreconditionError,
    RawStructure,
    StructureError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    axiom_reports,
    reflexive_transitive_closure,
    validate,
)
from .fileio import ParseError, load_algebra, load_map, serialize_algebra
from .fixtures import Finding
from .morphisms import Mapping, classify, kernel, kernel_alt
from .products import direct_product, pair_map
from .substructures import (
    SubstructureKind,
    enumerate_substructures,
    is_closed,
    is_filter,
    is_ordered_filter,
    is_ordered_subalgebra,
    is_subalgebra,
)

_KIND_CHOICES = {k.value: k for k in SubstructureKind}


class _Out:
    def __init__(self, machine: bool):
        self.machine = machine

    def line(self, s: str):
        print(s)

    def note(self, text_msg: str, machine_token: str):
        print(machine_token if self.machine else text_msg)

    def law(self, report: CheckReport, labels):
        ws = " ".join(_fmt_witness(w, labels) for w in report.witnesses)
        more = " +more" if report.truncated else ""
        if self.machine:
            verdict = "HOLDS" if report.holds else "FAIL"
            print(f"LAW {report.law} {verdict}{(' ' + ws) if ws else ''}{more}")
        else:
            if report.holds:
                print(f"law {report.law}: holds")
            else:
                print(f"law {report.law}: VIOLATED at {ws}{more}")

    def finding(self, f: Finding):
        ws = " ".join("(" + ",".join(w) + ")" for w in f.witnesses)
        if self.machine:
            print(f"FINDING {f.subject} {f.topic} stated={f.stated} "
                  f"computed={f.computed}{(' ' + ws) if ws else ''}")
        else:
            print(f"FINDING: {f.subject} {f.topic}: stated {f.stated}, "
                  f"computed {f.computed}; witness {ws}")


def _fmt_witness(w, labels) -> str:
    parts = []
    for item in w:
        if isinstance(item, bool):
            parts.append(str(item))
        elif isinstance(item, int):
            parts.append(labels[item] if labels is not None else str(item))
        elif isinstance(item, tuple):
            parts.append(_fmt_witness(item, labels))
        else:
            parts.append(str(item))
    return "(" + ",".join(parts) + ")"


def _fmt_set(subset) -> str:
    return "{" + ",".join(subset.member_labels()) + "}"


def _load_algebra_arg(path: str) -> RawStructure:
    if path.startswith("fixture:"):
        name = path[len("fixture:"):]
        if name not in fixture_lib.ALGEBRAS:
            raise ParseError(f"unknown algebra fixture {name!r}", path)
        return fixture_lib.ALGEBRAS[name]
    return load_algebra(path)


def _load_map_arg(path: str, src: str | None, dst: str | None) -> Mapping:
    if path.startswith("fixture:"):
        name = path[len("fixture:"):]
        if name not in fixture_lib.MAPS:
            raise ParseError(f"unknown map fixture {name!r}", path)
        return fixture_lib.MAPS[name]
    if src is None or dst is None:
        raise ParseError("map files need explicit <src> and <dst> algebra files", path)
    return load_map(path, _load_algebra_arg(src), _load_algebra_arg(dst))


def _emit_findings(out: _Out, subject_obj, topics: tuple[str, ...]) -> None:
    """Print audit findings when the object is a bundled fixture."""
    if isinstance(subject_obj, RawStructure):
        name = subject_obj.name
        if fixture_lib.ALGEBRAS.get(name) != subject_obj:
            return
    elif isinstance(subject_obj, Mapping):
        name = subject_obj.name
        if fixture_lib.MAPS.get(name) != subject_obj:
            return
    else:
        return
    for f in fixture_lib.findings_for(name):
        if f.topic in topics:
            out.finding(f)


# --- subcommands ------------------------------------------------------------

def _cmd_validate(args, out: _Out) -> int:
    original = _load_algebra_arg(args.file)
    s = original
    if args.closure:
        s = reflexive_transitive_closure(s)
        out.note("note: relation closed reflexively/transitively before checking",
                 "NOTE closure-applied")
    reports = axiom_reports(s, witness_cap=args.witness_cap)
    for r in reports:
        out.law(r, s.labels)
    good = sum(r.holds for r in reports)
    out.note(f"{good}/6 axioms hold", f"AXIOMS {good}/6")
    result = validate(s, witness_cap=args.witness_cap)
    _emit_findings(out, original, ("valid",))
    if isinstance(result, ValidatedAlgebra):
        out.note(f"cone: {_fmt_set(result.cone)}", f"CONE {_fmt_set(result.cone)}")
        return 0
    return 1


def _cmd_axioms(args, out: _Out) -> int:
    original = _load_algebra_arg(args.file)
    s = original
    if args.closure:
        s = reflexive_transitive_closure(s)
        out.note("note: relation closed reflexively/transitively before checking",
                 "NOTE closure-applied")
    reports = axiom_reports(s, witness_cap=args.witness_cap)
    for r in reports:
        out.law(r, s.labels)
    _emit_findings(out, original, ("valid",))
    return 0 if all(r.holds for r in reports) else 1


def _parse_set(s: RawStructure, set_text: str) -> Subset:
    labels = [t for t in set_text.split(",") if t]
    return Subset.from_labels(s, labels)


def _cmd_substructure(args, out: _Out) -> int:
    s = _load_algebra_arg(args.file)
    subset = _parse_set(s, args.set)
    kind = _KIND_CHOICES[args.kind]
    try:
        return _run_substructure(args, out, s, subset, kind)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        if exc.report is not None:
            out.law(exc.report, s.labels)
        return 2


def _run_substructure(args, out: _Out, s, subset, kind) -> int:
    if kind is SubstructureKind.SUBALGEBRA:
        r = is_subalgebra(s, subset, witness_cap=args.witness_cap)
    elif kind is SubstructureKind.ORDERED_SUBALGEBRA:
        r = is_ordered_subalgebra(s, subset, witness_cap=args.witness_cap)
    elif kind is SubstructureKind.FILTER:
        r = is_filter(s, subset, witness_cap=args.witness_cap)
    elif kind is SubstructureKind.ORDERED_FILTER:
        r = is_ordered_filter(s, subset, witness_cap=args.witness_cap)
    elif kind is SubstructureKind.CLOSED_FILTER:
        r = is_closed(s, subset, SubstructureKind.FILTER, witness_cap=args.witness_cap)
    else:
        r = is_closed(s, subset, SubstructureKind.ORDERED_FILTER,
                      witness_cap=args.witness_cap)
    out.law(r, s.labels)
    return 0 if r.holds else 1


def _cmd_enumerate_substructures(args, out: _Out) -> int:
    s = _load_algebra_arg(args.file)
    kind = _KIND_CHOICES[args.kind]
    subsets = enumerate_substructures(s, kind)
    for subset in subsets:
        out.note(f"{_fmt_set(subset)}", f"SET {_fmt_set(subset)}")
    out.note(f"count: {len(subsets)}", f"COUNT {len(subsets)}")
    return 0


def _cmd_classify(args, out: _Out) -> int:
    m = _load_map_arg(args.mapfile, args.src, args.dst)
    cls = classify(m, witness_cap=args.witness_cap)
    out.law(CheckReport("homomorphism", cls.is_hom, cls.hom_witnesses), m.source.labels)
    out.law(CheckReport("o-map", cls.is_omap, cls.omap_witnesses), m.source.labels)
    word = "yes" if cls.is_ohom else "no"
    out.note(f"o-homomorphism: {word}",
             f"CLASS hom={'yes' if cls.is_hom else 'no'} "
             f"omap={'yes' if cls.is_omap else 'no'} ohom={word}")
    _emit_findings(out, m, ("classify",))
    return 0 if cls.is_ohom else 1


def _cmd_kernel(args, out: _Out) -> int:
    m = _load_map_arg(args.mapfile, args.src, args.dst)
    k = kernel_alt(m) if args.alt else kernel(m)
    labels = ", ".join(k.member_labels())
    out.note(f"ker = {{{labels}}}", f"KER {_fmt_set(k)}")
    _emit_findings(out, m, ("kernel",))
    return 0


def _cmd_product(args, out: _Out) -> int:
    a = _load_algebra_arg(args.file_a)
    b = _load_algebra_arg(args.file_b)
    product, report = direct_product(a, b, witness_cap=args.witness_cap)
    out.law(report, product.combined.labels)
    text = serialize_algebra(product.combined)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.holds else 1


def _cmd_pair_map(args, out: _Out) -> int:
    rest = list(args.args)
    if len(rest) == 0:
        f1 = _load_map_arg(args.map1, None, None)
        f2 = _load_map_arg(args.map2, None, None)
    elif len(rest) == 4:
        f1 = _load_map_arg(args.map1, rest[0], rest[1])
        f2 = _load_map_arg(args.map2, rest[2], rest[3])
    else:
        raise ParseError(
            "pair-map takes two fixture maps, or two map files followed by "
            "four algebra files (src1 dst1 src2 dst2)", "pair-map")
    pm = pair_map(f1, f2)
    cls = classify(pm, witness_cap=args.witness_cap)
    out.law(CheckReport("homomorphism", cls.is_hom, cls.hom_witnesses), pm.source.labels)
    out.law(CheckReport("o-map", cls.is_omap, cls.omap_witnesses), pm.source.labels)
    word = "yes" if cls.is_ohom else "no"
    out.note(f"o-homomorphism: {word}",
             f"CLASS hom={'yes' if cls.is_hom else 'no'} "
             f"omap={'yes' if cls.is_omap else 'no'} ohom={word}")
    return 0 if cls.is_ohom else 1


def _cmd_enumerate(args, out: _Out) -> int:
    algebras = list(harness.enumerate_obci(args.n, up_to_iso=args.iso))
    if not args.count_only:
        for a in algebras:
            sys.stdout.write(serialize_algebra(a.structure))
            sys.stdout.write("\n")
    out.note(f"count: {len(algebras)}", f"COUNT {len(algebras)}")
    return 0


def _cmd_verify(args, out: _Out) -> int:
    if args.claim == "all":
        claims = harness.CLAIM_IDS
    elif args.claim in harness.CLAIM_IDS:
        claims = (args.claim,)
    else:
        raise ParseError(f"unknown claim id {args.claim!r}; see 'verify all'", "verify")
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}", "verify")
    scope = {"fixtures": True} if args.fixtures else {"sizes": tuple(range(1, args.size + 1))}
    reports = harness.verify_all(claims, witness_cap=args.witness_cap,
                                 jobs=args.jobs, **scope)
    ok = True
    for r in reports:
        verdict = "VERIFIED" if r.verified else "FAILED"
        ok = ok and r.verified
        out.note(
            f"claim {r.claim}: {verdict.lower()} "
            f"(checked={r.instances_checked}, skipped={r.hypothesis_skipped}, "
            f"counterexamples={len(r.counterexamples)})",
            f"CLAIM {r.claim} {verdict} checked={r.instances_checked} "
            f"skipped={r.hypothesis_skipped}")
        for ce in r.counterexamples:
            out.note(f"  counterexample: {' '.join(ce.context)} "
                     f"witness {_fmt_witness(ce.witness, None)}",
                     f"CE {' '.join(ce.context)} witness={_fmt_witness(ce.witness, None)}")
        if not r.verified:
            first = r.counterexamples[0]
            out.finding(Finding(
                subject=f"claim-{r.claim}", topic="sweep", stated="holds",
                computed=f"counterexamples:{len(r.counterexamples)}",
                witnesses=(tuple(first.context),)))
    return 0 if ok else 1


def _cmd_search(args, out: _Out) -> int:
    scope = {"fixtures": True} if args.fixtures else {"sizes": tuple(range(1, args.size + 1))}
    try:
        found = harness.find_counterexample(args.query, **scope)
    except ValueError as exc:
        raise ParseError(str(exc), "search") from exc
    if found is None:
        out.note("no witness found", "RESULT none")
        return 1
    out.note(f"found: {' '.join(found.context)} witness {_fmt_witness(found.witness, None)}",
             f"RESULT found {' '.join(found.context)} witness={_fmt_witness(found.witness, None)}")
    return 0


def _cmd_fixtures(args, out: _Out) -> int:
    if args.action == "list":
        for name in fixture_lib.ALGEBRAS:
            out.line(f"{name} algebra")
        for name, m in fixture_lib.MAPS.items():
            out.line(f"{name} map {m.source.name} {m.target.name}")
        return 0
    if args.name is None:
        raise ParseError("fixtures dump needs a fixture name", "fixtures")
    try:
        sys.stdout.write(fixture_lib.fixture_text(args.name))
    except KeyError:
        raise ParseError(f"unknown fixture {args.name!r}", "fixtures") from None
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obci",
        description="Workbench for finite ordered BCI-algebras.",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text",
                        help="output format (machine is line-oriented and stable)")
    parser.add_argument("--witness-cap", type=int, default=32, metavar="N",
                        help="max witnesses listed per law (default 32)")
    parser.add_argument("--exhaustive", action="store_true",
                        help="list every witness (no cap)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all six axioms")
    p.add_argument("file")
    p.add_argument("--closure", action="store_true",
                   help="close the relation reflexively/transitively first")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("axioms", help="report each axiom separately")
    p.add_argument("file")
    p.add_argument("--closure", action="store_true")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("substructure", help="test a subset against a predicate")
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="a,b,...",
                   help="comma-separated element labels (empty for the empty set)")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_CHOICES))
    p.set_defaults(func=_cmd_substructure)

    p = sub.add_parser("enumerate-substructures",
                       help="list all subsets satisfying a predicate")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_CHOICES))
    p.set_defaults(func=_cmd_enumerate_substructures)

    p = sub.add_parser("classify", help="homomorphism / O-map classification")
    p.add_argument("mapfile")
    p.add_argument("src", nargs="?")
    p.add_argument("dst", nargs="?")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("kernel", help="kernel of a mapping")
    p.add_argument("mapfile")
    p.add_argument("src", nargs="?")
    p.add_argument("dst", nargs="?")
    p.add_argument("--alt", action="store_true",
                   help="use the existential characterization")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("product", help="direct product of two algebras")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the product algebra file here instead of stdout")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("pair-map", help="componentwise map between products")
    p.add_argument("map1")
    p.add_argument("map2")
    p.add_argument("args", nargs="*",
                   help="src1 dst1 src2 dst2 (omit for fixture maps)")
    p.set_defaults(func=_cmd_pair_map)

    p = sub.add_parser("enumerate", help="enumerate algebras of one size")
    p.add_argument("n", type=int)
    p.add_argument("--iso", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="machine-check claims over a scope")
    p.add_argument("claim", help="a claim id or 'all'")
    p.add_argument("--size", type=int, default=3, metavar="N",
                   help="sweep carrier sizes 1..N (default 3)")
    p.add_argument("--fixtures", action="store_true",
                   help="sweep the bundled fixtures instead")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="run claims in J worker processes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="hunt for a separating example")
    p.add_argument("query", help="hom-not-omap, omap-not-hom, or a claim id")
    p.add_argument("--size", type=int, default=2, metavar="N")
    p.add_argument("--fixtures", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("fixtures", help="list or dump bundled fixtures")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.exhaustive:
        args.witness_cap = None
    out = _Out(machine=args.format == "machine")
    try:
        return args.func(args, out)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        if exc.report is not None:
            out.law(exc.report, None)
        return 2
    except (ParseError, StructureError, UniverseMismatchError, BudgetError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
