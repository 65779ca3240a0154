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
    axiom_reports,
    certified,
    reflexive_transitive_closure,
)
from .fileio import ParseError, load_algebra, load_map, serialize_algebra
from .fixtures import Finding
from .morphisms import Mapping, MorphismClass, classify, kernel, kernel_alt
from .products import direct_product, pair_map
from .substructures import CHECKS as substructure_checks
from .substructures import SubstructureKind, enumerate_substructures

_KIND_CHOICES = {k.value: k for k in SubstructureKind}

# Witnesses listed per law unless --witness-cap or --exhaustive says otherwise;
# the library lists every witness unless its caller passes a cap.
DEFAULT_WITNESS_CAP = 32


class _Out:
    def __init__(self, machine: bool):
        self.machine = machine

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
                print(f"law {report.law}: VIOLATED{(' at ' + ws) if ws else ''}{more}")

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
        if isinstance(item, int):
            parts.append(labels[item] if labels is not None else str(item))
        elif isinstance(item, tuple):
            parts.append(_fmt_witness(item, labels))
        else:
            parts.append(str(item))
    return "(" + ",".join(parts) + ")"


def _fmt_set(subset) -> str:
    return "{" + ",".join(subset.member_labels()) + "}"


def _fixture_arg(path: str, kind: str, fixtures: dict):
    """The bundled fixture a `fixture:<name>` argument names, or None for a
    file path."""
    if not path.startswith("fixture:"):
        return None
    name = path[len("fixture:"):]
    if name not in fixtures:
        raise ParseError(f"unknown {kind} fixture {name!r}", path)
    return fixtures[name]


def _load_algebra_arg(path: str) -> RawStructure:
    return _fixture_arg(path, "algebra", fixture_lib.ALGEBRAS) or load_algebra(path)


def _load_map_arg(path: str, src: str | None, dst: str | None) -> Mapping:
    fixture = _fixture_arg(path, "map", fixture_lib.MAPS)
    if fixture is not None:
        return fixture
    if src is None or dst is None:
        raise ParseError("map files need explicit <src> and <dst> algebra files", path)
    return load_map(path, _load_algebra_arg(src), _load_algebra_arg(dst))


def _emit_findings(out: _Out, subject_obj, topic: str) -> None:
    """Print the audit finding on `topic` when the object is a bundled fixture."""
    bundled = fixture_lib.ALGEBRAS if isinstance(subject_obj, RawStructure) else fixture_lib.MAPS
    name = subject_obj.name
    if bundled.get(name) != subject_obj:
        return
    for f in fixture_lib.findings_for(name, topic):
        out.finding(f)


# --- subcommands ------------------------------------------------------------

def _cmd_axioms(args, out: _Out) -> int:
    """`axioms` prints the six reports; `validate` adds the count and the cone."""
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
    if args.command == "validate":
        out.note(f"{good}/6 axioms hold", f"AXIOMS {good}/6")
    _emit_findings(out, original, "valid")
    if args.command == "validate" and good == len(reports):
        cone = _fmt_set(certified(s).cone)
        out.note(f"cone: {cone}", f"CONE {cone}")
    return 0 if good == len(reports) else 1


def _parse_set(s: RawStructure, set_text: str) -> Subset:
    """The subset named by comma-separated labels.  A label may itself hold
    commas, as a product element "(e,a)" does: comma-separated pieces are
    joined until they form a label of `s`; an empty piece between two
    labels is skipped, and text left unmatched is an unknown element."""
    labels, pending = [], ""
    for piece in set_text.split(","):
        pending = f"{pending},{piece}" if pending else piece
        if pending in s.labels:
            labels.append(pending)
            pending = ""
    if pending:
        labels.append(pending)  # no label: from_labels names it as unknown
    return Subset.from_labels(s, labels)


def _cmd_substructure(args, out: _Out) -> int:
    s = _load_algebra_arg(args.file)
    subset = _parse_set(s, args.set)
    check = substructure_checks[_KIND_CHOICES[args.kind]]
    try:
        r = check(s, subset, witness_cap=args.witness_cap)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        out.law(exc.report, s.labels)
        return 2
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


def _print_classification(out: _Out, m: Mapping, witness_cap) -> MorphismClass:
    """Print both morphism laws of `m` and its class line."""
    cls = classify(m, witness_cap=witness_cap)
    out.law(cls.hom, m.source.labels)
    out.law(cls.omap, m.source.labels)
    word = "yes" if cls.is_ohom else "no"
    out.note(f"o-homomorphism: {word}",
             f"CLASS hom={'yes' if cls.is_hom else 'no'} "
             f"omap={'yes' if cls.is_omap else 'no'} ohom={word}")
    return cls


def _cmd_classify(args, out: _Out) -> int:
    m = _load_map_arg(args.mapfile, args.src, args.dst)
    cls = _print_classification(out, m, args.witness_cap)
    _emit_findings(out, m, "classify")
    return 0 if cls.is_ohom else 1


def _cmd_kernel(args, out: _Out) -> int:
    m = _load_map_arg(args.mapfile, args.src, args.dst)
    k = kernel_alt(m) if args.alt else kernel(m)
    labels = ", ".join(k.member_labels())
    out.note(f"ker = {{{labels}}}", f"KER {_fmt_set(k)}")
    _emit_findings(out, m, "kernel")
    return 0


def _cmd_product(args, out: _Out) -> int:
    a = _load_algebra_arg(args.file_a)
    b = _load_algebra_arg(args.file_b)
    product, report = direct_product(a, b, witness_cap=args.witness_cap)
    text = serialize_algebra(product.combined)
    # The file first: an unwritable output exits 2 before any verdict.
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    out.law(report, product.combined.labels)
    if not args.output:
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
    cls = _print_classification(out, pair_map(f1, f2), args.witness_cap)
    return 0 if cls.is_ohom else 1


def _cmd_enumerate(args, out: _Out) -> int:
    algebras = list(harness.enumerate_obci(args.n, up_to_iso=args.iso))
    if not args.count_only:
        for a in algebras:
            sys.stdout.write(serialize_algebra(a.structure))
            sys.stdout.write("\n")
    out.note(f"count: {len(algebras)}", f"COUNT {len(algebras)}")
    return 0


# The largest carrier size `verify` and `search` sweep without --size.
_DEFAULT_SIZE = {"verify": 3, "search": 2}


def _scope(args) -> dict:
    """The sweep scope of `verify` and `search`: the fixtures, or sizes 1 to
    --size; both at once is a usage error, whatever the size given."""
    if not args.fixtures:
        size = _DEFAULT_SIZE[args.command] if args.size is None else args.size
        return {"sizes": tuple(range(1, size + 1))}
    if args.size is not None:
        raise ParseError("--size and --fixtures exclude each other", args.command)
    return {"fixtures": True}


def _cmd_verify(args, out: _Out) -> int:
    if args.claim == "all":
        claims = harness.CLAIM_IDS
    elif args.claim in harness.CLAIM_IDS:
        claims = (args.claim,)
    else:
        raise ParseError(f"unknown claim id {args.claim!r}; see 'verify all'", "verify")
    reports = harness.verify_all(claims, jobs=args.jobs, **_scope(args))
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
    scope = _scope(args)
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
            print(f"{name} algebra")
        for name, m in fixture_lib.MAPS.items():
            print(f"{name} map {m.source.name} {m.target.name}")
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
    parser.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP, metavar="N",
                        help=f"max witnesses listed per law (default {DEFAULT_WITNESS_CAP})")
    parser.add_argument("--exhaustive", action="store_true",
                        help="list every witness (no cap)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all six axioms")
    p.add_argument("file")
    p.add_argument("--closure", action="store_true",
                   help="close the relation reflexively/transitively first")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("axioms", help="report each axiom separately")
    p.add_argument("file")
    p.add_argument("--closure", action="store_true")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("substructure", help="test a subset against a predicate")
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="a,b,...",
                   help="comma-separated element labels, empty for the empty "
                   "set; pieces are joined until they form a label, so a "
                   "product element such as (e,a) is written as it is")
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
    p.add_argument("--size", type=int, metavar="N",
                   help="sweep carrier sizes 1..N (default 3)")
    p.add_argument("--fixtures", action="store_true",
                   help="sweep the bundled fixtures instead")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="split the sweep into J parts, J-1 in worker processes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="hunt for a separating example")
    p.add_argument("query", help="hom-not-omap, omap-not-hom, or a claim id")
    p.add_argument("--size", type=int, metavar="N")
    p.add_argument("--fixtures", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("fixtures", help="list or dump bundled fixtures")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_fixtures)

    return parser


# The least value of each numeric argument, by argparse dest.
_MINIMUM = {"witness_cap": ("--witness-cap", 0), "jobs": ("--jobs", 1),
            "size": ("--size", 1), "n": ("n", 1)}


def _check_ranges(args) -> None:
    for dest, (name, least) in _MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ParseError(f"{name} must be at least {least}, got {value}", args.command)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out(machine=args.format == "machine")
    try:
        _check_ranges(args)
        if args.exhaustive:
            args.witness_cap = None
        return args.func(args, out)
    except (ParseError, StructureError, UniverseMismatchError, BudgetError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
