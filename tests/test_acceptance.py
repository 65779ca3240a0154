"""Acceptance suite: one test and one printed verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the verdict lines.

All checks are exact (discrete mathematics, zero tolerance).  Where the
source states a property that definitional computation refutes, the
criterion asserts the refutation, re-derived by hand-checkable raw table
lookups, so that a drift in the checker's verdict fails the suite:

* criterion 3: the endpoint-swapping self-map `mid3-swap` is stated to
  be a homomorphism, but the stored table refutes it at both swapped
  idempotents (order-independent, so no relation repair can help).  A
  genuine homomorphism that is not an O-map exists only from size 4: the
  identity between two size-4 algebras sharing one table, whose cones
  {e,a,c} and {e,c} differ, and `search hom-not-omap` over the size-4
  isomorphism classes finds it first.
* criterion 4: the two filter-lattice bijection claims have genuine
  counterexamples, e.g. the chain b <= e <= a whose cone {e, a} is
  contained in only two of its four filters; the other 22 claims verify.
"""

import io
import time
from contextlib import redirect_stdout

from obci import (
    Mapping,
    RawStructure,
    ValidatedAlgebra,
    axiom_reports,
    classify,
    identity_map,
    kernel,
    validate,
    verify_all,
)
from obci.cli import main as cli_main
from obci.harness import (
    CLAIM_IDS,
    Counterexample,
    enumerate_obci,
    enumerate_obci_naive,
    find_counterexample,
)
from obci import fixtures as fx

exy = fx.ALGEBRAS["exy"]
ea = fx.ALGEBRAS["ea"]


def _verdict(num: int, slug: str, ok: bool, detail: str = "") -> bool:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def _labels(s, indices) -> tuple[str, ...]:
    return tuple(s.labels[i] for i in indices)


def _set_labels(s, members) -> str:
    return "{" + ",".join(_labels(s, sorted(members))) + "}"


def _hom_violations(m):
    """Pairs (x, y) with m(x->y) != m(x)->m(y), by raw table lookups."""
    src, dst, t = m.source, m.target, m.table
    return [(x, y) for x in range(src.n) for y in range(src.n)
            if t[src.op[x][y]] != dst.op[t[x]][t[y]]]


def _omap_violations(m):
    """Pairs (x, y) with x->y in the source cone but m(x)->m(y) outside
    the target cone, by raw table lookups."""
    src, dst, t = m.source, m.target, m.table
    cone_s, cone_t = src.order[src.unit], dst.order[dst.unit]
    return [(x, y) for x in range(src.n) for y in range(src.n)
            if cone_s[src.op[x][y]] and not cone_t[dst.op[t[x]][t[y]]]]


def _filters_by_scan(s, *, ordered=False):
    """Independent oracle: raw 2^n sweep of the two filter clauses.

    Ordered filters detach along the order (unit <= x->y) instead of
    along membership of x->y.
    """
    cone = s.order[s.unit]
    out = []
    for mask in range(1 << s.n):
        members = {i for i in range(s.n) if mask >> i & 1}
        if s.unit not in members:
            continue
        if all(y in members
               for x in members for y in range(s.n)
               if (cone[s.op[x][y]] if ordered else s.op[x][y] in members)):
            out.append(frozenset(members))
    return out


# One table under two cones: the size-4 classes n4-31 (cone {e,a,c}) and
# n4-30 (cone {e,c}) up to unit-fixing isomorphism.
_N4_LABELS = ("e", "a", "b", "c")
_N4_OP = (
    (0, 1, 2, 3),  # e: e a b c
    (2, 0, 2, 3),  # a: b e b c
    (3, 3, 3, 3),  # b: c c c c
    (2, 2, 2, 3),  # c: b b b c
)


def _n4_algebra(name, cone_labels):
    """The size-4 table ordered by the linking axiom: x <= y iff x->y is
    in the cone."""
    cone = [label in cone_labels for label in _N4_LABELS]
    order = tuple(tuple(cone[v] for v in row) for row in _N4_OP)
    return RawStructure(name, _N4_LABELS, _N4_OP, 0, order)


def test_criterion_1_fixture_validation():
    ok = True
    for s in (exy, ea):
        reports = axiom_reports(s, witness_cap=None)
        ok = ok and all(r.holds for r in reports) and len(reports) == 6
        ok = ok and isinstance(validate(s), ValidatedAlgebra)
    assert _verdict(1, "fixture-validation", ok, "6/6 axioms on both fixtures")


def test_criterion_2_kernel_reproduction():
    k1 = set(kernel(fx.MAPS["diamond-to-chain"]).member_labels())
    k2 = set(kernel(identity_map(exy)).member_labels())
    ok = k1 == {"1", "e"} and k2 == {"e"}
    assert _verdict(2, "kernel-reproduction", ok, f"{sorted(k1)} and {sorted(k2)}")


def test_criterion_3_separating_examples():
    # O-map, not a homomorphism: the stated diamond-to-chain example.
    d2c_map = fx.MAPS["diamond-to-chain"]
    d2c = classify(d2c_map)

    diamond = fx.ALGEBRAS["diamond"]
    chain4 = fx.ALGEBRAS["chain4"]
    d, e = diamond.index("d"), diamond.index("e")
    lhs = d2c_map.table[diamond.op[d][e]]
    rhs = chain4.op[d2c_map.table[d]][d2c_map.table[e]]
    omap_not_hom = (d2c.is_omap and not d2c.is_hom
                    and chain4.labels[lhs] == "1/3"
                    and chain4.labels[rhs] == "2/3")

    # Homomorphism, not an O-map.  The stated example, mid3-swap, is no
    # homomorphism: f(1->1) = f(1) = 0 but f(1)->f(1) = 0->0 = 1, and the
    # same at (0,0).  No order relation enters, so the audit must report it.
    swap_map = fx.MAPS["mid3-swap"]
    swap = classify(swap_map)
    raw_swap = _hom_violations(swap_map)
    swap_labels = [_labels(swap_map.source, w) for w in raw_swap]
    finding = next(f for f in fx.audit()
                   if (f.subject, f.topic) == ("mid3-swap", "classify"))
    swap_refuted = (not swap.is_hom and not swap.is_omap
                    and swap.hom.witnesses == tuple(raw_swap)
                    and swap_labels == [("1", "1"), ("0", "0")]
                    and finding.stated == "hom=yes,omap=no"
                    and finding.computed == "hom=no,omap=no"
                    and ("hom", "1", "1") in finding.witnesses)

    # A genuine one needs size 4: the identity between the two cones of one
    # table is a homomorphism, but e->a = a is in the source cone only.  The
    # search itself finds it, the first among the size-4 classes.
    below_4 = find_counterexample("hom-not-omap", sizes=(1, 2, 3))
    at_4 = find_counterexample("hom-not-omap", sizes=(1, 2, 3, 4), up_to_iso=True)
    n4_31 = _n4_algebra("n4-31", {"e", "a", "c"})
    n4_30 = _n4_algebra("n4-30", {"e", "c"})
    valid = all(isinstance(validate(s), ValidatedAlgebra)
                and [r.holds for r in axiom_reports(s)] == [True] * 6
                for s in (n4_31, n4_30))
    ident_map = Mapping(n4_31, n4_30, tuple(range(4)), "id")
    ident = classify(ident_map, witness_cap=None)
    raw_ident = _omap_violations(ident_map)
    hom_not_omap = (below_4 is None and valid
                    and at_4 == Counterexample(("X=n4-31", "Y=n4-30", "map=(0,1,2,3)"),
                                               (0, 1))
                    and _hom_violations(ident_map) == []
                    and raw_ident == [(0, 1)]
                    and ident.is_hom and not ident.is_omap
                    and ident.omap.witnesses == tuple(raw_ident))

    # The names are those the enumeration gives the two isomorphism classes.
    enumerated = {a.name: a.structure for a in enumerate_obci(4, up_to_iso=True)}
    names_pinned = all(
        (enumerated[s.name].op, enumerated[s.name].order) == (s.op, s.order)
        for s in (n4_31, n4_30))

    ident_labels = [_labels(n4_31, w) for w in raw_ident]
    _verdict(3, "separating-examples",
             omap_not_hom and swap_refuted and hom_not_omap and names_pinned,
             f"O-map-not-hom diamond-to-chain at (d,e); stated hom mid3-swap "
             f"refuted at {swap_labels}; hom-not-O-map none below size 4, "
             f"identity n4-31 -> n4-30 at {ident_labels}")
    assert omap_not_hom
    assert swap_refuted, (
        "stated: mid3-swap is a homomorphism, refuted by its table at "
        f"(1,1) and (0,0); computed: {swap}, raw witnesses {swap_labels}, "
        f"finding {finding}"
    )
    assert hom_not_omap, (
        f"expected no hom-not-O-map below size 4 (found {below_4}) and the "
        f"identity n4-31 -> n4-30 as one at (e,a) (searched: {at_4}; axioms valid: {valid}, "
        f"computed: {ident}, raw O-map witnesses {ident_labels})"
    )
    assert names_pinned, (
        "expected enumerate_obci(4, up_to_iso=True) to name the two cones of "
        "the table e a b c / b e b c / c c c c / b b b c n4-31 ({e,a,c}) and "
        "n4-30 ({e,c})"
    )


def _instance(report, context):
    """(rest of context, witness) of each counterexample at one instance."""
    k = len(context)
    return {(ce.context[k:], ce.witness) for ce in report.counterexamples
            if ce.context[:k] == context}


def _bijection_failures(src, dst, table, source_family, target_family):
    """Expected counterexamples at one surjective map, from raw families:
    the surjective law when the images miss the target family, and the
    preimage-in-family law at each target member whose preimage is not
    in the source family.  The image laws hold at both documented
    instances (an identity, and an empty source family)."""
    out = set()
    if {frozenset(table[x] for x in F) for F in source_family} != set(target_family):
        out.add((("law=surjective",), ()))
    for G in target_family:
        pre = frozenset(x for x in range(src.n) if table[x] in G)
        if pre not in source_family:
            out.add((("law=preimage-in-family", "G=" + _set_labels(dst, G)),
                     _labels(src, sorted(pre))))
    return out


def _algebra(n, name):
    return next(a.structure for a in enumerate_obci(n) if a.name == name)


def test_criterion_4_theorem_sweeps():
    t0 = time.time()
    reports = verify_all(sizes=(1, 2, 3))
    elapsed = time.time() - t0
    assert elapsed < 600, f"sweep took {elapsed:.0f}s, over the budget"
    assert [r.claim for r in reports] == list(CLAIM_IDS)
    by_claim = {r.claim: r for r in reports}
    refuted = {c: len(r.counterexamples) for c, r in by_claim.items() if not r.verified}
    checked = {c: r.instances_checked for c, r in by_claim.items()}

    # T-filter-bijection: the identity on the chain b <= e <= a (n3-8).  Its
    # kernel is the cone {e,a}, which only two of the four filters contain.
    chain = _algebra(3, "n3-8")
    e, a, b = (chain.index(x) for x in "eab")
    cone = chain.order[e]
    ker = frozenset(x for x in range(3) if cone[x])
    filters = _filters_by_scan(chain)
    chain_hand = (chain.order[b][e] and chain.order[e][a] and ker == {e, a}
                  and set(filters) == {frozenset(F) for F in
                                       ({e}, {e, a}, {e, b}, {e, a, b})})
    chain_expected = _bijection_failures(
        chain, chain, (0, 1, 2), [F for F in filters if ker <= F], filters)
    chain_found = _instance(by_claim["T-filter-bijection"],
                            ("X=n3-8", "Y=n3-8", "map=(0,1,2)"))

    # T-ordfilter-bijection: n2-0 collapsed onto the point.  The kernel is
    # {e,a}, but the cone condition allows only subsets of the cone {e}, so
    # the source family is empty while the target family is {{e}}.
    two, point = _algebra(2, "n2-0"), _algebra(1, "n1-0")
    collapse = (0, 0)
    ker2 = frozenset(x for x in range(2) if point.order[0][collapse[x]])
    cone2 = frozenset(x for x in range(2) if two.order[0][x])
    source_family = [F for F in _filters_by_scan(two, ordered=True)
                     if ker2 <= F <= cone2]
    target_family = _filters_by_scan(point, ordered=True)
    collapse_hand = (ker2 == {0, 1} and cone2 == {0} and source_family == []
                     and target_family == [frozenset({0})])
    collapse_expected = _bijection_failures(
        two, point, collapse, source_family, target_family)
    collapse_found = _instance(by_claim["T-ordfilter-bijection"],
                               ("X=n2-0", "Y=n1-0", "map=(0,0)"))

    exactly_two = set(refuted) == {"T-filter-bijection", "T-ordfilter-bijection"}
    none_vacuous = min(checked.values()) > 0
    chain_ok = chain_hand and chain_found == chain_expected
    collapse_ok = collapse_hand and collapse_found == collapse_expected
    _verdict(4, "theorem-sweeps",
             exactly_two and none_vacuous and chain_ok and collapse_ok,
             f"{elapsed:.0f}s; {len(CLAIM_IDS) - len(refuted)} claims verified, "
             f"fewest instances {min(checked.values())}; refuted with the "
             f"documented instances: {refuted}")
    assert exactly_two, (
        f"expected exactly the two filter-lattice bijections refuted, got {refuted}"
    )
    assert none_vacuous, f"a claim checked no instance: {checked}"
    assert chain_ok, (
        f"identity on n3-8: filters {filters}, kernel {set(ker)}; expected "
        f"{chain_expected}, reported {chain_found}"
    )
    assert collapse_ok, (
        f"n2-0 onto the point: source family {source_family}, target family "
        f"{target_family}; expected {collapse_expected}, reported {collapse_found}"
    )


def test_criterion_5_enumerator_double_oracle():
    agree = True
    for n in (1, 2):
        pruned = {(a.structure.op, a.structure.order) for a in enumerate_obci(n)}
        naive = {(a.structure.op, a.structure.order)
                 for a in enumerate_obci_naive(n)}
        agree = agree and pruned == naive
    counts = {n: len(list(enumerate_obci(n))) for n in (2, 3)}
    golden = counts == {2: 2, 3: 10}
    assert _verdict(5, "enumerator-double-oracle", agree and golden,
                    f"n<=2 sets identical; golden counts {counts}")


def test_criterion_6_bijection_at_fixture_scale():
    m = fx.MAPS["exy-to-ea"]
    ker = set(kernel(m).members())

    fam_f = [F for F in _filters_by_scan(exy) if ker <= F]
    fam_g = _filters_by_scan(ea)
    images = [frozenset(m.table[i] for i in F) for F in fam_f]
    preimages = {G: frozenset(i for i in range(exy.n) if m.table[i] in G)
                 for G in fam_g}
    ok = (
        len(fam_f) == len(fam_g) == 2
        and set(fam_f) == {frozenset({0, 1}), frozenset({0, 1, 2})}
        and set(fam_g) == {frozenset({0}), frozenset({0, 1})}
        and set(images) == set(fam_g)                      # onto
        and len(set(images)) == len(fam_f)                 # one-to-one
        and all(preimages[img] == F for F, img in zip(fam_f, images))
        and all(preimages[G] in fam_f for G in fam_g)
    )
    assert _verdict(6, "bijection-at-fixture-scale", ok,
                    "|F|=|G|=2, image and preimage invert each other")


def test_criterion_7_product_laws():
    product_claims = ("T-pairmap-ohom", "T-product-kernel",
                      "T-product-kernel-projection", "T-ksets")
    reports = verify_all(product_claims, sizes=(1, 2))
    failing = {r.claim: len(r.counterexamples) for r in reports if not r.verified}
    checked = {r.claim: r.instances_checked for r in reports}
    ok = not failing and all(v > 0 for v in checked.values())
    assert _verdict(7, "product-laws", ok,
                    f"pairs checked {sorted(set(checked.values()))}, "
                    f"counterexamples {failing or 'none'}")


def test_criterion_8_discrepancy_audit():
    findings = {(f.subject, f.topic): f for f in fx.audit()}

    def has(subject, topic, tag):
        f = findings.get((subject, topic))
        return f is not None and any(w[0] == tag and len(w) > 1 for w in f.witnesses)

    required = (
        has("mid3", "valid", "OBCI-5"),
        has("chain4", "valid", "order-transitive"),
        has("exy-to-ea", "kernel", "only-computed"),
        has("mid3-id", "kernel", "only-computed"),
    )

    # the CLI must surface them as FINDING lines, not silent passes
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli_main(["--format", "machine", "validate", "fixture:mid3"])
        cli_main(["--format", "machine", "validate", "fixture:chain4"])
        cli_main(["--format", "machine", "kernel", "fixture:exy-to-ea"])
        cli_main(["--format", "machine", "kernel", "fixture:mid3-id"])
    lines = buf.getvalue()
    emitted = (
        "FINDING mid3 valid" in lines
        and "FINDING chain4 valid" in lines
        and "FINDING exy-to-ea kernel" in lines
        and "FINDING mid3-id kernel" in lines
    )
    ok = all(required) and emitted
    assert _verdict(8, "discrepancy-audit", ok,
                    "4/4 findings with explicit witnesses, emitted by the CLI")
