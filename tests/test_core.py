import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from obci import (
    AXIOM_IDS,
    IDENTITY_IDS,
    CheckReport,
    RawStructure,
    StructureError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    axiom_reports,
    check_axiom,
    check_derived_identities,
    classify,
    derived_identity_reports,
    enumerate_obci,
    enumerate_obci_naive,
    is_subalgebra,
    k_upper_sets,
    kernel,
    order_from_cone,
    parse_algebra,
    parse_map,
    reflexive_transitive_closure,
    relation_reports,
    validate,
    verify_all,
)
from obci import core
from obci.core import AXIOMS, bits
from obci import fixtures as fx
from obci.products import ProductAlgebra, product_structure

exy = fx.ALGEBRAS["exy"]
ea = fx.ALGEBRAS["ea"]
mid3 = fx.ALGEBRAS["mid3"]
diamond = fx.ALGEBRAS["diamond"]
chain4 = fx.ALGEBRAS["chain4"]


def test_exy_validates_with_unit_cone():
    v = validate(exy)
    assert isinstance(v, ValidatedAlgebra)
    assert v.cone.member_labels() == ("e",)


def test_ea_validates():
    v = validate(ea)
    assert isinstance(v, ValidatedAlgebra)
    assert v.cone.member_labels() == ("e",)


def test_validate_partial_order_cross_check_raises(monkeypatch):
    # the cross-check must survive `python -O`, so it cannot be an assert
    import obci.core

    broken = [CheckReport("order-reflexive", holds=False, witnesses=((0,),))]
    monkeypatch.setattr(obci.core, "relation_reports", lambda s: broken)
    with pytest.raises(RuntimeError, match="not a partial order"):
        validate(ea)


def test_point_validates(point):
    v = validate(point)
    assert isinstance(v, ValidatedAlgebra)
    assert v.cone.member_labels() == ("e",)
    for axiom in AXIOM_IDS:
        assert check_axiom(point, axiom).holds


def test_exy_selfarrow_axiom_holds():
    assert check_axiom(exy, "OBCI-3").holds


def test_mid3_linking_axiom_fails_at_stated_pair():
    r = check_axiom(mid3, "OBCI-5")
    assert not r.holds
    # 0 <= 1/2 is asserted by the stored relation but 0->1/2 lands outside
    # the cone; labels ("1", "1/2", "0") index as 0, 1, 2.
    assert (2, 1) in r.witnesses


def test_mid3_rejected_with_first_failing_axiom():
    result = validate(mid3)
    assert isinstance(result, CheckReport)
    assert result.law == "OBCI-1"
    failing = {r.law for r in axiom_reports(mid3) if not r.holds}
    assert failing == {"OBCI-1", "OBCI-2", "OBCI-3", "OBCI-5"}


def test_diamond_and_chain4_fail_only_linking_axiom():
    for s, witness in ((diamond, (3, 0)), (chain4, (3, 1))):
        failing = {r.law: r for r in axiom_reports(s) if not r.holds}
        assert set(failing) == {"OBCI-5"}
        assert witness in failing["OBCI-5"].witnesses


def test_axiom_witnesses_are_sound_and_exhaustive():
    def violated_at(s, axiom, inst):
        """The axiom's predicate at one instantiation (True = violated)."""
        return AXIOMS[axiom].violated(s.op, s.order, s.order[s.unit], s.unit, *inst)

    for axiom in AXIOM_IDS:
        r = check_axiom(mid3, axiom, witness_cap=None)
        for w in r.witnesses:
            assert violated_at(mid3, axiom, w)
        everything = [
            t for t in itertools.product(range(mid3.n), repeat=AXIOMS[axiom].arity)
            if violated_at(mid3, axiom, t)
        ]
        assert list(r.witnesses) == everything


def test_witness_cap_truncates():
    r = check_axiom(mid3, "OBCI-1", witness_cap=2)
    assert not r.holds
    assert r.truncated
    assert len(r.witnesses) == 2
    assert not check_axiom(exy, "OBCI-1", witness_cap=2).truncated


@pytest.mark.parametrize("cap", [None, 0, 1])
def test_collect_caps_on_empty_and_nonempty_streams(cap):
    empty = CheckReport.collect("law", iter(()), cap)
    assert (empty.holds, empty.witnesses, empty.truncated) == (True, (), False)
    one = CheckReport.collect("law", iter([(0,)]), cap)
    two = CheckReport.collect("law", iter([(0,), (1,)]), cap)
    assert not one.holds and not two.holds
    if cap is None:
        assert (one.witnesses, one.truncated) == (((0,),), False)
        assert (two.witnesses, two.truncated) == (((0,), (1,)), False)
    elif cap == 0:
        assert (one.witnesses, one.truncated) == ((), True)
        assert (two.witnesses, two.truncated) == ((), True)
    else:
        assert (one.witnesses, one.truncated) == (((0,),), False)
        assert (two.witnesses, two.truncated) == (((0,),), True)


def test_collect_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="witness cap must be at least 0, got -1"):
        CheckReport.collect("law", iter([(0,)]), -1)


def test_merged_tags_witnesses_and_keeps_verdict_and_truncation():
    holds = CheckReport("a", holds=True)
    cut = CheckReport("b", holds=False, witnesses=((0, 1),), truncated=True)
    bare = CheckReport("c", holds=False, truncated=True)
    assert CheckReport.merged("all", [holds]) == CheckReport("all", holds=True)
    assert CheckReport.merged("all", [holds, cut, bare]) == CheckReport(
        "all", holds=False, witnesses=(("b", 0, 1),), truncated=True)


def _raw_structures_up_to_size_two():
    """Every raw structure of size 1 and 2: op table, relation and unit."""
    for n in (1, 2):
        labels = tuple("ea"[:n])
        for flat_op in itertools.product(range(n), repeat=n * n):
            op = tuple(flat_op[r * n:(r + 1) * n] for r in range(n))
            for flat_rel in itertools.product((False, True), repeat=n * n):
                order = tuple(flat_rel[r * n:(r + 1) * n] for r in range(n))
                for unit in range(n):
                    yield RawStructure("raw", labels, op, unit, order)


def _all_law_reports(s):
    """The 15 laws on a raw structure, uncapped: axioms, identities, order."""
    # the identities are evaluated on any structure, valid or not
    unchecked = ValidatedAlgebra(s, Subset.from_indices(s, s.cone_members()))
    return axiom_reports(s) + derived_identity_reports(unchecked) + relation_reports(s)


def _law_table():
    """One line per raw structure of size <= 2: each law's witness count and
    first witness; and per law, the number of structures it fails on."""
    lines = []
    failing = {}
    for s in _raw_structures_up_to_size_two():
        fields = ["op=" + "/".join("".join(map(str, row)) for row in s.op),
                  "order=" + "/".join("".join("1" if v else "0" for v in row)
                                      for row in s.order),
                  f"unit={s.unit}"]
        for r in _all_law_reports(s):
            assert not r.truncated and r.holds == (not r.witnesses)
            first = "@" + ",".join(map(str, r.witnesses[0])) if r.witnesses else ""
            fields.append(f"{r.law}={len(r.witnesses)}{first}")
            failing[r.law] = failing.get(r.law, 0) + (not r.holds)
        lines.append(" ".join(fields) + "\n")
    return lines, failing


def test_every_law_is_pinned_on_every_raw_structure_up_to_size_two():
    # recorded at commit f957832, before the laws became table entries
    lines, failing = _law_table()
    assert len(lines) == 514
    assert list(failing) == [*AXIOM_IDS, *IDENTITY_IDS, "order-reflexive",
                             "order-antisymmetric", "order-transitive"]
    assert min(failing.values()) > 0  # every formula is seen failing
    reference = Path(__file__).parent / "data" / "laws_size2.txt"
    assert "".join(lines) == reference.read_text(encoding="utf-8")


def test_order_from_cone_reproduces_exy_relation():
    assert order_from_cone(exy.op, exy.unit, (0,)) == exy.order


def test_order_from_cone_full_cone_is_total():
    order = order_from_cone(exy.op, exy.unit, range(3))
    assert all(all(row) for row in order)


def test_order_from_cone_mid3_breaks_symmetry():
    # with cone {1/2, 0} the generated relation keeps (1/2, 0) but not
    # (0, 1/2): 0 -> 1/2 = 1, outside the cone
    order = order_from_cone(mid3.op, mid3.unit, (1, 2))
    assert order[1][2] is True
    assert order[2][1] is False


def test_validated_order_is_cone_generated():
    for s in (exy, ea):
        v = validate(s)
        assert isinstance(v, ValidatedAlgebra)
        assert order_from_cone(s.op, s.unit, v.cone) == s.order


def test_derived_identities_hold_on_validated_fixtures(point):
    for s in (exy, ea, point):
        v = validate(s)
        report = check_derived_identities(v)
        assert report.holds
        for r in derived_identity_reports(v):
            assert r.holds, r.law


def test_validator_idempotence():
    v = validate(exy)
    again = validate(v.structure)
    assert isinstance(again, ValidatedAlgebra)
    assert again.cone == v.cone


def test_relation_reports_on_chain4():
    refl, anti, trans = relation_reports(chain4)
    assert refl.holds and anti.holds
    assert not trans.holds
    assert trans.witnesses == ((2, 1, 0), (3, 2, 1))


def test_relation_reports_on_mid3():
    refl, anti, trans = relation_reports(mid3)
    assert refl.holds and trans.holds
    assert not anti.holds
    assert (1, 2) in anti.witnesses


def test_closure_completes_chain4():
    closed = reflexive_transitive_closure(chain4)
    i = {l: k for k, l in enumerate(chain4.labels)}
    assert closed.order[i["0"]][i["2/3"]]
    assert closed.order[i["0"]][i["1"]]
    assert closed.order[i["1/3"]][i["1"]]
    refl, anti, trans = relation_reports(closed)
    assert refl.holds and trans.holds
    # closure is idempotent
    assert reflexive_transitive_closure(closed) == closed


def test_closure_repairs_covering_pair_fixtures_but_not_mid3():
    # diamond and chain4 store only generating pairs; the closure yields
    # genuine algebras.  mid3 is inconsistent beyond its relation.
    for name, ok in (("diamond", True), ("chain4", True), ("mid3", False)):
        result = validate(reflexive_transitive_closure(fx.ALGEBRAS[name]))
        assert isinstance(result, ValidatedAlgebra) == ok


def test_structure_well_formedness_errors():
    with pytest.raises(StructureError, match=r"\(1, 0\)"):
        RawStructure("bad", ("e", "a"), ((0, 1), (9, 0)), 0,
                     ((True, False), (False, True)))
    with pytest.raises(StructureError, match="distinct"):
        RawStructure("bad", ("e", "e"), ((0, 0), (0, 0)), 0,
                     ((True, False), (False, True)))
    with pytest.raises(StructureError, match="unit"):
        RawStructure("bad", ("e",), ((0,),), 4, ((True,),))
    with pytest.raises(StructureError, match="rows"):
        RawStructure("bad", ("e", "a"), ((0, 1),), 0,
                     ((True, False), (False, True)))
    with pytest.raises(StructureError, match="order"):
        RawStructure("bad", ("e", "a"), ((0, 1), (1, 0)), 0, ((True,),))


@pytest.mark.parametrize("call, error, message", [
    (lambda: delattr(Subset.full(exy), "mask"), AttributeError,
     "cannot delete field 'mask'"),
    (lambda: delattr(exy, "name"), AttributeError, "cannot delete field 'name'"),
    (lambda: RawStructure("bad", (), (), 0, ()), StructureError,
     "bad: carrier must be non-empty"),
    (lambda: RawStructure("bad", ("e", "a"), ((0, 1), (1,)), 0,
                          ((True, False), (False, True))), StructureError,
     "bad: operation row 1 needs 2 entries, got 1"),
    (lambda: check_axiom(exy, "OBCI-7"), ValueError, "unknown axiom id 'OBCI-7'"),
    (lambda: order_from_cone(exy.op, 3, (0,)), StructureError, "unit index 3 out of range"),
    (lambda: order_from_cone(((0, 1), (1,)), 0, (0,)), StructureError,
     "operation table must be square"),
    # both enumerators are generators: the guard runs on the first next()
    (lambda: next(enumerate_obci(0)), ValueError, "carrier size must be at least 1"),
    (lambda: next(enumerate_obci_naive(0)), ValueError, "carrier size must be at least 1"),
    (lambda: k_upper_sets(kernel(fx.MAPS["diamond-to-chain"]), Subset.full(ea),
                          fx.MAPS["diamond-to-chain"], fx.MAPS["exy-to-ea"]),
     UniverseMismatchError, "k_upper_sets: K2 is not over the second map's source"),
], ids=["del-subset-field", "del-structure-field", "no-labels", "short-op-row",
        "unknown-axiom", "cone-unit-out-of-range", "cone-table-not-square",
        "enumerate-size-0", "enumerate-naive-size-0", "k2-over-other-carrier"])
def test_input_guards_raise_their_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_subset_operations_and_universe_guard():
    s = Subset.from_labels(exy, ("e", "x"))
    t = Subset.from_labels(exy, ("x", "y"))
    assert s.mask | t.mask == 0b111
    assert Subset(exy, s.mask & t.mask).member_labels() == ("x",)
    assert Subset(exy, s.mask & ~t.mask).member_labels() == ("e",)
    assert Subset(exy, Subset.full(exy).mask & ~s.mask).member_labels() == ("y",)
    assert Subset.from_labels(exy, ("e",)).mask & ~s.mask == 0
    assert len(s) == 2 and 0 in s and 2 not in s
    # a subset over another carrier is refused where it is probed
    other = Subset.full(ea)
    with pytest.raises(UniverseMismatchError):
        is_subalgebra(exy, other)
    for mask in (8, -1):
        with pytest.raises(StructureError, match="out of range for carrier of size 3"):
            Subset(exy, mask)
    with pytest.raises(StructureError, match="element index 3 out of range"):
        Subset.from_indices(exy, (0, 3))
    with pytest.raises(StructureError, match="unknown element 'z'"):
        Subset.from_labels(exy, ("z",))


def test_subset_members_and_len_match_the_bits():
    nine = RawStructure("nine", tuple(f"t{i}" for i in range(9)),
                        ((0,) * 9,) * 9, 0, ((True,) * 9,) * 9)
    for mask in range(1 << 9):
        s = Subset(nine, mask)
        expected = tuple(i for i in range(9) if mask & (1 << i))
        assert s.members() == expected
        assert tuple(s) == expected
        assert len(s) == len(expected)
        assert Subset.from_indices(nine, expected) == s


@given(st.integers(min_value=0, max_value=(1 << 200) - 1))
def test_bits_are_the_set_positions_in_ascending_order(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


# `blank` is a stateless maker, so sharing it across examples is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=1, max_value=64), st.data())
def test_subset_members_are_the_naive_scan(blank, n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert Subset(blank(n), mask).members() == tuple(i for i in range(n) if mask >> i & 1)


# --- records and values -------------------------------------------------------

def _fresh_exy():
    return parse_algebra(fx.fixture_text("exy"))


def _fresh_map(name):
    m = fx.MAPS[name]
    return parse_map(fx.fixture_text(name), m.source, m.target)


# One maker per record type: each call builds an equal but distinct instance.
_RECORDS = {
    "CheckReport": lambda: check_axiom(mid3, "OBCI-1", witness_cap=2),
    "RawStructure": _fresh_exy,
    "Subset": lambda: Subset(_fresh_exy(), 0b101),
    "ValidatedAlgebra": lambda: validate(_fresh_exy()),
    "Mapping": lambda: _fresh_map("mid3-swap"),
    "MorphismClass": lambda: classify(_fresh_map("mid3-swap")),
    "ProductAlgebra": lambda: ProductAlgebra.of(_fresh_exy(), ea),
    "Counterexample": lambda: verify_all(("T-ordfilter-bijection",),
                                         sizes=(1, 2))[0].counterexamples[0],
    "SweepReport": lambda: verify_all(("T-ordfilter-bijection",), sizes=(1, 2))[0],
    "StatedClaim": lambda: fx.StatedClaim("exy", "kernel", frozenset({"e"})),
    "Finding": lambda: fx.audit()[0],
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_compare_hash_pickle_and_print_by_their_fields(name):
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    # --jobs sends reports from its workers through a pipe
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and hash(copy) == hash(a)
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
    assert repr(a) == f"{name}({fields})"
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], getattr(b, b._fields[0]))


# --- property tests ---------------------------------------------------------

@st.composite
def raw_structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    labels = tuple(f"t{i}" for i in range(n))
    op = tuple(
        tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n))
        for _ in range(n)
    )
    unit = draw(st.integers(min_value=0, max_value=n - 1))
    order = tuple(
        tuple(draw(st.booleans()) for _ in range(n)) for _ in range(n)
    )
    return RawStructure("gen", labels, op, unit, order)


@given(raw_structures())
def test_cone_generated_relations_satisfy_linking_axiom(s):
    # The guarantee needs the unit row to act as the identity (true for
    # every enumerator candidate); otherwise the regenerated relation can
    # shift its own cone.
    op = list(list(row) for row in s.op)
    op[s.unit] = list(range(s.n))
    order = order_from_cone(op, s.unit, s.cone_members())
    assert check_axiom(RawStructure(s.name, s.labels, op, s.unit, order), "OBCI-5").holds


@given(raw_structures(), st.randoms(use_true_random=False))
def test_axiom_verdicts_invariant_under_relabeling(s, rng):
    perm = list(range(s.n))
    rng.shuffle(perm)
    inv = [0] * s.n
    for i, v in enumerate(perm):
        inv[v] = i
    permuted = RawStructure(
        "perm",
        tuple(s.labels[perm[i]] for i in range(s.n)),
        tuple(tuple(inv[s.op[perm[i]][perm[j]]] for j in range(s.n))
              for i in range(s.n)),
        inv[s.unit],
        tuple(tuple(s.order[perm[i]][perm[j]] for j in range(s.n))
              for i in range(s.n)),
    )
    for axiom in AXIOM_IDS:
        assert check_axiom(s, axiom, witness_cap=1).holds == \
            check_axiom(permuted, axiom, witness_cap=1).holds


# --- the byte verdict: the axioms decided at every instantiation at once ------

def _decoded(s, axiom):
    """The instantiations `core._byte_violations` marks, in scan order."""
    mask = core._byte_violations(s, axiom)
    insts = list(itertools.product(range(s.n), repeat=AXIOMS[axiom].arity))
    return [t for i, t in enumerate(insts) if mask >> len(insts) - 1 - i & 1]


def _assert_bytes_are_the_scan(s):
    """Each axiom's byte verdict marks exactly the instantiations its
    predicate, scanned cell by cell, finds violated."""
    for axiom in AXIOM_IDS:
        assert _decoded(s, axiom) == list(core._violations(s, AXIOMS[axiom])), (s, axiom)


def _one_change_mutants(s):
    """`s` with one cell of `op` changed to another value, and with one bit
    of `order` flipped, each way once."""
    for x, y in itertools.product(range(s.n), repeat=2):
        for v in range(s.n):
            if v != s.op[x][y]:
                op = [list(row) for row in s.op]
                op[x][y] = v
                yield RawStructure(s.name, s.labels, op, s.unit, s.order)
        order = [list(row) for row in s.order]
        order[x][y] = not order[x][y]
        yield RawStructure(s.name, s.labels, s.op, s.unit, order)


def test_byte_verdict_is_the_scan_on_labelled_algebras_and_their_one_change_mutants():
    algebras = [a.structure for n in (1, 2, 3) for a in enumerate_obci(n)]
    assert len(algebras) == 13
    mutants = [m for s in algebras for m in _one_change_mutants(s)]
    # op: 8 at size 2 and 180 at size 3; order: 1 + 8 + 90
    assert len(mutants) == 188 + 99
    for s in algebras + mutants:
        _assert_bytes_are_the_scan(s)


def test_byte_verdict_is_the_scan_on_the_fixtures_and_small_products():
    for s in fx.ALGEBRAS.values():
        _assert_bytes_are_the_scan(s)
    classes = [a.structure for n in (1, 2) for a in enumerate_obci(n, up_to_iso=True)]
    for left in classes:
        for right in classes:
            product = product_structure(left, right)
            _assert_bytes_are_the_scan(product)
            assert all(r.holds for r in axiom_reports(product))


@st.composite
def _structures_up_to_six(draw):
    """A raw structure of 1 to 6 elements whose relation is either drawn
    freely or linked to a drawn cone through `order_from_cone`."""
    n = draw(st.integers(min_value=1, max_value=6))
    op = [[draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
          for _ in range(n)]
    unit = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        cone = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        order = order_from_cone(op, unit, cone)
    else:
        order = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    return RawStructure("drawn", tuple(f"t{i}" for i in range(n)), op, unit, order)


@given(_structures_up_to_six())
def test_byte_verdict_is_the_scan_on_drawn_structures(s):
    _assert_bytes_are_the_scan(s)


def test_a_negative_cap_is_refused_on_the_byte_path_too():
    assert check_axiom(exy, "OBCI-1").holds  # decided on bytes
    with pytest.raises(ValueError, match="witness cap"):
        check_axiom(exy, "OBCI-1", witness_cap=-1)


def test_carriers_past_sixteen_elements_keep_the_scanned_verdict(monkeypatch, blank):
    product = product_structure(blank(8), blank(8))
    assert product.n == 64 > core.BYTE_VERDICT_SIZE
    scanned = [CheckReport.collect(a, core._violations(product, AXIOMS[a]), 1)
               for a in AXIOM_IDS]

    def no_bytes(s, axiom):
        raise AssertionError("a 64-element carrier reached the byte verdict")

    monkeypatch.setattr(core, "_byte_violations", no_bytes)
    assert [check_axiom(product, a, witness_cap=1) for a in AXIOM_IDS] == scanned
    assert [r.holds for r in scanned] == [True, True, True, False, False, True]
