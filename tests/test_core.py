import itertools

import pytest
from hypothesis import given, strategies as st

from obci import (
    AXIOM_IDS,
    CheckReport,
    RawStructure,
    StructureError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    axiom_reports,
    check_axiom,
    check_derived_identities,
    derived_identity_reports,
    order_from_cone,
    reflexive_transitive_closure,
    relation_reports,
    validate,
)
from obci.core import axiom_violated_at, cone_generated
from obci import fixtures as fx

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
    from obci.core import _AXIOM_ARITY

    for axiom in AXIOM_IDS:
        r = check_axiom(mid3, axiom, witness_cap=None)
        for w in r.witnesses:
            assert axiom_violated_at(mid3, axiom, w)
        everything = [
            t for t in itertools.product(range(mid3.n), repeat=_AXIOM_ARITY[axiom])
            if axiom_violated_at(mid3, axiom, t)
        ]
        assert list(r.witnesses) == everything


def test_witness_cap_truncates():
    r = check_axiom(mid3, "OBCI-1", witness_cap=2)
    assert not r.holds
    assert r.truncated
    assert len(r.witnesses) == 2
    assert not check_axiom(exy, "OBCI-1", witness_cap=2).truncated


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


def test_subset_operations_and_universe_guard():
    s = Subset.from_labels(exy, ("e", "x"))
    t = Subset.from_labels(exy, ("x", "y"))
    assert s.union(t).mask == 0b111
    assert s.intersection(t).member_labels() == ("x",)
    assert s.difference(t).member_labels() == ("e",)
    assert s.complement().member_labels() == ("y",)
    assert Subset.from_labels(exy, ("e",)).issubset(s)
    assert len(s) == 2 and 0 in s and 2 not in s
    other = Subset.full(ea)
    with pytest.raises(UniverseMismatchError):
        s.union(other)


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
    fixed = RawStructure(s.name, s.labels, tuple(map(tuple, op)), s.unit, s.order)
    assert check_axiom(cone_generated(fixed), "OBCI-5").holds


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
