import pytest

from obci import (
    PreconditionError,
    RawStructure,
    Subset,
    SubstructureKind,
    UniverseMismatchError,
    enumerate_substructures,
    is_closed,
    is_filter,
    is_ordered_filter,
    is_ordered_subalgebra,
    is_subalgebra,
    satisfies_cone_condition,
)
from obci.core import BudgetError, CheckReport
from obci.harness import enumerate_obci
from obci.substructures import CHECKS, MISSING_UNIT, Atlas
from obci import fixtures as fx

exy = fx.ALGEBRAS["exy"]
ea = fx.ALGEBRAS["ea"]
mid3 = fx.ALGEBRAS["mid3"]
chain4 = fx.ALGEBRAS["chain4"]


def sub(s, *labels):
    return Subset.from_labels(s, labels)


def test_mid3_top_pair_is_not_a_subalgebra():
    # 1 -> 1/2 = 0 escapes {1, 1/2}
    r = is_subalgebra(mid3, sub(mid3, "1", "1/2"))
    assert not r.holds
    assert (0, 1) in r.witnesses


def test_full_carrier_is_always_a_subalgebra():
    for s in (exy, ea, mid3, chain4):
        assert is_subalgebra(s, Subset.full(s)).holds


def test_both_candidate_kernels_of_mid3_identity_fail_subalgebra():
    # the stated kernel {1, 1/2} and the computed kernel {1/2, 0} are
    # probed separately, each with its own witnesses
    stated = is_subalgebra(mid3, sub(mid3, "1", "1/2"))
    assert not stated.holds and (0, 1) in stated.witnesses
    computed = is_subalgebra(mid3, sub(mid3, "1/2", "0"))
    assert not computed.holds and (2, 1) in computed.witnesses


def test_unit_singleton_is_subalgebra_of_exy():
    assert is_subalgebra(exy, sub(exy, "e")).holds


def test_empty_set_is_subalgebra_but_not_filter():
    empty = Subset.empty(exy)
    assert is_subalgebra(exy, empty).holds
    r = is_filter(exy, empty)
    assert not r.holds
    assert (MISSING_UNIT,) in r.witnesses


def test_ordered_subalgebra_guards():
    # only pairs above the unit are constrained; in exy the cone is {e}
    assert is_ordered_subalgebra(exy, sub(exy, "e", "y")).holds
    # in mid3 the stored cone is {1/2, 0}, so the only guarded pair in
    # {1, 1/2} is (1/2, 1/2), which stays inside
    assert is_ordered_subalgebra(mid3, sub(mid3, "1", "1/2")).holds


def test_filter_examples_on_exy():
    assert is_filter(exy, sub(exy, "e")).holds
    r = is_filter(exy, sub(exy, "x", "y"))
    assert not r.holds and (MISSING_UNIT,) in r.witnesses
    assert is_filter(exy, sub(exy, "e", "x")).holds
    # {e, y} fails detachment: y->x = y is in the set, y is in the set,
    # but x is not
    r = is_filter(exy, sub(exy, "e", "y"))
    assert not r.holds and (2, 1) in r.witnesses


def test_ordered_filter_examples_on_exy():
    assert is_ordered_filter(exy, sub(exy, "e", "y")).holds
    r = is_ordered_filter(exy, sub(exy, "x"))
    assert not r.holds and (MISSING_UNIT,) in r.witnesses
    assert is_ordered_filter(exy, Subset.full(exy)).holds


def test_cone_condition():
    assert satisfies_cone_condition(exy, sub(exy, "e")).holds
    r = satisfies_cone_condition(exy, sub(exy, "e", "x"))
    assert not r.holds and r.witnesses == ((1,),)
    assert satisfies_cone_condition(chain4, sub(chain4, "2/3", "1")).holds


def test_closedness():
    assert is_closed(exy, sub(exy, "e"), SubstructureKind.FILTER).holds
    assert is_closed(exy, Subset.full(exy), SubstructureKind.FILTER).holds
    assert is_closed(exy, sub(exy, "e", "x"), SubstructureKind.FILTER).holds
    assert is_closed(
        exy, sub(exy, "e"), SubstructureKind.ORDERED_FILTER).holds


def test_closedness_requires_a_filter():
    with pytest.raises(PreconditionError) as exc:
        is_closed(exy, sub(exy, "x", "y"), SubstructureKind.FILTER)
    assert exc.value.report is not None
    assert (MISSING_UNIT,) in exc.value.report.witnesses
    with pytest.raises(ValueError):
        is_closed(exy, sub(exy, "e"), SubstructureKind.SUBALGEBRA)


def test_enumerate_ordered_filters_of_exy():
    found = enumerate_substructures(exy, SubstructureKind.ORDERED_FILTER)
    assert [s.member_labels() for s in found] == [
        ("e",), ("e", "x"), ("e", "y"), ("e", "x", "y"),
    ]


def test_enumerate_filters_of_exy():
    found = enumerate_substructures(exy, SubstructureKind.FILTER)
    assert [s.mask for s in found] == [0b001, 0b011, 0b111]


def test_enumerate_filters_of_point(point):
    found = enumerate_substructures(point, SubstructureKind.FILTER)
    assert [s.member_labels() for s in found] == [("e",)]


def _uncapped_verdict(s, subset, kind) -> bool:
    """The kind's check listing every witness; a failed precondition fails."""
    try:
        return CHECKS[kind](s, subset).holds
    except PreconditionError:
        return False


def test_enumeration_matches_predicates_everywhere():
    for s in (exy, ea, mid3):
        for kind in SubstructureKind:
            expected = [m for m in range(1 << s.n)
                        if _uncapped_verdict(s, Subset(s, m), kind)]
            assert [t.mask for t in enumerate_substructures(s, kind)] == expected


def test_atlas_decides_each_predicate_on_every_subset():
    structures = [a.structure for n in (1, 2, 3) for a in enumerate_obci(n)]
    structures += fx.ALGEBRAS.values()  # the invalid fixtures too
    predicates = {"filter": is_filter, "ordered_filter": is_ordered_filter,
                  "subalgebra": is_subalgebra,
                  "ordered_subalgebra": is_ordered_subalgebra,
                  "cone": satisfies_cone_condition}
    assert set(predicates) == set(Atlas._fields)
    for s in structures:
        atlas = Atlas.of(s)
        for field, predicate in predicates.items():
            bits = getattr(atlas, field)
            assert bits >> (1 << s.n) == 0
            for m in range(1 << s.n):
                assert bool(bits >> m & 1) == predicate(s, Subset(s, m)).holds
        for kind in (SubstructureKind.FILTER, SubstructureKind.ORDERED_FILTER,
                     SubstructureKind.SUBALGEBRA,
                     SubstructureKind.ORDERED_SUBALGEBRA):
            assert atlas.bits(kind) == getattr(atlas, kind.name.lower())


def test_enumeration_budget():
    n = 17
    big = RawStructure(
        "big", tuple(f"t{i}" for i in range(n)),
        tuple(tuple(0 for _ in range(n)) for _ in range(n)),
        0,
        tuple(tuple(i == j for j in range(n)) for i in range(n)),
    )
    with pytest.raises(BudgetError):
        enumerate_substructures(big, SubstructureKind.SUBALGEBRA)


def test_universe_mismatch_rejected():
    with pytest.raises(UniverseMismatchError):
        is_filter(exy, Subset.full(ea))


# --- each predicate is its law, stated literally --------------------------

def _literal_violations(kind, a, s):
    """The violations of a kind's law, stated over the whole carrier in
    (x, y) order: the closure law reads x->y, the detachment law reads y,
    and each ordered kind reads the positive cone (e <= w) where the plain
    one reads the set."""
    cells = [(x, y) for x in range(a.n) for y in range(a.n)]
    above = a.order[a.unit]
    if kind is SubstructureKind.SUBALGEBRA:
        return [(x, y) for x, y in cells if x in s and y in s and a.op[x][y] not in s]
    if kind is SubstructureKind.ORDERED_SUBALGEBRA:
        return [(x, y) for x, y in cells
                if x in s and y in s and above[x] and above[y] and a.op[x][y] not in s]
    detaches = above.__getitem__ if kind is SubstructureKind.ORDERED_FILTER else s.__contains__
    missing = [] if a.unit in s else [(MISSING_UNIT,)]
    return missing + [(x, y) for x, y in cells
                      if x in s and detaches(a.op[x][y]) and y not in s]


_LAWS = {SubstructureKind.SUBALGEBRA: "subalgebra",
         SubstructureKind.ORDERED_SUBALGEBRA: "ordered-subalgebra",
         SubstructureKind.FILTER: "filter", SubstructureKind.ORDERED_FILTER: "ordered-filter"}

# filter kind -> the closure kind `is_closed` asks of it
_CLOSURE_OF = {SubstructureKind.FILTER: SubstructureKind.SUBALGEBRA,
               SubstructureKind.ORDERED_FILTER: SubstructureKind.ORDERED_SUBALGEBRA}


def _report(law, violations):
    return CheckReport(law, not violations, tuple(violations), False)


def _every_subset():
    """Every subset of the labelled algebras of sizes 1-4 and of the
    fixtures.  Size 4 is where a closure or ordered-closure check first
    meets a subset whose witness order an (x, y) to (y, x) loop swap
    changes."""
    structures = [a.structure for n in (1, 2, 3, 4) for a in enumerate_obci(n)]
    structures += fx.ALGEBRAS.values()
    return [(a, Subset(a, mask)) for a in structures for mask in range(1 << a.n)]


def test_each_predicate_lists_the_witnesses_of_its_literal_law_in_order():
    subsets = _every_subset()
    # the 1, 2, 10 and 167 labelled algebras of sizes 1-4, then exy, ea,
    # mid3, diamond and chain4
    assert len(subsets) == 1 * 2 + 2 * 4 + 10 * 8 + 167 * 16 + 8 + 4 + 8 + 16 + 16
    failing = dict.fromkeys(_LAWS, 0)
    for a, s in subsets:
        for kind, law in _LAWS.items():
            literal = _literal_violations(kind, a, s)
            assert CHECKS[kind](a, s) == _report(law, literal), (a.name, s.mask, kind)
            failing[kind] += bool(literal)
    # every law fails somewhere, so each order is pinned on real witnesses
    assert all(failing.values()), failing


def test_is_closed_is_its_literal_two_step_definition():
    raised = 0
    for a, s in _every_subset():
        for kind, closure_kind in _CLOSURE_OF.items():
            pre = _report(_LAWS[kind], _literal_violations(kind, a, s))
            if not pre.holds:
                with pytest.raises(PreconditionError) as info:
                    is_closed(a, s, kind)
                assert info.value.report == pre
                raised += 1
                continue
            closed = _literal_violations(closure_kind, a, s)
            assert is_closed(a, s, kind) == _report(f"closed-{kind.value}", closed)
    assert raised
