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
from obci.core import BudgetError
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
