"""Subset predicates: subalgebras, filters, ordered variants, closedness.

Two laws, `_closure` and `_detachment`, decide the four kinds: the plain
kind reads the set where the ordered kind reads the positive cone.

All predicates accept a RawStructure so that deliberately inconsistent
fixtures can be probed; "unit <= w" is always the stored relation's unit
row.  Witness conventions: closure failures are (x, y) pairs, cone-
condition failures are (x,) singletons, and a filter missing its unit
reports the marker witness ("missing-unit",).  `enumerate_substructures`
asks each kind's check for its verdict alone (a cap of 0); a set failing a
closed kind's precondition fails.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import partial
from typing import NamedTuple

from .core import (
    BudgetError,
    CheckReport,
    PreconditionError,
    RawStructure,
    Subset,
    UniverseMismatchError,
)

MISSING_UNIT = "missing-unit"

DEFAULT_ENUMERATION_BUDGET = 16


class SubstructureKind(Enum):
    SUBALGEBRA = "subalgebra"
    ORDERED_SUBALGEBRA = "ordered-subalgebra"
    FILTER = "filter"
    ORDERED_FILTER = "ordered-filter"
    CLOSED_FILTER = "closed-filter"
    CLOSED_ORDERED_FILTER = "closed-ordered-filter"


def _check_universe(a: RawStructure, s: Subset) -> None:
    if s.universe != a:
        raise UniverseMismatchError(
            f"subset over {s.universe.name!r} probed against {a.name!r}"
        )


def _closure(a: RawStructure, s: Subset, ordered: bool):
    """(x, y) for members x, y of s (in the cone if `ordered`), x->y not in s."""
    _check_universe(a, s)
    op, cone = a.op, a.order[a.unit]
    ms = [x for x in s.members() if cone[x]] if ordered else s.members()
    return ((x, y) for x in ms for y in ms if op[x][y] not in s)


def _detachment(a: RawStructure, s: Subset, ordered: bool):
    """The missing-unit marker, then (x, y) for x in s, y not in s, x->y in s
    (in the cone if `ordered`)."""
    _check_universe(a, s)
    op, cone = a.op, a.order[a.unit]
    detached = ((x, y) for x in s.members() for y in range(a.n)
                if y not in s and (cone[op[x][y]] if ordered else op[x][y] in s))
    return detached if a.unit in s else itertools.chain([(MISSING_UNIT,)], detached)


def is_subalgebra(a: RawStructure, s: Subset, *,
                  witness_cap: int | None = None) -> CheckReport:
    """Closure under the operation: x, y in s implies x->y in s."""
    return CheckReport.collect("subalgebra", _closure(a, s, False), witness_cap)


def is_ordered_subalgebra(a: RawStructure, s: Subset, *,
                          witness_cap: int | None = None) -> CheckReport:
    """Closure under the operation for cone members of s only."""
    return CheckReport.collect("ordered-subalgebra", _closure(a, s, True), witness_cap)


def is_filter(a: RawStructure, s: Subset, *,
              witness_cap: int | None = None) -> CheckReport:
    """Contains the unit and is closed under detachment (x->y, x |- y)."""
    return CheckReport.collect("filter", _detachment(a, s, False), witness_cap)


def is_ordered_filter(a: RawStructure, s: Subset, *,
                      witness_cap: int | None = None) -> CheckReport:
    """Contains the unit and is closed under order detachment."""
    return CheckReport.collect("ordered-filter", _detachment(a, s, True), witness_cap)


def satisfies_cone_condition(a: RawStructure, s: Subset) -> CheckReport:
    """Every member sits above the unit."""
    _check_universe(a, s)
    cone = a.order[a.unit]
    viol = ((x,) for x in s.members() if not cone[x])
    return CheckReport.collect("cone-condition", viol)


# kind -> (its filter check, the closure check, the law, the precondition's noun)
_CLOSED = {
    SubstructureKind.FILTER: (is_filter, is_subalgebra, "closed-filter", "a filter"),
    SubstructureKind.ORDERED_FILTER: (is_ordered_filter, is_ordered_subalgebra,
                                      "closed-ordered-filter", "an ordered filter"),
}


def is_closed(a: RawStructure, s: Subset, kind: SubstructureKind, *,
              witness_cap: int | None = None) -> CheckReport:
    """Closedness of a filter (= also a subalgebra) or an ordered filter
    (= also an ordered subalgebra).

    Raises PreconditionError when s is not a filter of the requested kind.
    """
    if kind not in _CLOSED:
        raise ValueError(f"is_closed expects FILTER or ORDERED_FILTER, got {kind}")
    is_kind, closure, law, noun = _CLOSED[kind]
    pre = is_kind(a, s, witness_cap=witness_cap)
    if not pre.holds:
        raise PreconditionError(f"{s.member_labels()} is not {noun} of {a.name!r}", pre)
    return closure(a, s, witness_cap=witness_cap)._replace(law=law)


CHECKS = {
    SubstructureKind.SUBALGEBRA: is_subalgebra,
    SubstructureKind.ORDERED_SUBALGEBRA: is_ordered_subalgebra,
    SubstructureKind.FILTER: is_filter,
    SubstructureKind.ORDERED_FILTER: is_ordered_filter,
    SubstructureKind.CLOSED_FILTER: partial(is_closed, kind=SubstructureKind.FILTER),
    SubstructureKind.CLOSED_ORDERED_FILTER: partial(
        is_closed, kind=SubstructureKind.ORDERED_FILTER),
}
"""The check deciding each kind, called as check(a, s) for every witness,
check(a, s, witness_cap=N) for at most N, or with N = 0 for the verdict
alone.  The closed kinds raise PreconditionError on a set that is no filter."""


class Atlas(NamedTuple):
    """One algebra's subset predicates, each decided once on every subset.

    Each field is a bitset over the subset masks: bit `mask` is set iff
    the predicate holds on Subset(a, mask).
    """

    filter: int
    ordered_filter: int
    subalgebra: int
    ordered_subalgebra: int
    cone: int

    @classmethod
    def of(cls, a: RawStructure) -> "Atlas":
        subsets = [Subset(a, mask) for mask in range(1 << a.n)]

        def decided(predicate, **cap) -> int:
            return sum(1 << s.mask for s in subsets if predicate(a, s, **cap).holds)

        # the verdict alone (a cap of 0): a kind check stops at its first violation
        return cls(decided(is_filter, witness_cap=0),
                   decided(is_ordered_filter, witness_cap=0),
                   decided(is_subalgebra, witness_cap=0),
                   decided(is_ordered_subalgebra, witness_cap=0),
                   decided(satisfies_cone_condition))

    def bits(self, kind: SubstructureKind) -> int:
        """The bitset of a kind that is a single predicate (not a closed kind)."""
        return self[_ATLAS_FIELD[kind]]


_ATLAS_FIELD = {SubstructureKind.FILTER: 0, SubstructureKind.ORDERED_FILTER: 1,
                SubstructureKind.SUBALGEBRA: 2, SubstructureKind.ORDERED_SUBALGEBRA: 3}


def enumerate_substructures(a: RawStructure, kind: SubstructureKind) -> list[Subset]:
    """All subsets satisfying the kind's predicate, ascending by bitmask."""
    if a.n > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetError(
            f"carrier size {a.n} exceeds the enumeration budget of "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )
    check = CHECKS[kind]
    out = []
    for mask in range(1 << a.n):
        s = Subset(a, mask)
        try:
            if check(a, s, witness_cap=0).holds:
                out.append(s)
        except PreconditionError:
            pass
    return out
