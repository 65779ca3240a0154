"""Finite ordered BCI-algebra structures and exhaustive axiom checking.

Elements are integer indices 0..n-1.  The binary operation is an n x n
index table (row = left argument), the order relation an n x n boolean
matrix.  A RawStructure promises only well-formedness; nothing about the
six defining axioms is assumed, so deliberately broken structures can be
probed.  `validate` checks all six axioms exhaustively and, on success,
wraps the structure as a ValidatedAlgebra together with its positive cone
{z : unit <= z}.  By the linking axiom (OBCI-5) the cone determines the
whole relation: i <= j iff op[i][j] lies in the cone.

Every check returns a CheckReport whose witnesses are the violating
instantiations in lexicographic order, exhaustive up to a caller-set cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator

DEFAULT_WITNESS_CAP = 32

AXIOM_IDS = ("OBCI-1", "OBCI-2", "OBCI-3", "OBCI-4", "OBCI-5", "OBCI-6")

IDENTITY_IDS = (
    "unit-identity",
    "exchange",
    "antitonicity",
    "cone-transitivity",
    "prefixing",
    "isotonicity",
)


class StructureError(ValueError):
    """A structure violates a well-formedness invariant."""


class UniverseMismatchError(ValueError):
    """Subsets or mappings were combined across different carriers."""


class PreconditionError(ValueError):
    """An operation was called on input failing its precondition."""

    def __init__(self, message: str, report: "CheckReport | None" = None):
        super().__init__(message)
        self.report = report


class BudgetError(RuntimeError):
    """A search space exceeds the configured budget."""


class ShapeError(ValueError):
    """A set that has to be a rectangle (left x right) is not one."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one law evaluated over all of its instantiations.

    `holds` is true exactly when no violating instance exists.  Witnesses
    are listed in lexicographic scan order; `truncated` marks a list cut
    off at the cap (the verdict itself is always exhaustive).
    """

    law: str
    holds: bool
    witnesses: tuple[tuple, ...] = ()
    truncated: bool = False

    @classmethod
    def collect(cls, law: str, violations: Iterable[tuple],
                cap: int | None = DEFAULT_WITNESS_CAP) -> "CheckReport":
        ws: list[tuple] = []
        truncated = False
        for w in violations:
            if cap is not None and len(ws) >= cap:
                truncated = True
                break
            ws.append(tuple(w))
        return cls(law, holds=not ws, witnesses=tuple(ws), truncated=truncated)

    def relabeled(self, law: str) -> "CheckReport":
        return replace(self, law=law)


@dataclass(frozen=True)
class RawStructure:
    """A finite candidate structure; no axiom is assumed to hold."""

    name: str
    labels: tuple[str, ...]
    op: tuple[tuple[int, ...], ...]
    unit: int
    order: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "op", tuple(tuple(row) for row in self.op))
        object.__setattr__(
            self, "order", tuple(tuple(bool(v) for v in row) for row in self.order)
        )
        n = len(self.labels)
        if n == 0:
            raise StructureError(f"{self.name}: carrier must be non-empty")
        if len(set(self.labels)) != n:
            raise StructureError(f"{self.name}: element labels must be pairwise distinct")
        if not isinstance(self.unit, int) or not 0 <= self.unit < n:
            raise StructureError(f"{self.name}: unit index {self.unit!r} out of range")
        if len(self.op) != n:
            raise StructureError(f"{self.name}: operation table needs {n} rows, got {len(self.op)}")
        for i, row in enumerate(self.op):
            if len(row) != n:
                raise StructureError(f"{self.name}: operation row {i} needs {n} entries, got {len(row)}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"{self.name}: bad table entry at ({i}, {j}): {v!r}")
        if len(self.order) != n or any(len(row) != n for row in self.order):
            raise StructureError(f"{self.name}: order matrix must be {n} x {n}")

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"{self.name}: unknown element {label!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return self.order[i][j]

    def cone_members(self) -> tuple[int, ...]:
        """Indices z with unit <= z under the stored relation."""
        row = self.order[self.unit]
        return tuple(z for z in range(self.n) if row[z])


@dataclass(frozen=True)
class Subset:
    """Subset of one structure's carrier, stored as a bitmask."""

    universe: RawStructure
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.universe.n):
            raise StructureError(
                f"subset mask {self.mask:#x} out of range for carrier of size {self.universe.n}"
            )

    @classmethod
    def from_indices(cls, universe: RawStructure, indices: Iterable[int]) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < universe.n:
                raise StructureError(f"element index {i} out of range")
            mask |= 1 << i
        return cls(universe, mask)

    @classmethod
    def from_labels(cls, universe: RawStructure, labels: Iterable[str]) -> "Subset":
        return cls.from_indices(universe, (universe.index(l) for l in labels))

    @classmethod
    def full(cls, universe: RawStructure) -> "Subset":
        return cls(universe, (1 << universe.n) - 1)

    @classmethod
    def empty(cls, universe: RawStructure) -> "Subset":
        return cls(universe, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe.n) if self.mask >> i & 1)

    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in self.members())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def _check_universe(self, other: "Subset") -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError(
                f"subsets live over different carriers "
                f"({self.universe.name!r} vs {other.universe.name!r})"
            )

    def union(self, other: "Subset") -> "Subset":
        self._check_universe(other)
        return Subset(self.universe, self.mask | other.mask)

    def intersection(self, other: "Subset") -> "Subset":
        self._check_universe(other)
        return Subset(self.universe, self.mask & other.mask)

    def difference(self, other: "Subset") -> "Subset":
        self._check_universe(other)
        return Subset(self.universe, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.universe, ((1 << self.universe.n) - 1) & ~self.mask)

    def issubset(self, other: "Subset") -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class ValidatedAlgebra:
    """A structure certified against all six axioms; construct via `validate`.

    The stored relation is then exactly the cone-generated one and is a
    partial order.
    """

    structure: RawStructure
    cone: Subset

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def name(self) -> str:
        return self.structure.name

    @property
    def unit(self) -> int:
        return self.structure.unit


# --- axiom evaluation ------------------------------------------------------
#
# Statements of the form "unit <= w" are looked up in the stored relation
# (row of the unit), never recomputed through the cone, so structures that
# break the linking axiom are probed exactly as written.

_AXIOM_ARITY = {
    "OBCI-1": 3,
    "OBCI-2": 2,
    "OBCI-3": 1,
    "OBCI-4": 2,
    "OBCI-5": 2,
    "OBCI-6": 2,
}


def axiom_violated_at(s: RawStructure, axiom: str, inst: tuple[int, ...]) -> bool:
    """Re-evaluate one axiom at a single instantiation (True = violated)."""
    op = s.op
    order = s.order
    cone = order[s.unit]
    if axiom == "OBCI-1":
        x, y, z = inst
        return not cone[op[op[x][y]][op[op[y][z]][op[x][z]]]]
    if axiom == "OBCI-2":
        x, y = inst
        return not cone[op[x][op[op[x][y]][y]]]
    if axiom == "OBCI-3":
        (x,) = inst
        return not cone[op[x][x]]
    if axiom == "OBCI-4":
        x, y = inst
        return cone[op[x][y]] and cone[op[y][x]] and x != y
    if axiom == "OBCI-5":
        x, y = inst
        return order[x][y] != cone[op[x][y]]
    if axiom == "OBCI-6":
        x, y = inst
        return cone[x] and order[x][y] and not cone[y]
    raise ValueError(f"unknown axiom id {axiom!r}")


def check_axiom(s: RawStructure, axiom: str, *,
                witness_cap: int | None = DEFAULT_WITNESS_CAP) -> CheckReport:
    """Exhaustively check one axiom; witnesses are the violating tuples."""
    if axiom not in _AXIOM_ARITY:
        raise ValueError(f"unknown axiom id {axiom!r}")
    insts = itertools.product(range(s.n), repeat=_AXIOM_ARITY[axiom])
    return CheckReport.collect(
        axiom, (t for t in insts if axiom_violated_at(s, axiom, t)), witness_cap
    )


def axiom_reports(s: RawStructure, *,
                  witness_cap: int | None = DEFAULT_WITNESS_CAP) -> list[CheckReport]:
    return [check_axiom(s, a, witness_cap=witness_cap) for a in AXIOM_IDS]


def validate(s: RawStructure, *,
             witness_cap: int | None = DEFAULT_WITNESS_CAP) -> "ValidatedAlgebra | CheckReport":
    """Return a ValidatedAlgebra, or the first failing axiom's report."""
    for axiom in AXIOM_IDS:
        report = check_axiom(s, axiom, witness_cap=witness_cap)
        if not report.holds:
            return report
    algebra = ValidatedAlgebra(s, Subset.from_indices(s, s.cone_members()))
    # OBCI-3/4 plus cone-transitivity make the relation a partial order;
    # anything else here is an implementation bug.
    if not all(r.holds for r in relation_reports(s)):
        raise RuntimeError("validated relation is not a partial order")
    return algebra


# --- derived identities ----------------------------------------------------

_IDENTITY_ARITY = {
    "unit-identity": 1,
    "exchange": 3,
    "antitonicity": 3,
    "cone-transitivity": 3,
    "prefixing": 3,
    "isotonicity": 3,
}


def identity_violated_at(s: RawStructure, ident: str, inst: tuple[int, ...]) -> bool:
    op = s.op
    cone = s.order[s.unit]
    if ident == "unit-identity":
        (x,) = inst
        return op[s.unit][x] != x
    if ident == "exchange":
        x, y, z = inst
        return op[z][op[y][x]] != op[y][op[z][x]]
    if ident == "antitonicity":
        x, y, z = inst
        return cone[op[x][y]] and not cone[op[op[y][z]][op[x][z]]]
    if ident == "cone-transitivity":
        x, y, z = inst
        return cone[op[x][y]] and cone[op[y][z]] and not cone[op[x][z]]
    if ident == "prefixing":
        x, y, z = inst
        return not cone[op[op[y][z]][op[op[x][y]][op[x][z]]]]
    if ident == "isotonicity":
        x, y, z = inst
        return cone[op[x][y]] and not cone[op[op[z][x]][op[z][y]]]
    raise ValueError(f"unknown identity id {ident!r}")


def derived_identity_reports(a: ValidatedAlgebra, *,
                             witness_cap: int | None = DEFAULT_WITNESS_CAP) -> list[CheckReport]:
    s = a.structure
    out = []
    for ident in IDENTITY_IDS:
        insts = itertools.product(range(s.n), repeat=_IDENTITY_ARITY[ident])
        out.append(CheckReport.collect(
            ident, (t for t in insts if identity_violated_at(s, ident, t)), witness_cap
        ))
    return out


def check_derived_identities(a: ValidatedAlgebra, *,
                             witness_cap: int | None = DEFAULT_WITNESS_CAP) -> CheckReport:
    """All six derived laws in one report; a failure means a validator bug.

    Witness tuples are prefixed with the violated identity's id.
    """
    merged: list[tuple] = []
    truncated = False
    for r in derived_identity_reports(a, witness_cap=witness_cap):
        truncated = truncated or r.truncated
        merged.extend((r.law, *w) for w in r.witnesses)
    return CheckReport("derived-identities", holds=not merged and not truncated,
                       witnesses=tuple(merged), truncated=truncated)


# --- the cone view of the relation -----------------------------------------

def order_from_cone(op, unit: int, cone) -> tuple[tuple[bool, ...], ...]:
    """The unique relation linked to a cone: i <= j iff op[i][j] is in it.

    `cone` may be a Subset or any iterable of element indices.  Used by the
    enumerator so candidate structures can never break the linking axiom.
    """
    n = len(op)
    if not 0 <= unit < n:
        raise StructureError(f"unit index {unit} out of range")
    members = frozenset(cone)
    for row in op:
        if len(row) != n:
            raise StructureError("operation table must be square")
    return tuple(tuple(op[i][j] in members for j in range(n)) for i in range(n))


def cone_generated(s: RawStructure) -> RawStructure:
    """Copy of `s` with its relation replaced by the cone-generated one."""
    order = order_from_cone(s.op, s.unit, s.cone_members())
    return replace(s, order=order)


def reflexive_transitive_closure(s: RawStructure) -> RawStructure:
    """Copy of `s` with the stored relation closed reflexively/transitively.

    Never applied implicitly: fixture relations are checked exactly as
    written unless a caller asks for the closure.
    """
    n = s.n
    m = [list(row) for row in s.order]
    for i in range(n):
        m[i][i] = True
    for k in range(n):
        for i in range(n):
            if m[i][k]:
                row_i, row_k = m[i], m[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return replace(s, order=tuple(tuple(row) for row in m))


def relation_reports(s: RawStructure, *,
                     witness_cap: int | None = DEFAULT_WITNESS_CAP) -> list[CheckReport]:
    """Reflexivity, antisymmetry, transitivity of the stored relation."""
    n = s.n
    order = s.order
    refl = ((i,) for i in range(n) if not order[i][i])
    anti = ((i, j) for i in range(n) for j in range(n)
            if i != j and order[i][j] and order[j][i])
    trans = ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
             if order[i][j] and order[j][k] and not order[i][k])
    return [
        CheckReport.collect("order-reflexive", refl, witness_cap),
        CheckReport.collect("order-antisymmetric", anti, witness_cap),
        CheckReport.collect("order-transitive", trans, witness_cap),
    ]
