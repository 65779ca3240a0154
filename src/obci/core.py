"""Finite ordered BCI-algebra structures and exhaustive axiom checking.

Elements are integer indices 0..n-1.  The binary operation is an n x n
index table (row = left argument), the order relation an n x n boolean
matrix.  A RawStructure promises only well-formedness; nothing about the
six defining axioms is assumed, so deliberately broken structures can be
probed.  `validate` checks all six axioms exhaustively and, on success,
`certified` wraps the structure as a ValidatedAlgebra together with its
positive cone {z : unit <= z}.  By the linking axiom (OBCI-5) the cone
determines the whole relation: i <= j iff op[i][j] lies in the cone.

The laws are data: AXIOMS, IDENTITIES and ORDER_LAWS map each law id to
its arity and a predicate that is true where the law is violated, and one
generator runs a law over all instantiations in itertools.product order.
Every check returns a CheckReport whose witnesses are the violating
instantiations in that (lexicographic) order, all of them unless the
caller passes a cap; `CheckReport.collect` is the one place a cap is
applied, and only the checks the CLI prints take one.  `check_axiom`
first decides its axiom at every instantiation at once on byte tables
(`_BYTE_AXIOMS`, carriers of at most 16 elements) and runs the generator
only to list the witnesses of a failing axiom.

Plain records are NamedTuples.  The three types that validate their
input (RawStructure, Subset and morphisms.Mapping) are `_Value` classes:
compared, hashed, printed and pickled by their fields, which their
constructors set once.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple


class StructureError(ValueError):
    """A structure violates a well-formedness invariant."""


class UniverseMismatchError(ValueError):
    """Subsets or mappings were combined across different carriers."""


class PreconditionError(ValueError):
    """An operation was called on input failing its precondition."""

    def __init__(self, message: str, report: "CheckReport"):
        super().__init__(message)
        self.report = report


class BudgetError(RuntimeError):
    """A search space exceeds the configured budget."""


class ShapeError(ValueError):
    """A set that has to be a rectangle (left x right) is not one."""


_set = object.__setattr__


class CheckReport(NamedTuple):
    """Outcome of one law evaluated over all of its instantiations.

    `holds` is true exactly when no violating instance exists.  Witnesses
    are listed in lexicographic scan order; `truncated` marks a list cut
    off at the cap (the verdict itself is always exhaustive, so a law
    violated under a cap of 0 reads as failing, truncated, with no
    witnesses).
    """

    law: str
    holds: bool
    witnesses: tuple[tuple, ...] = ()
    truncated: bool = False

    @classmethod
    def collect(cls, law: str, violations: Iterable[tuple],
                cap: int | None = None) -> "CheckReport":
        """The report of a law from its violations, listing at most `cap`
        (every one for None).

        The only place a witness cap is applied; a negative cap is refused.
        """
        if cap is not None and cap < 0:
            raise ValueError(f"witness cap must be at least 0, got {cap}")
        it = iter(violations)
        ws = tuple(itertools.islice(it, cap))
        truncated = len(ws) == cap and next(it, None) is not None
        return cls(law, not ws and not truncated, ws, truncated)

    @classmethod
    def merged(cls, law: str, reports: Iterable["CheckReport"]) -> "CheckReport":
        """One report for several laws; each witness is prefixed with its law."""
        reports = tuple(reports)
        return cls(law, holds=all(r.holds for r in reports),
                   witnesses=tuple((r.law, *w) for r in reports for w in r.witnesses),
                   truncated=any(r.truncated for r in reports))


class _Value:
    """A value whose constructor validates its fields, named in `_fields`,
    and sets them once, past `__setattr__`, which refuses any later
    assignment; instances compare, hash and print by those fields, and
    pickle as a constructor call."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RawStructure(_Value):
    """A finite candidate structure; no axiom is assumed to hold.

    `n` is the carrier size; the byte views below are cached on first use.
    """

    _fields = ("name", "labels", "op", "unit", "order")

    def __init__(self, name: str, labels: Iterable[str], op, unit: int, order):
        labels = tuple(labels)
        op = tuple(tuple(row) for row in op)
        order = tuple(tuple(map(bool, row)) for row in order)
        n = len(labels)
        if n == 0:
            raise StructureError(f"{name}: carrier must be non-empty")
        if len(set(labels)) != n:
            raise StructureError(f"{name}: element labels must be pairwise distinct")
        if not isinstance(unit, int) or not 0 <= unit < n:
            raise StructureError(f"{name}: unit index {unit!r} out of range")
        if len(op) != n:
            raise StructureError(f"{name}: operation table needs {n} rows, got {len(op)}")
        for i, row in enumerate(op):
            if len(row) != n:
                raise StructureError(f"{name}: operation row {i} needs {n} entries, got {len(row)}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"{name}: bad table entry at ({i}, {j}): {v!r}")
        if len(order) != n or any(len(row) != n for row in order):
            raise StructureError(f"{name}: order matrix must be {n} x {n}")
        self.__dict__.update(name=name, labels=labels, op=op, unit=unit, order=order, n=n)

    # The byte views below hold element indices as bytes, so they are
    # built only for carriers of at most 256 elements.

    @cached_property
    def op_bytes(self) -> bytes:
        """`op` in row-major order, one byte per entry."""
        return bytes(itertools.chain.from_iterable(self.op))

    @cached_property
    def row_tables(self) -> tuple[bytes, ...]:
        """Per row x, the `bytes.translate` table sending y to op[x][y]."""
        pad = bytes(256 - self.n)
        return tuple(bytes(row) + pad for row in self.op)

    @cached_property
    def cone_digits(self) -> bytes:
        """The `bytes.translate` table sending v to b"1" if unit <= v under
        the stored relation, and to b"0" otherwise."""
        return bytes(b"01"[c] for c in self.order[self.unit]).ljust(256, b"0")

    @cached_property
    def cone_values_mask(self) -> int:
        """Bitmask of the values of `op` that lie in the stored cone."""
        cone = self.order[self.unit]
        mask = 0
        for row in self.op:
            for v in row:
                if cone[v]:
                    mask |= 1 << v
        return mask

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"{self.name}: unknown element {label!r}") from None

    def cone_members(self) -> tuple[int, ...]:
        """Indices z with unit <= z under the stored relation."""
        row = self.order[self.unit]
        return tuple(z for z in range(self.n) if row[z])


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, ascending; the one loop
    over a mask's members."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Subset(_Value):
    """Subset of one structure's carrier, stored as a bitmask."""

    __slots__ = ("universe", "mask")
    _fields = __slots__

    def __init__(self, universe: RawStructure, mask: int):
        if not 0 <= mask < (1 << universe.n):
            raise StructureError(
                f"subset mask {mask:#x} out of range for carrier of size {universe.n}"
            )
        _set(self, "universe", universe)
        _set(self, "mask", mask)

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
        return tuple(bits(self.mask))

    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in self.members())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()


class ValidatedAlgebra(NamedTuple):
    """A structure certified against all six axioms; made only by `certified`.

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


# --- laws as data ------------------------------------------------------------
#
# A law is its arity and a predicate that is true where the law is violated.
# The predicate reads the operation table, the stored relation, the stored
# cone (the unit's row of the relation) and the unit, then one
# instantiation.  Statements of the form "unit <= w" are looked up in the
# stored relation, never recomputed through the cone, so structures that
# break the linking axiom are probed exactly as written.


class Law(NamedTuple):
    arity: int
    violated: Callable[..., bool]


AXIOMS: dict[str, Law] = {
    "OBCI-1": Law(3, lambda op, order, cone, e, x, y, z:
                  not cone[op[op[x][y]][op[op[y][z]][op[x][z]]]]),
    "OBCI-2": Law(2, lambda op, order, cone, e, x, y: not cone[op[x][op[op[x][y]][y]]]),
    "OBCI-3": Law(1, lambda op, order, cone, e, x: not cone[op[x][x]]),
    "OBCI-4": Law(2, lambda op, order, cone, e, x, y:
                  cone[op[x][y]] and cone[op[y][x]] and x != y),
    "OBCI-5": Law(2, lambda op, order, cone, e, x, y: order[x][y] != cone[op[x][y]]),
    "OBCI-6": Law(2, lambda op, order, cone, e, x, y:
                  cone[x] and order[x][y] and not cone[y]),
}

IDENTITIES: dict[str, Law] = {
    "unit-identity": Law(1, lambda op, order, cone, e, x: op[e][x] != x),
    "exchange": Law(3, lambda op, order, cone, e, x, y, z:
                    op[z][op[y][x]] != op[y][op[z][x]]),
    "antitonicity": Law(3, lambda op, order, cone, e, x, y, z:
                        cone[op[x][y]] and not cone[op[op[y][z]][op[x][z]]]),
    "cone-transitivity": Law(3, lambda op, order, cone, e, x, y, z:
                             cone[op[x][y]] and cone[op[y][z]] and not cone[op[x][z]]),
    "prefixing": Law(3, lambda op, order, cone, e, x, y, z:
                     not cone[op[op[y][z]][op[op[x][y]][op[x][z]]]]),
    "isotonicity": Law(3, lambda op, order, cone, e, x, y, z:
                       cone[op[x][y]] and not cone[op[op[z][x]][op[z][y]]]),
}

ORDER_LAWS: dict[str, Law] = {
    "order-reflexive": Law(1, lambda op, order, cone, e, x: not order[x][x]),
    "order-antisymmetric": Law(2, lambda op, order, cone, e, x, y:
                               x != y and order[x][y] and order[y][x]),
    "order-transitive": Law(3, lambda op, order, cone, e, x, y, z:
                            order[x][y] and order[y][z] and not order[x][z]),
}

AXIOM_IDS = tuple(AXIOMS)

IDENTITY_IDS = tuple(IDENTITIES)


def _bound(s: RawStructure, law: Law) -> Callable[..., bool]:
    """The law's predicate with the structure's tables filled in."""
    return partial(law.violated, s.op, s.order, s.order[s.unit], s.unit)


def _violations(s: RawStructure, law: Law) -> Iterator[tuple[int, ...]]:
    """The instantiations violating `law`, in itertools.product order."""
    insts = partial(itertools.product, range(s.n), repeat=law.arity)
    return itertools.compress(insts(), itertools.starmap(_bound(s, law), insts()))


def _law_reports(s: RawStructure, laws: dict[str, Law]) -> list[CheckReport]:
    return [CheckReport.collect(name, _violations(s, law)) for name, law in laws.items()]


# --- the axioms on byte tables -------------------------------------------------
#
# On a carrier of at most BYTE_VERDICT_SIZE elements every index a*n+b of
# the row-major table fits in one byte, so a term is evaluated at every
# instantiation at once.  A variable is the byte string of its values in
# itertools.product order (`_grid`); op[a][b] gathers `op_bytes` at the
# indices a*n+b, formed by one `bytes.translate` (a to a*n) and one big-int
# addition of b, which adds byte by byte since no sum reaches 256; a cone
# test reads the gathered bytes through `cone_digits` as one binary
# number.  `_BYTE_AXIOMS` restates each law of AXIOMS as the bitmask of its
# violating instantiations, the first instantiation the most significant
# bit; tests and a CI step check the two statements against each other.

BYTE_VERDICT_SIZE = 16

_FLIP = bytes.maketrans(b"01", b"10")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


@cache
def _grid(n: int, arity: int) -> tuple[bytes, ...]:
    """Per variable, its value at every instantiation of `arity` variables
    over n elements, in itertools.product order."""
    return tuple(map(bytes, zip(*itertools.product(range(n), repeat=arity))))


@cache
def _times(n: int) -> bytes:
    """The `bytes.translate` table sending a < n to a*n."""
    return bytes(range(0, n * n, n)).ljust(256, b"\0")


@cache
def _distinct(n: int) -> int:
    """The pairs (x, y) over n elements with x != y, as a bitmask."""
    x, y = _grid(n, 2)
    return int(bytes(b"01"[a != b] for a, b in zip(x, y)), 2)


class _Terms:
    """The terms of one structure, each at every instantiation at once."""

    def __init__(self, s: RawStructure):
        self.s = s
        self.table = s.op_bytes.ljust(256, b"\0")
        self.times = _times(s.n)

    def op(self, a: bytes, b: bytes) -> bytes:
        """op[a][b]."""
        index = int.from_bytes(a.translate(self.times), "big") + int.from_bytes(b, "big")
        return index.to_bytes(len(a), "big").translate(self.table)

    def cone(self, v: bytes) -> int:
        """Where v lies in the stored cone."""
        return int(v.translate(self.s.cone_digits), 2)

    def out(self, v: bytes) -> int:
        """Where v lies outside the stored cone."""
        return int(v.translate(self.s.cone_digits).translate(_FLIP), 2)

    @property
    def order(self) -> int:
        """Where x <= y in the stored relation, over the pairs (x, y)."""
        return int(bytes(itertools.chain.from_iterable(self.s.order)).translate(_DIGITS), 2)

    @property
    def distinct(self) -> int:
        """Where x != y, over the pairs (x, y)."""
        return _distinct(self.s.n)


_BYTE_AXIOMS: dict[str, Callable[..., int]] = {
    "OBCI-1": lambda t, x, y, z: t.out(t.op(t.op(x, y), t.op(t.op(y, z), t.op(x, z)))),
    "OBCI-2": lambda t, x, y: t.out(t.op(x, t.op(t.op(x, y), y))),
    "OBCI-3": lambda t, x: t.out(t.op(x, x)),
    "OBCI-4": lambda t, x, y: t.cone(t.op(x, y)) & t.cone(t.op(y, x)) & t.distinct,
    "OBCI-5": lambda t, x, y: t.order ^ t.cone(t.op(x, y)),
    "OBCI-6": lambda t, x, y: t.cone(x) & t.order & t.out(y),
}


def _byte_violations(s: RawStructure, axiom: str) -> int:
    """The instantiations violating `axiom` as one bitmask, the first the
    most significant bit, decided on byte tables; `s` has at most
    BYTE_VERDICT_SIZE elements."""
    return _BYTE_AXIOMS[axiom](_Terms(s), *_grid(s.n, AXIOMS[axiom].arity))


# --- axiom evaluation ------------------------------------------------------

def check_axiom(s: RawStructure, axiom: str, *,
                witness_cap: int | None = None) -> CheckReport:
    """Exhaustively check one axiom; witnesses are the violating tuples.

    On at most BYTE_VERDICT_SIZE elements the verdict is decided first on
    byte tables (`_byte_violations`); the instantiations are scanned one by
    one only to list the witnesses of a failing axiom, or on a larger
    carrier.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom id {axiom!r}")
    holds = s.n <= BYTE_VERDICT_SIZE and not _byte_violations(s, axiom)
    return CheckReport.collect(axiom, () if holds else _violations(s, AXIOMS[axiom]),
                               witness_cap)


def axiom_reports(s: RawStructure, *,
                  witness_cap: int | None = None) -> list[CheckReport]:
    return [check_axiom(s, a, witness_cap=witness_cap) for a in AXIOM_IDS]


def validate(s: RawStructure) -> "ValidatedAlgebra | CheckReport":
    """Return a ValidatedAlgebra, or the first failing axiom's report."""
    for axiom in AXIOM_IDS:
        report = check_axiom(s, axiom)
        if not report.holds:
            return report
    return certified(s)


def certified(s: RawStructure) -> ValidatedAlgebra:
    """Wrap a structure whose caller has found all six axioms to hold.

    The only maker of a ValidatedAlgebra.  OBCI-3/4 plus cone-transitivity
    make the relation a partial order; a RuntimeError here means the
    caller's axiom check is wrong.
    """
    if not all(r.holds for r in relation_reports(s)):
        raise RuntimeError("validated relation is not a partial order")
    return ValidatedAlgebra(s, Subset.from_indices(s, s.cone_members()))


# --- derived identities ----------------------------------------------------

def derived_identity_reports(a: ValidatedAlgebra) -> list[CheckReport]:
    return _law_reports(a.structure, IDENTITIES)


def check_derived_identities(a: ValidatedAlgebra) -> CheckReport:
    """All six derived laws in one report; a failure means a validator bug.

    Witness tuples are prefixed with the violated identity's id.
    """
    return CheckReport.merged("derived-identities", derived_identity_reports(a))


# --- the cone view of the relation -----------------------------------------

def order_from_cone(op, unit: int, cone) -> tuple[tuple[bool, ...], ...]:
    """The unique relation linked to a cone: i <= j iff op[i][j] is in it.

    `cone` may be a Subset or any iterable of element indices.  The
    enumerator builds every relation with it, so its structures can never
    break the linking axiom.
    """
    n = len(op)
    if not 0 <= unit < n:
        raise StructureError(f"unit index {unit} out of range")
    members = frozenset(cone)
    for row in op:
        if len(row) != n:
            raise StructureError("operation table must be square")
    return tuple(tuple(op[i][j] in members for j in range(n)) for i in range(n))


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
    return RawStructure(s.name, s.labels, s.op, s.unit, m)


def relation_reports(s: RawStructure) -> list[CheckReport]:
    """Reflexivity, antisymmetry, transitivity of the stored relation."""
    return _law_reports(s, ORDER_LAWS)
