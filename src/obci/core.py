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
its arity and one term that is true where the law is violated, read in one
pass: on byte tables at every instantiation at once up to 16 elements,
its bitmask both verdict and witness list, and per instance past that.
Every check returns a CheckReport whose witnesses are the violating
instantiations in lexicographic order, all of them unless the caller
passes a cap; `CheckReport.collect` is the one place a cap is applied, and
only the checks the CLI prints take one.

Plain records are NamedTuples.  The three types that validate their
input (RawStructure, Subset and morphisms.Mapping) are `_Value` classes:
compared, hashed, printed and pickled by their fields, which their
constructors set once.
"""

from __future__ import annotations

import itertools
import operator
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
    def byte_readers(self) -> tuple:
        """`op`, `le`, `nle`, `cone` and `out` for the byte reading of a law
        (`_read_on_bytes`); n is at most 16."""
        le = bytes(itertools.chain.from_iterable(self.order)).translate(_DIGITS).ljust(256, b"0")
        times = bytes(range(0, self.n * self.n, self.n)).ljust(256, b"\0")  # a to a*n
        return (_Table(self.op_bytes.ljust(256, b"\0"), times, False),
                _Table(le, times, True), _Table(le.translate(_FLIP), times, True),
                _Test(self.cone_digits), _Test(self.cone_digits.translate(_FLIP)))

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
# A law is its arity and one term, true where the law is violated, over
# `op[a][b]`, the stored relation `le[a][b]` and its complement `nle`, the
# stored cone `cone[v]` (the unit's row of the relation) and its complement
# `out`, `ne(a, b)`, the unit `e` and one instantiation, joined by `&` and
# `^` only.  "unit <= w" is looked up in the stored relation, never
# recomputed through the cone, so structures that break the linking axiom
# are probed exactly as written.


class Law(NamedTuple):
    arity: int
    violated: Callable[..., object]


AXIOMS: dict[str, Law] = {
    "OBCI-1": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                  out[op[op[x][y]][op[op[y][z]][op[x][z]]]]),
    "OBCI-2": Law(2, lambda op, le, nle, cone, out, ne, e, x, y: out[op[x][op[op[x][y]][y]]]),
    "OBCI-3": Law(1, lambda op, le, nle, cone, out, ne, e, x: out[op[x][x]]),
    "OBCI-4": Law(2, lambda op, le, nle, cone, out, ne, e, x, y:
                  cone[op[x][y]] & cone[op[y][x]] & ne(x, y)),
    "OBCI-5": Law(2, lambda op, le, nle, cone, out, ne, e, x, y: le[x][y] ^ cone[op[x][y]]),
    "OBCI-6": Law(2, lambda op, le, nle, cone, out, ne, e, x, y: cone[x] & le[x][y] & out[y]),
}

IDENTITIES: dict[str, Law] = {
    "unit-identity": Law(1, lambda op, le, nle, cone, out, ne, e, x: ne(op[e][x], x)),
    "exchange": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                    ne(op[z][op[y][x]], op[y][op[z][x]])),
    "antitonicity": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                        cone[op[x][y]] & out[op[op[y][z]][op[x][z]]]),
    "cone-transitivity": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                             cone[op[x][y]] & cone[op[y][z]] & out[op[x][z]]),
    "prefixing": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                     out[op[op[y][z]][op[op[x][y]][op[x][z]]]]),
    "isotonicity": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                       cone[op[x][y]] & out[op[op[z][x]][op[z][y]]]),
}

ORDER_LAWS: dict[str, Law] = {
    "order-reflexive": Law(1, lambda op, le, nle, cone, out, ne, e, x: nle[x][x]),
    "order-antisymmetric": Law(2, lambda op, le, nle, cone, out, ne, e, x, y:
                               ne(x, y) & le[x][y] & le[y][x]),
    "order-transitive": Law(3, lambda op, le, nle, cone, out, ne, e, x, y, z:
                            le[x][y] & le[y][z] & nle[x][z]),
}

AXIOM_IDS = tuple(AXIOMS)

IDENTITY_IDS = tuple(IDENTITIES)


# --- the two readings of a term ---------------------------------------------
#
# Per instance, a term reads the structure's tuples, their complements,
# `operator.ne` and the unit at one instantiation.  On at most
# BYTE_VERDICT_SIZE elements every index a*n+b fits a byte, so a term is
# read at every instantiation at once: a variable is the bytes of its
# values, the last instantiation first (`_grid`); `t[a][b]` gathers a table
# at a*n+b, formed by one `bytes.translate` and one big-int addition (no
# byte carries, since no sum reaches 256); a test reads digits as a binary
# number.  So each test is a bitmask with the first instantiation in its
# lowest bit, and the term's mask is both the verdict and, walked by
# `bits`, the witness list.

BYTE_VERDICT_SIZE = 16

_FLIP = bytes.maketrans(b"01", b"10")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_NONZERO = b"0" + b"1" * 255


@cache
def _instances(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Every instantiation over n elements, in itertools.product order."""
    return tuple(itertools.product(range(n), repeat=arity))


@cache
def _grid(n: int, arity: int) -> tuple[bytes, ...]:
    """Per variable, its value at every instantiation, the last first."""
    return tuple(map(bytes, zip(*reversed(_instances(n, arity)))))


class _Table:
    """`t[a][b]` of a row-major table, as bytes or, of digits, as a bitmask."""

    __slots__ = ("table", "times", "digits")

    def __init__(self, table: bytes, times: bytes, digits: bool):
        self.table, self.times, self.digits = table, times, digits

    def __getitem__(self, a: bytes) -> "_Row":
        return _Row(self, int.from_bytes(a.translate(self.times), "big"))


class _Row:
    __slots__ = ("t", "base")

    def __init__(self, t: _Table, base: int):
        self.t, self.base = t, base

    def __getitem__(self, b: bytes) -> bytes | int:
        t = self.t
        cells = (self.base + int.from_bytes(b, "big")).to_bytes(len(b), "big").translate(t.table)
        return int(cells, 2) if t.digits else cells


class _Test:
    """`cone[v]` or `out[v]` at every instantiation at once, as a bitmask."""

    __slots__ = ("digits",)

    def __init__(self, digits: bytes):
        self.digits = digits

    def __getitem__(self, v: bytes) -> int:
        return int(v.translate(self.digits), 2)


def _ne(a: bytes, b: bytes) -> int:
    """Where a and b differ, as a bitmask."""
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return int(diff.to_bytes(len(a), "big").translate(_NONZERO), 2)


def _read_on_bytes(s: RawStructure, law: Law) -> int:
    """The bitmask of the instantiations violating `law`; s.n <= BYTE_VERDICT_SIZE."""
    grid = _grid(s.n, law.arity)
    return law.violated(*s.byte_readers, _ne, bytes((s.unit,)) * len(grid[0]), *grid)


def _read_per_instance(s: RawStructure, law: Law) -> Iterator[tuple[int, ...]]:
    """The instantiations violating `law`, in itertools.product order."""
    e, nle = s.unit, [[not v for v in row] for row in s.order]
    term = partial(law.violated, s.op, s.order, nle, s.order[e], nle[e], operator.ne, e)
    insts = partial(itertools.product, range(s.n), repeat=law.arity)
    return itertools.compress(insts(), itertools.starmap(term, insts()))


def _violations(s: RawStructure, law: Law) -> Iterator[tuple[int, ...]]:
    """The instantiations violating `law`, in itertools.product order: its
    byte reading on at most BYTE_VERDICT_SIZE elements, else per instance."""
    if s.n > BYTE_VERDICT_SIZE:
        return _read_per_instance(s, law)
    return map(_instances(s.n, law.arity).__getitem__, bits(_read_on_bytes(s, law)))


def _law_reports(s: RawStructure, laws: dict[str, Law]) -> list[CheckReport]:
    return [CheckReport.collect(name, _violations(s, law)) for name, law in laws.items()]


# --- axiom evaluation ------------------------------------------------------

def check_axiom(s: RawStructure, axiom: str, *,
                witness_cap: int | None = None) -> CheckReport:
    """Exhaustively check one axiom; witnesses are the violating tuples."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom id {axiom!r}")
    return CheckReport.collect(axiom, _violations(s, AXIOMS[axiom]), witness_cap)


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
