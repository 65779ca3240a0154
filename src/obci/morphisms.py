"""Mappings between structures: classification, kernels, images.

A mapping is classified against two laws: the homomorphism law
kappa(x->y) = kappa(x)->kappa(y), and the order-map (O-map) law
unit_X <= x->y  implies  unit_Y <= kappa(x)->kappa(y).  A map satisfying
both is an O-homomorphism.  `classify` returns a MorphismClass holding one
CheckReport per law, its witnesses the failing pairs (x, y), cut only at a
cap its caller passes.  The order conclusions of an O-homomorphism
(`_monotonicity`, `_closed_kernel_condition`) list every witness.
`decide_laws` decides both laws at once on a byte table, for the fast
path of `classify` and the pass over pairs of O-homomorphisms.  Kernels
are defined for arbitrary mappings: ker(kappa) = {x : unit_Y <= kappa(x)}
under the target's stored relation; reflection is the cone condition on it.
`enumerate_maps` yields every map between two carriers and
`enumerate_homs` only the homomorphisms, both in lexicographic table order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .core import (
    BudgetError,
    CheckReport,
    RawStructure,
    StructureError,
    Subset,
    UniverseMismatchError,
    _set,
    _Value,
    bits,
)
from .substructures import satisfies_cone_condition

DEFAULT_MAP_BUDGET = 10_000_000


class Mapping(_Value):
    """A total function between two carriers, as a table of target indices."""

    __slots__ = ("source", "target", "table", "name")
    _fields = __slots__

    def __init__(self, source: RawStructure, target: RawStructure, table,
                 name: str = ""):
        table = tuple(table)
        if len(table) != source.n:
            raise StructureError(
                f"map {name!r}: table has {len(table)} entries "
                f"for a carrier of size {source.n}"
            )
        for i, v in enumerate(table):
            if not isinstance(v, int) or not 0 <= v < target.n:
                raise StructureError(f"map {name!r}: bad image at {i}: {v!r}")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "table", table)
        _set(self, "name", name)

    def __call__(self, i: int) -> int:
        return self.table[i]

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.n

    def preserves_unit(self) -> bool:
        return self.table[self.source.unit] == self.target.unit


class MorphismClass(NamedTuple):
    """The reports of the two morphism laws, witnesses (x, y) in scan order."""

    hom: CheckReport
    omap: CheckReport

    @property
    def is_hom(self) -> bool:
        return self.hom.holds

    @property
    def is_omap(self) -> bool:
        return self.omap.holds

    @property
    def is_ohom(self) -> bool:
        return self.hom.holds and self.omap.holds


_OHOM = MorphismClass(CheckReport("homomorphism", True), CheckReport("o-map", True))


def identity_map(a: RawStructure, name: str = "") -> Mapping:
    return Mapping(a, a, tuple(range(a.n)), name or f"id-{a.name}")


def constant_to_unit(src: RawStructure, dst: RawStructure, name: str = "") -> Mapping:
    return Mapping(src, dst, (dst.unit,) * src.n, name or f"const-{dst.name}")


def decide_laws(src: RawStructure, dst: RawStructure, table: bytes) -> tuple[int, bool]:
    """The kernel mask of the map src -> dst with this table, and whether
    the map is an O-homomorphism.

    Both laws are decided on all n * n cells at C speed: the hom law as
    (t[op_s[x][y]])_(x,y) == (op_t[t[x]][t[y]])_(x,y) in row-major order,
    each side one byte string.  With the hom law, op_t[t[x]][t[y]] =
    t[op_s[x][y]], so the O-map law asks every cone value of op_s to lie
    in the kernel.  Both carriers must have at most 256 elements.
    """
    ker = int(table.translate(dst.cone_digits)[::-1], 2)
    if src.cone_values_mask & ~ker:
        return ker, False
    lhs = src.op_bytes.translate(table.ljust(256, b"\0"))
    rows = dst.row_tables
    return ker, lhs == b"".join([table.translate(rows[v]) for v in table])


def classify(m: Mapping, *, witness_cap: int | None = None) -> MorphismClass:
    """Evaluate both morphism laws over all pairs of source elements.

    Both laws are first decided at once by `decide_laws`; only when one
    fails, or when a carrier is too large for it, are the cells scanned one
    by one for the witnesses, in lexicographic order.
    """
    if witness_cap is not None and witness_cap < 0:
        raise ValueError(f"witness cap must be at least 0, got {witness_cap}")
    src, dst = m.source, m.target
    if src.n <= 256 and dst.n <= 256 and decide_laws(src, dst, bytes(m.table))[1]:
        return _OHOM
    op_s, op_t = src.op, dst.op
    t = m.table
    cone_s = src.order[src.unit]
    cone_t = dst.order[dst.unit]
    hom_w: list[tuple[int, int]] = []
    omap_w: list[tuple[int, int]] = []
    for x in range(src.n):
        for y in range(src.n):
            v = op_s[x][y]
            w = op_t[t[x]][t[y]]
            if t[v] != w:
                hom_w.append((x, y))
            if cone_s[v] and not cone_t[w]:
                omap_w.append((x, y))
    return MorphismClass(CheckReport.collect("homomorphism", hom_w, witness_cap),
                         CheckReport.collect("o-map", omap_w, witness_cap))


def _monotonicity(m: Mapping) -> CheckReport:
    """The three order conclusions every O-homomorphism must satisfy, for
    a map its caller has classified as one.

    Witnesses: ("unit-selfarrow",), ("unit-image",) or ("order", x, y).
    """
    t = m.table
    src, dst = m.source, m.target
    cone_t = dst.order[dst.unit]
    e_img = t[src.unit]

    def violations():
        if not cone_t[dst.op[e_img][e_img]]:
            yield ("unit-selfarrow",)
        if not cone_t[e_img]:
            yield ("unit-image",)
        for x in range(src.n):
            for y in range(src.n):
                if src.order[x][y] and not dst.order[t[x]][t[y]]:
                    yield ("order", x, y)

    return CheckReport.collect("monotone", violations())


def kernel_mask(m: Mapping) -> int:
    """ker(m) as a bitmask over the source, read off the map's table.

    `decide_laws` reads the same rule off a byte table through the
    target's `cone_digits`; this loop is the faster of the two on the
    pool's small maps, and the only one for targets beyond 256 elements.
    """
    cone_t = m.target.order[m.target.unit]
    mask = 0
    bit = 1
    for v in m.table:
        if cone_t[v]:
            mask |= bit
        bit <<= 1
    return mask


def kernel(m: Mapping) -> Subset:
    """Elements whose image sits above the target's unit (any mapping)."""
    return Subset(m.source, kernel_mask(m))


def kernel_alt(m: Mapping) -> Subset:
    """Kernel through its existential characterization.

    {y : some x has unit_Y <= kappa(x) and unit_Y <= kappa(x)->kappa(y)};
    equality with `kernel` is a theorem for validated endpoints and is
    checked by the P-kernel-alt sweep.
    """
    cone_t = m.target.order[m.target.unit]
    op_t = m.target.op
    t = m.table
    good_x = [x for x in range(m.source.n) if cone_t[t[x]]]
    members = (
        y for y in range(m.source.n)
        if any(cone_t[op_t[t[x]][t[y]]] for x in good_x)
    )
    return Subset.from_indices(m.source, members)


def _closed_kernel_condition(m: Mapping, ker: int) -> CheckReport:
    """kappa(unit_X) <= kappa(x) forces x->unit_X into the kernel, for a
    map its caller has classified as an O-homomorphism, whose kernel mask
    `ker` it has already taken."""
    src, dst = m.source, m.target
    t = m.table
    e_img_row = dst.order[t[src.unit]]
    viol = (
        (x,) for x in range(src.n)
        if e_img_row[t[x]] and not ker >> src.op[x][src.unit] & 1
    )
    return CheckReport.collect("closed-kernel-condition", viol)


def check_reflection_condition(m: Mapping) -> CheckReport:
    """unit_Y <= kappa(x) forces unit_X <= x: the cone condition on ker(kappa)."""
    return satisfies_cone_condition(m.source, kernel(m))._replace(law="reflection-condition")


def image_mask(m: Mapping, mask: int) -> int:
    """The image of a set of source elements, both as bitmasks."""
    out = 0
    for x in bits(mask):
        out |= 1 << m.table[x]
    return out


def preimage_mask(m: Mapping, mask: int) -> int:
    """The preimage of a set of target elements, both as bitmasks."""
    out = 0
    for x, v in enumerate(m.table):
        if mask >> v & 1:
            out |= 1 << x
    return out


def image(m: Mapping, s: Subset) -> Subset:
    if s.universe != m.source:
        raise UniverseMismatchError("image: subset is not over the map's source")
    return Subset(m.target, image_mask(m, s.mask))


def preimage(m: Mapping, t: Subset) -> Subset:
    if t.universe != m.target:
        raise UniverseMismatchError("preimage: subset is not over the map's target")
    return Subset(m.source, preimage_mask(m, t.mask))


def enumerate_maps(src: RawStructure, dst: RawStructure) -> Iterator[Mapping]:
    """All maps src -> dst in lexicographic table order."""
    candidates = dst.n ** src.n
    if candidates > DEFAULT_MAP_BUDGET:
        raise BudgetError(
            f"{candidates} candidate maps from {src.name!r} to {dst.name!r} "
            f"exceed the budget of {DEFAULT_MAP_BUDGET}"
        )
    for table in itertools.product(range(dst.n), repeat=src.n):
        yield Mapping(src, dst, table)


def enumerate_homs(src: RawStructure, dst: RawStructure) -> Iterator[Mapping]:
    """All homomorphisms src -> dst, in the table order of `enumerate_maps`.

    A backtracking search: t[0..n-1] is filled in order, each entry trying
    the target's elements in ascending order, and a partial table is
    dropped as soon as a hom-law cell (x, y) fails whose t[x], t[y] and
    t[x->y] are all assigned.  Every cell is checked once, at the entry
    assigned last of the three, so a full table is a homomorphism.  This
    is the redundant-constraint pruning of `scan.valid_tables`, applied to
    maps instead of tables.
    """
    n, op_t = src.n, dst.op
    # cells[k]: the hom-law cells (x, y, x->y) whose last assigned entry is t[k]
    cells: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x, row in enumerate(src.op):
        for y, v in enumerate(row):
            cells[max(x, y, v)].append((x, y, v))
    t = [0] * n

    def extend(k: int) -> Iterator[Mapping]:
        if k == n:
            yield Mapping(src, dst, t)
            return
        for value in range(dst.n):
            t[k] = value
            if all(t[v] == op_t[t[x]][t[y]] for x, y, v in cells[k]):
                yield from extend(k + 1)

    return extend(0)
