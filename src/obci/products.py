"""Direct products: componentwise structures, pair maps, product kernels.

The combined carrier uses the row-major pairing index(x1, x2) = x1*n2 + x2
and labels "(l1,l2)".  The product operation acts componentwise, the unit
is the pair of units, and the product order is the conjunction of the
component orders.  Construction never requires validity; `direct_product`
reports whether the result satisfies the axioms, as the definition of a
direct product algebra demands.  `pair_rows` is the one formula of a
pair map's table, as byte rows built once per second factor, and
`pair_table` joins them: `pair_map` wraps that table as a Mapping.

A set over the combined carrier is one bitmask whose row x1 is the slice
of n2 bits starting at bit x1*n2: a rectangle left x right is the right
mask shifted to each row of the left mask (`rectangle_mask`), and the
projections read the rows back.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BudgetError,
    CheckReport,
    RawStructure,
    ShapeError,
    Subset,
    UniverseMismatchError,
    axiom_reports,
    bits,
)
from .morphisms import Mapping, kernel_mask

DEFAULT_PRODUCT_BUDGET = 64


class ProductAlgebra(NamedTuple):
    left: RawStructure
    right: RawStructure
    combined: RawStructure

    @classmethod
    def of(cls, left: RawStructure, right: RawStructure) -> "ProductAlgebra":
        """The product of two structures; the one place one is built.  A
        carrier above DEFAULT_PRODUCT_BUDGET raises BudgetError."""
        if left.n * right.n > DEFAULT_PRODUCT_BUDGET:
            raise BudgetError(f"product carrier size {left.n * right.n} exceeds the "
                              f"budget of {DEFAULT_PRODUCT_BUDGET}")
        return cls(left, right, product_structure(left, right))

    def pair_index(self, x1: int, x2: int) -> int:
        return x1 * self.right.n + x2


def product_structure(x1: RawStructure, x2: RawStructure) -> RawStructure:
    n2 = x2.n
    # row a1*n2 + a2, column b1*n2 + b2, both pairs in row-major order
    return RawStructure(
        name=f"{x1.name}x{x2.name}",
        labels=tuple(f"({a},{b})" for a in x1.labels for b in x2.labels),
        op=tuple(tuple(v1 * n2 + v2 for v1 in r1 for v2 in r2)
                 for r1 in x1.op for r2 in x2.op),
        unit=x1.unit * n2 + x2.unit,
        order=tuple(tuple(o1 and o2 for o1 in q1 for o2 in q2)
                    for q1 in x1.order for q2 in x2.order),
    )


def direct_product(x1: RawStructure, x2: RawStructure, *, witness_cap: int | None = None
                   ) -> tuple[ProductAlgebra, CheckReport]:
    """Build the combined structure and report whether it is an algebra.

    The report's witnesses are tagged with the failing axiom id; each
    axiom lists at most `witness_cap` of them (every one for None).
    """
    product = ProductAlgebra.of(x1, x2)
    report = CheckReport.merged("direct-product-obci",
                                axiom_reports(product.combined, witness_cap=witness_cap))
    return product, report


def pair_map(f1: Mapping, f2: Mapping) -> Mapping:
    """The componentwise map (x1, x2) |-> (f1(x1), f2(x2)) between products."""
    source = ProductAlgebra.of(f1.source, f2.source)
    target = ProductAlgebra.of(f1.target, f2.target)
    name = f"{f1.name or 'f1'}x{f2.name or 'f2'}"
    return Mapping(source.combined, target.combined,
                   pair_table(f1, pair_rows(f2, f1.target.n)), name)


def pair_rows(f2: Mapping, n1: int) -> list[bytes]:
    """The one formula of a pair map's table: (x1, x2) in row-major order
    holds f1(x1) * m2 + f2(x2), so row x1 depends on f1(x1) alone.  Row v1
    for each v1 < n1, one byte per entry, so n1 times the size m2 of f2's
    target may not exceed 256 (products stop at DEFAULT_PRODUCT_BUDGET)."""
    m2 = f2.target.n
    return [bytes([v1 * m2 + v2 for v2 in f2.table]) for v1 in range(n1)]


def pair_table(f1: Mapping, rows: list[bytes]) -> bytes:
    """The table of the pair map f1 x f2 as bytes, from the `pair_rows` of
    f2: row f1(x1) for each x1 in turn."""
    return b"".join([rows[v1] for v1 in f1.table])


def rectangle_mask(left: int, right: int, n2: int) -> int:
    """Mask of left x right over a product whose right factor has size n2."""
    return sum(right << x1 * n2 for x1 in bits(left))


def projection_kernels(product: ProductAlgebra, k: Subset) -> tuple[Subset, Subset]:
    """Project a rectangular subset of a product onto its two factors.

    Raises ShapeError when k is not a rectangle (left x right), so the
    projections would lose information.
    """
    if k.universe != product.combined:
        raise UniverseMismatchError("projection_kernels: subset is not over this product")
    n2 = product.right.n
    row = (1 << n2) - 1
    mask = k.mask
    left = right = 0
    for x1 in range(product.left.n):
        r = mask >> x1 * n2 & row
        if r:
            left |= 1 << x1
            right |= r
    if rectangle_mask(left, right, n2) != mask:
        raise ShapeError("subset of the product is not a rectangle")
    return Subset(product.left, left), Subset(product.right, right)


def k_upper_sets(k1: Subset, k2: Subset, f1: Mapping, f2: Mapping, *,
                 source: ProductAlgebra | None = None,
                 ) -> tuple[Subset, Subset, bool]:
    """The two one-sided product sets built from K1, K2 and the two maps.

    First set: K1 on the left, "unit_Y2 <= f2(x2)" on the right; second
    set: "unit_Y1 <= f1(x1)" on the left, K2 on the right.  When K1 and K2
    are the component kernels both reduce to ker(f1) x ker(f2), so the
    returned flag must be True.  Both sets live over `source`, the product
    of the two maps' sources, which is built when not given.
    """
    if k1.universe != f1.source:
        raise UniverseMismatchError("k_upper_sets: K1 is not over the first map's source")
    if k2.universe != f2.source:
        raise UniverseMismatchError("k_upper_sets: K2 is not over the second map's source")
    if source is None:
        source = ProductAlgebra.of(f1.source, f2.source)
    if (source.left, source.right) != (f1.source, f2.source):
        raise UniverseMismatchError("k_upper_sets: source product does not match the maps")
    n2 = f2.source.n
    first = Subset(source.combined, rectangle_mask(k1.mask, kernel_mask(f2), n2))
    second = Subset(source.combined, rectangle_mask(kernel_mask(f1), k2.mask, n2))
    return first, second, first == second
