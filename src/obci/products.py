"""Direct products: componentwise structures, pair maps, product kernels.

The combined carrier uses the row-major pairing index(x1, x2) = x1*n2 + x2
and labels "(l1,l2)".  The product operation acts componentwise, the unit
is the pair of units, and the product order is the conjunction of the
component orders.  Construction never requires validity; `direct_product`
reports whether the result satisfies the axioms, as the definition of a
direct product algebra demands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_WITNESS_CAP,
    AXIOM_IDS,
    BudgetError,
    CheckReport,
    RawStructure,
    ShapeError,
    Subset,
    UniverseMismatchError,
    check_axiom,
)
from .morphisms import Mapping, kernel

DEFAULT_PRODUCT_BUDGET = 64


@dataclass(frozen=True)
class ProductAlgebra:
    left: RawStructure
    right: RawStructure
    combined: RawStructure

    def pair_index(self, x1: int, x2: int) -> int:
        return x1 * self.right.n + x2

    def unpair(self, i: int) -> tuple[int, int]:
        return divmod(i, self.right.n)


def product_structure(x1: RawStructure, x2: RawStructure) -> RawStructure:
    n1, n2 = x1.n, x2.n
    n = n1 * n2
    labels = tuple(f"({a},{b})" for a in x1.labels for b in x2.labels)
    op = [[0] * n for _ in range(n)]
    order = [[False] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            i = a1 * n2 + a2
            for b1 in range(n1):
                v1 = x1.op[a1][b1]
                o1 = x1.order[a1][b1]
                for b2 in range(n2):
                    j = b1 * n2 + b2
                    op[i][j] = v1 * n2 + x2.op[a2][b2]
                    order[i][j] = o1 and x2.order[a2][b2]
    return RawStructure(
        name=f"{x1.name}x{x2.name}",
        labels=labels,
        op=tuple(tuple(r) for r in op),
        unit=x1.unit * n2 + x2.unit,
        order=tuple(tuple(r) for r in order),
    )


def direct_product(x1: RawStructure, x2: RawStructure, *,
                   budget: int = DEFAULT_PRODUCT_BUDGET,
                   witness_cap: int | None = DEFAULT_WITNESS_CAP,
                   ) -> tuple[ProductAlgebra, CheckReport]:
    """Build the combined structure and report whether it is an algebra.

    The report's witnesses are tagged with the failing axiom id.
    """
    if x1.n * x2.n > budget:
        raise BudgetError(
            f"product carrier size {x1.n * x2.n} exceeds the budget of {budget}"
        )
    combined = product_structure(x1, x2)
    product = ProductAlgebra(x1, x2, combined)
    witnesses: list[tuple] = []
    truncated = False
    for axiom in AXIOM_IDS:
        r = check_axiom(combined, axiom, witness_cap=witness_cap)
        truncated = truncated or r.truncated
        witnesses.extend((axiom, *w) for w in r.witnesses)
    report = CheckReport("direct-product-obci", holds=not witnesses,
                         witnesses=tuple(witnesses), truncated=truncated)
    return product, report


def pair_map(f1: Mapping, f2: Mapping, *,
             source: ProductAlgebra | None = None,
             target: ProductAlgebra | None = None) -> Mapping:
    """The componentwise map (x1, x2) |-> (f1(x1), f2(x2)) between products."""
    if source is None:
        source = ProductAlgebra(f1.source, f2.source,
                                product_structure(f1.source, f2.source))
    if target is None:
        target = ProductAlgebra(f1.target, f2.target,
                                product_structure(f1.target, f2.target))
    if (source.left, source.right) != (f1.source, f2.source):
        raise UniverseMismatchError("pair_map: source product does not match the maps")
    if (target.left, target.right) != (f1.target, f2.target):
        raise UniverseMismatchError("pair_map: target product does not match the maps")
    n2 = f2.source.n
    m2 = f2.target.n
    table = tuple(
        f1.table[i // n2] * m2 + f2.table[i % n2]
        for i in range(source.combined.n)
    )
    name = f"{f1.name or 'f1'}x{f2.name or 'f2'}"
    return Mapping(source.combined, target.combined, table, name)


def direct_product_kernel(f1: Mapping, f2: Mapping) -> Subset:
    """ker(f1) x ker(f2) over the source product carrier.

    Cross-checked against the one-shot kernel of the pair map, which must
    coincide by construction of the product order.
    """
    pm = pair_map(f1, f2)
    k1 = kernel(f1)
    k2 = kernel(f2)
    n2 = f2.source.n
    members = [x1 * n2 + x2 for x1 in k1 for x2 in k2]
    combined = Subset.from_indices(pm.source, members)
    if combined != kernel(pm):
        raise RuntimeError("componentwise kernel disagrees with the pair-map kernel")
    return combined


def projection_kernels(product: ProductAlgebra, k: Subset) -> tuple[Subset, Subset]:
    """Project a rectangular subset of a product onto its two factors.

    Raises ShapeError when k is not a rectangle (left x right), so the
    projections would lose information.
    """
    if k.universe != product.combined:
        raise UniverseMismatchError("projection_kernels: subset is not over this product")
    n2 = product.right.n
    left = sorted({i // n2 for i in k})
    right = sorted({i % n2 for i in k})
    rebuilt = {x1 * n2 + x2 for x1 in left for x2 in right}
    if rebuilt != set(k.members()):
        raise ShapeError("subset of the product is not a rectangle")
    return (Subset.from_indices(product.left, left),
            Subset.from_indices(product.right, right))


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
        source = ProductAlgebra(f1.source, f2.source,
                                product_structure(f1.source, f2.source))
    if (source.left, source.right) != (f1.source, f2.source):
        raise UniverseMismatchError("k_upper_sets: source product does not match the maps")
    combined = source.combined
    n2 = f2.source.n
    cone_y1 = f1.target.order[f1.target.unit]
    cone_y2 = f2.target.order[f2.target.unit]
    first = Subset.from_indices(
        combined,
        (x1 * n2 + x2
         for x1 in k1 for x2 in range(n2) if cone_y2[f2.table[x2]]),
    )
    second = Subset.from_indices(
        combined,
        (x1 * n2 + x2
         for x1 in range(f1.source.n) if cone_y1[f1.table[x1]]
         for x2 in k2),
    )
    return first, second, first == second
