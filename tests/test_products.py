import pytest
from hypothesis import given, strategies as st

from obci import (
    Mapping,
    ShapeError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    classify,
    constant_to_unit,
    direct_product,
    enumerate_maps,
    identity_map,
    k_upper_sets,
    kernel,
    pair_map,
    projection_kernels,
    validate,
)
from obci.core import BudgetError
from obci.products import (
    ProductAlgebra,
    pair_rows,
    pair_table,
    product_structure,
    rectangle_mask,
)
from obci import fixtures as fx

exy = fx.ALGEBRAS["exy"]
ea = fx.ALGEBRAS["ea"]
mid3 = fx.ALGEBRAS["mid3"]
exy_to_ea = fx.MAPS["exy-to-ea"]
mid3_swap = fx.MAPS["mid3-swap"]
d2c = fx.MAPS["diamond-to-chain"]
exy_id = fx.MAPS["exy-id"]


def test_direct_product_of_validated_fixtures_is_validated():
    product, report = direct_product(exy, ea)
    assert product.combined.n == 6
    assert report.holds
    assert isinstance(validate(product.combined), ValidatedAlgebra)
    assert product.combined.labels[0] == "(e,e)"
    assert product.combined.unit == 0


def test_componentwise_law_bit_exact():
    product, _ = direct_product(exy, ea)
    c = product.combined
    for x1 in range(exy.n):
        for x2 in range(ea.n):
            i = product.pair_index(x1, x2)
            for y1 in range(exy.n):
                for y2 in range(ea.n):
                    j = product.pair_index(y1, y2)
                    assert c.op[i][j] == product.pair_index(
                        exy.op[x1][y1], ea.op[x2][y2])
                    assert c.order[i][j] == (
                        exy.order[x1][y1] and ea.order[x2][y2])
                    assert divmod(j, ea.n) == (y1, y2)


def test_product_with_point_is_isomorphic_to_factor(point):
    product, report = direct_product(point, ea)
    assert report.holds
    c = product.combined
    assert c.n == ea.n
    assert all(c.op[i][j] == ea.op[i][j] for i in range(2) for j in range(2))
    assert c.order == ea.order
    assert c.unit == ea.unit


def test_product_with_raw_fixture_reports_failure():
    product, report = direct_product(exy, mid3)
    assert not report.holds
    assert any(w[0] == "OBCI-5" for w in report.witnesses)
    _, capped = direct_product(exy, mid3, witness_cap=0)
    assert (capped.holds, capped.witnesses, capped.truncated) == (False, (), True)


def test_product_budget(blank):
    direct_product(blank(8), blank(8), witness_cap=0)
    with pytest.raises(BudgetError, match="size 72 exceeds the budget of 64"):
        direct_product(blank(9), blank(8))
    # every product is built by ProductAlgebra.of, which holds the guard
    f1, f2 = identity_map(blank(9)), identity_map(blank(8))
    for build in (lambda: ProductAlgebra.of(blank(9), blank(8)),
                  lambda: pair_map(f1, f2),
                  lambda: k_upper_sets(Subset.empty(f1.source), Subset.empty(f2.source),
                                       f1, f2)):
        with pytest.raises(BudgetError, match="size 72 exceeds the budget of 64"):
            build()


def test_pair_map_of_ohoms_is_ohom():
    pm = pair_map(exy_id, exy_to_ea)
    assert classify(pm).is_ohom


def test_pair_map_hom_failure_at_stated_witness():
    pm = pair_map(d2c, exy_to_ea)
    cls = classify(pm)
    assert not cls.is_hom
    # the witness pair ((d,e), (e,e)) under row-major indexing
    d_e = fx.ALGEBRAS["diamond"].index("d") * exy.n + exy.index("e")
    e_e = fx.ALGEBRAS["diamond"].index("e") * exy.n + exy.index("e")
    assert (d_e, e_e) in cls.hom.witnesses


def test_pair_map_omap_failure_for_swap_component():
    cls = classify(pair_map(mid3_swap, exy_to_ea))
    assert not cls.is_omap


def test_pair_map_at_the_edge_of_the_product_budget(blank):
    # 8 x 8 = 64 elements on both sides, entries up to 63: the largest
    # pair map the budget allows still fits its table in bytes
    a = blank(8)
    f1 = Mapping(a, a, (7, 6, 5, 4, 3, 2, 1, 0))
    f2 = Mapping(a, a, tuple((3 * x + 1) % 8 for x in range(8)))
    pm = pair_map(f1, f2)
    assert pm.source.n == pm.target.n == 64
    assert max(pm.table) == 63
    assert pm.table == tuple(f1(x1) * 8 + f2(x2) for x1 in range(8) for x2 in range(8))


def test_classify_beyond_a_byte(blank):
    # 17 x 17 = 289 elements, beyond the product budget, so no pair map:
    # the identity of the product is classified without a byte table
    product = product_structure(blank(17), blank(17))
    with pytest.raises(BudgetError):
        pair_map(identity_map(blank(17)), identity_map(blank(17)))
    assert classify(identity_map(product)).is_ohom


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.data())
def test_rectangle_mask_is_the_naive_scan(n1, n2, data):
    left = data.draw(st.integers(min_value=0, max_value=(1 << n1) - 1))
    right = data.draw(st.integers(min_value=0, max_value=(1 << n2) - 1))
    assert rectangle_mask(left, right, n2) == sum(
        1 << x1 * n2 + x2 for x1 in range(n1) for x2 in range(n2)
        if left >> x1 & 1 and right >> x2 & 1)


def _pair_kernel(f1, f2):
    """ker(f1 x f2), checked against ker(f1) x ker(f2) as the sweep's
    T-product-kernel checks it."""
    k = kernel(pair_map(f1, f2))
    assert k.mask == rectangle_mask(kernel(f1).mask, kernel(f2).mask, f2.source.n)
    return k


def test_direct_product_kernel_componentwise():
    k = _pair_kernel(d2c, exy_to_ea)
    # {1, e} x {e, x} in row-major indices over a 4 x 3 product
    assert k.members() == (0, 1, 3, 4)
    pm = pair_map(d2c, exy_to_ea)
    assert kernel(pm).mask == k.mask


def test_direct_product_kernel_of_constants_is_everything():
    k = _pair_kernel(constant_to_unit(exy, ea), constant_to_unit(ea, exy))
    assert len(k) == 6


def test_direct_product_kernel_raw_components():
    k = _pair_kernel(mid3_swap, exy_to_ea)
    assert set(k.members()) == {0, 1, 3, 4}  # {1, 1/2} x {e, x}


def test_projection_kernels_roundtrip():
    product, _ = direct_product(exy, ea)
    rect = Subset.from_indices(product.combined, (0, 1, 2, 3))  # {e,x} x {e,a}
    left, right = projection_kernels(product, rect)
    assert left.member_labels() == ("e", "x")
    assert right.member_labels() == ("e", "a")

    full = Subset.full(product.combined)
    left, right = projection_kernels(product, full)
    assert left == Subset.full(exy) and right == Subset.full(ea)

    unit_only = Subset.from_indices(product.combined, (0,))
    left, right = projection_kernels(product, unit_only)
    assert left.member_labels() == ("e",) and right.member_labels() == ("e",)

    empty = Subset.empty(product.combined)
    left, right = projection_kernels(product, empty)
    assert len(left) == 0 and len(right) == 0


def test_projection_kernels_rejects_non_rectangles():
    product, _ = direct_product(exy, ea)
    bent = Subset.from_indices(product.combined, (0, 3))  # {(e,e), (x,a)}
    with pytest.raises(ShapeError):
        projection_kernels(product, bent)
    with pytest.raises(UniverseMismatchError):
        projection_kernels(product, Subset.full(exy))


def test_k_upper_sets_from_kernels_coincide():
    first, second, equal = k_upper_sets(kernel(d2c), kernel(exy_to_ea),
                                        d2c, exy_to_ea)
    assert equal
    assert first.mask == second.mask
    pm = pair_map(d2c, exy_to_ea)
    assert first.mask == kernel(pm).mask


def test_k_upper_sets_of_empty_sets():
    k1 = Subset.empty(exy)
    k2 = Subset.empty(ea)
    first, second, equal = k_upper_sets(
        k1, k2, identity_map(exy), identity_map(ea))
    # one side constrains the left coordinate, the other the right; with
    # empty K-sets both are empty and still equal
    assert equal and len(first) == 0 and len(second) == 0


def test_k_upper_sets_universe_checks():
    with pytest.raises(UniverseMismatchError):
        k_upper_sets(Subset.full(ea), kernel(exy_to_ea), d2c, exy_to_ea)


@pytest.mark.parametrize("f1, f2", [(d2c, exy_to_ea), (exy_id, exy_to_ea),
                                    (mid3_swap, exy_id)])
def test_k_upper_sets_with_prebuilt_source(f1, f2):
    k1, k2 = kernel(f1), kernel(f2)
    source = ProductAlgebra(f1.source, f2.source,
                            product_structure(f1.source, f2.source))
    assert (k_upper_sets(k1, k2, f1, f2, source=source)
            == k_upper_sets(k1, k2, f1, f2))


def test_k_upper_sets_source_must_match_the_maps():
    swapped = ProductAlgebra(ea, exy, product_structure(ea, exy))
    with pytest.raises(UniverseMismatchError):
        k_upper_sets(kernel(exy_id), kernel(exy_to_ea), exy_id, exy_to_ea,
                     source=swapped)


def test_products_of_enumerated_algebras_validate():
    # closure under direct products is conditional by definition; the
    # sweep records that it in fact holds for every small pair
    from obci.harness import enumerate_obci

    algebras = [a.structure for n in (1, 2, 3) for a in enumerate_obci(n)]
    for left in algebras:
        for right in algebras:
            _, report = direct_product(left, right, witness_cap=1)
            assert report.holds, (left.name, right.name)


# --- the bit-level set code against set comprehensions ------------------------

def small_algebras():
    from obci.harness import enumerate_obci

    return [a.structure for n in (1, 2) for a in enumerate_obci(n)]


def test_projection_kernels_match_set_derivation_on_every_subset():
    algebras = small_algebras()
    shapes = set()
    for left_alg in algebras:
        for right_alg in algebras:
            product = ProductAlgebra(left_alg, right_alg,
                                     product_structure(left_alg, right_alg))
            n2 = right_alg.n
            for mask in range(1 << product.combined.n):
                k = Subset(product.combined, mask)
                members = {i for i in range(product.combined.n) if mask >> i & 1}
                rows = {i // n2 for i in members}
                cols = {i % n2 for i in members}
                if members != {x1 * n2 + x2 for x1 in rows for x2 in cols}:
                    shapes.add("non-rectangle")
                    with pytest.raises(ShapeError):
                        projection_kernels(product, k)
                    continue
                shapes.add("empty" if not members else
                           "full" if len(members) == product.combined.n else
                           "rectangle")
                left, right = projection_kernels(product, k)
                assert left == Subset.from_indices(left_alg, rows)
                assert right == Subset.from_indices(right_alg, cols)
    assert shapes == {"non-rectangle", "empty", "full", "rectangle"}


def test_k_upper_sets_match_set_derivation_for_arbitrary_k_sets():
    algebras = small_algebras()
    maps = [m for src in algebras for dst in algebras
            for m in enumerate_maps(src, dst)]
    for f1 in maps:
        for f2 in maps:
            n2 = f2.source.n
            up1 = {x1 for x1 in range(f1.source.n)
                   if f1.target.order[f1.target.unit][f1.table[x1]]}
            up2 = {x2 for x2 in range(n2)
                   if f2.target.order[f2.target.unit][f2.table[x2]]}
            for mask1 in range(1 << f1.source.n):
                for mask2 in range(1 << n2):
                    k1, k2 = Subset(f1.source, mask1), Subset(f2.source, mask2)
                    first, second, equal = k_upper_sets(k1, k2, f1, f2)
                    expected_first = {x1 * n2 + x2 for x1 in k1.members() for x2 in up2}
                    expected_second = {x1 * n2 + x2 for x1 in up1 for x2 in k2.members()}
                    assert set(first.members()) == expected_first
                    assert set(second.members()) == expected_second
                    assert equal == (expected_first == expected_second)


# --- the pair pass's byte tables against the pair map, cell by cell -------------

def _laws_hold(src, dst, t):
    """Both morphism laws evaluated cell by cell."""
    cone_s, cone_t = src.order[src.unit], dst.order[dst.unit]
    return all(t[src.op[x][y]] == dst.op[t[x]][t[y]]
               and (not cone_s[src.op[x][y]] or cone_t[dst.op[t[x]][t[y]]])
               for x in range(src.n) for y in range(src.n))


@pytest.mark.parametrize("scope, count", [({"sizes": (1, 2)}, 121),
                                          ({"sizes": (3,), "up_to_iso": True}, 5625)])
def test_pair_pass_tables_and_kernels_match_the_pair_map(scope, count):
    from obci import harness

    pairs = list(harness._ohom_pairs(harness._pool_for(**scope), (0, 1)))
    assert len(pairs) == count and None not in pairs
    for p in pairs:
        pm = pair_map(p.f1, p.f2)
        src, dst = pm.source, pm.target
        assert (p.source.combined, p.target.combined) == (src, dst)
        assert p.table == pair_table(p.f1, pair_rows(p.f2, p.f1.target.n)) == bytes(pm.table)
        n2, m2 = p.f2.source.n, p.f2.target.n
        assert all(p.table[x1 * n2 + x2] == p.f1(x1) * m2 + p.f2(x2)
                   for x1 in range(p.f1.source.n) for x2 in range(n2))
        cone_t = dst.order[dst.unit]
        expected_ker = sum(1 << x for x in range(src.n) if cone_t[p.table[x]])
        assert p.kernels[4] == kernel(pm).mask == expected_ker
        assert p.ohom == _laws_hold(src, dst, p.table) == classify(pm).is_ohom
