import pytest

from obci import (
    ShapeError,
    Subset,
    UniverseMismatchError,
    ValidatedAlgebra,
    classify,
    constant_to_unit,
    direct_product,
    direct_product_kernel,
    identity_map,
    k_upper_sets,
    kernel,
    pair_map,
    projection_kernels,
    validate,
)
from obci.core import BudgetError
from obci.products import ProductAlgebra, product_structure
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
                    assert product.unpair(j) == (y1, y2)


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


def test_product_budget():
    with pytest.raises(BudgetError):
        direct_product(exy, ea, budget=4)


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
    assert (d_e, e_e) in cls.hom_witnesses


def test_pair_map_omap_failure_for_swap_component():
    cls = classify(pair_map(mid3_swap, exy_to_ea))
    assert not cls.is_omap


def test_pair_map_universe_check():
    wrong = ProductAlgebra(ea, exy, product_structure(ea, exy))
    with pytest.raises(UniverseMismatchError):
        pair_map(exy_id, exy_to_ea, source=wrong)


def test_direct_product_kernel_componentwise():
    k = direct_product_kernel(d2c, exy_to_ea)
    # {1, e} x {e, x} in row-major indices over a 4 x 3 product
    assert k.members() == (0, 1, 3, 4)
    pm = pair_map(d2c, exy_to_ea)
    assert kernel(pm).mask == k.mask


def test_direct_product_kernel_of_constants_is_everything():
    k = direct_product_kernel(constant_to_unit(exy, ea), constant_to_unit(ea, exy))
    assert len(k) == 6


def test_direct_product_kernel_raw_components():
    k = direct_product_kernel(mid3_swap, exy_to_ea)
    assert set(k.members()) == {0, 1, 3, 4}  # {1, 1/2} x {e, x}


def test_direct_product_kernel_cross_check_raises(monkeypatch):
    # the cross-check must survive `python -O`, so it cannot be an assert
    import obci.products

    components = (d2c, exy_to_ea)
    monkeypatch.setattr(obci.products, "kernel",
                        lambda m: kernel(m) if m in components else Subset.empty(m.source))
    with pytest.raises(RuntimeError, match="disagrees with the pair-map kernel"):
        direct_product_kernel(d2c, exy_to_ea)


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
