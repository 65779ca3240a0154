import pytest
from hypothesis import given, strategies as st

from obci import (
    BudgetError,
    CheckReport,
    Mapping,
    MorphismClass,
    RawStructure,
    StructureError,
    Subset,
    UniverseMismatchError,
    check_reflection_condition,
    classify,
    constant_to_unit,
    enumerate_homs,
    enumerate_maps,
    identity_map,
    image,
    kernel,
    kernel_alt,
    preimage,
)
from obci import fixtures as fx
from obci.harness import enumerate_obci
from obci.morphisms import (
    _closed_kernel_condition,
    _monotonicity,
    decide_laws,
    image_mask,
    kernel_mask,
)

exy = fx.ALGEBRAS["exy"]
ea = fx.ALGEBRAS["ea"]
mid3 = fx.ALGEBRAS["mid3"]
diamond = fx.ALGEBRAS["diamond"]
chain4 = fx.ALGEBRAS["chain4"]

exy_to_ea = fx.MAPS["exy-to-ea"]
mid3_swap = fx.MAPS["mid3-swap"]
d2c = fx.MAPS["diamond-to-chain"]
exy_id = fx.MAPS["exy-id"]
mid3_id = fx.MAPS["mid3-id"]


def test_mapping_invariants():
    with pytest.raises(StructureError):
        Mapping(exy, ea, (0, 1))          # not total
    with pytest.raises(StructureError):
        Mapping(exy, ea, (0, 1, 5))       # image out of range
    assert exy_to_ea.is_surjective()
    assert exy_to_ea.preserves_unit()
    assert not constant_to_unit(exy, ea).is_surjective()


@pytest.mark.parametrize("table, message", [
    ((0, 1), "table has 2 entries for a carrier of size 3"),
    ((0, 1, 0, 0), "table has 4 entries for a carrier of size 3"),
    ((0, 1, "a"), "bad image at 2: 'a'"),
    ((0, 1.0, 0), "bad image at 1: 1.0"),
    ((0, None, 0), "bad image at 1: None"),
    ((-1, 0, 0), "bad image at 0: -1"),
    ((0, 0, 2), "bad image at 2: 2"),
    ((0, 7, -3), "bad image at 1: 7"),  # the first bad entry is named
])
def test_mapping_rejects_bad_tables_by_name(table, message):
    with pytest.raises(StructureError) as exc:
        Mapping(exy, ea, table, "m")
    assert str(exc.value) == f"map 'm': {message}"


def test_swap_map_is_neither_hom_nor_omap_as_stored():
    # the source material asserts this map is a homomorphism, but the
    # stored table refutes it at the swapped idempotents
    cls = classify(mid3_swap)
    assert not cls.is_hom
    assert cls.hom.witnesses == ((0, 0), (2, 2))
    assert not cls.is_omap
    assert cls.omap.witnesses == ((0, 1), (0, 2), (1, 2))


def test_diamond_to_chain_is_omap_not_hom():
    cls = classify(d2c)
    assert cls.is_omap and not cls.is_hom
    assert cls.hom.witnesses == ((2, 1),)
    # the separating values: d->e maps to 1/3 while the images compose
    # to 2/3
    d, e = diamond.index("d"), diamond.index("e")
    lhs = d2c.table[diamond.op[d][e]]
    rhs = chain4.op[d2c.table[d]][d2c.table[e]]
    assert chain4.labels[lhs] == "1/3"
    assert chain4.labels[rhs] == "2/3"
    assert lhs != rhs


def test_exy_to_ea_is_ohomomorphism():
    assert classify(exy_to_ea).is_ohom


def test_constant_to_unit_is_ohomomorphism():
    for src, dst in ((exy, ea), (ea, exy), (exy, exy)):
        assert classify(constant_to_unit(src, dst)).is_ohom


def test_identity_is_ohomomorphism_even_on_raw_structures():
    for s in (exy, mid3, diamond, chain4):
        assert classify(identity_map(s)).is_ohom


def test_monotonicity_of_ohomomorphisms():
    # the sweep checks the conclusions only on maps it has classified as
    # O-homomorphisms, and diamond-to-chain is none
    assert _monotonicity(exy_to_ea).holds
    assert _monotonicity(constant_to_unit(exy, ea)).holds
    assert not classify(d2c).is_ohom


def test_kernels_match_definitional_values():
    assert kernel(d2c).member_labels() == ("1", "e")
    assert kernel(exy_id).member_labels() == ("e",)
    assert kernel(exy_to_ea).member_labels() == ("e", "x")
    assert kernel(mid3_id).member_labels() == ("1/2", "0")
    assert kernel(mid3_swap).member_labels() == ("1", "1/2")


def small_algebras():
    return [a.structure for n in (1, 2) for a in enumerate_obci(n)]


def test_kernel_matches_definition_on_small_enumerated_maps():
    algebras = small_algebras()
    for src in algebras:
        for dst in algebras:
            for m in enumerate_maps(src, dst):
                expected = {x for x in range(src.n)
                            if dst.order[dst.unit][m.table[x]]}
                assert set(kernel(m).members()) == expected, m


def test_kernel_alt_agrees_with_kernel_on_fixtures():
    for m in fx.MAPS.values():
        assert kernel_alt(m) == kernel(m), m.name


def test_kernel_alt_of_constant_map_is_everything():
    m = constant_to_unit(exy, exy)
    assert kernel_alt(m) == Subset.full(exy)
    assert kernel(m) == Subset.full(exy)


def test_closed_kernel_condition():
    def condition(m):
        return _closed_kernel_condition(m, kernel(m).mask)

    assert condition(exy_id).holds
    assert condition(constant_to_unit(exy, exy)).holds
    # probing the raw mid3 fixture: its identity map is an O-homomorphism
    # trivially, and the condition fails at 0 (0 -> 1/2 = 1 is outside
    # the kernel {1/2, 0})
    r = condition(mid3_id)
    assert not r.holds
    assert r.witnesses == ((2,),)
    # the sweep checks the condition only on maps it has classified as
    # O-homomorphisms, and diamond-to-chain is none
    assert not classify(d2c).is_ohom


def test_reflection_condition():
    assert check_reflection_condition(exy_id).holds
    r = check_reflection_condition(exy_to_ea)
    assert not r.holds and r.witnesses == ((1,),)
    r = check_reflection_condition(constant_to_unit(exy, exy))
    assert r.witnesses == ((1,), (2,))


def test_image_and_preimage():
    assert image(exy_to_ea, Subset.full(exy)).member_labels() == ("e", "a")
    assert preimage(exy_to_ea, Subset.from_labels(ea, ("e",))).member_labels() == ("e", "x")
    assert preimage(exy_to_ea, Subset.full(ea)) == Subset.full(exy)
    with pytest.raises(UniverseMismatchError):
        image(exy_to_ea, Subset.full(ea))
    with pytest.raises(UniverseMismatchError):
        preimage(exy_to_ea, Subset.full(exy))


def test_enumerate_maps_order_and_count():
    maps = list(enumerate_maps(exy, ea))
    assert len(maps) == 8
    assert maps[0].table == (0, 0, 0)
    assert maps[-1].table == (1, 1, 1)
    tables = [m.table for m in maps]
    assert tables == sorted(tables)


def test_enumerate_maps_to_point(point):
    maps = list(enumerate_maps(exy, point))
    assert len(maps) == 1
    assert classify(maps[0]).is_ohom


def test_enumerate_maps_budget(blank):
    # 8**8 = 16,777,216 candidate maps exceed the fixed budget of 10**7.
    with pytest.raises(BudgetError, match="exceed the budget of 10000000"):
        next(enumerate_maps(blank(8), blank(8)))


def test_enumerate_homs_is_enumerate_maps_filtered_by_classify():
    # Every pair of labelled algebras of sizes 1-3 and of the raw fixtures
    # (whose laws may fail), in order; CI repeats the algebra check over the
    # isomorphism classes of sizes 1-4.
    algebras = [a.structure for n in (1, 2, 3) for a in enumerate_obci(n)]
    counts = []
    for structures in (algebras, list(fx.ALGEBRAS.values())):
        homs = 0
        for src in structures:
            for dst in structures:
                found = list(enumerate_homs(src, dst))
                assert found == [m for m in enumerate_maps(src, dst)
                                 if classify(m).is_hom], (src.name, dst.name)
                homs += len(found)
        counts.append(homs)
    # the 299 O-homomorphisms of sizes 1-3: below size 4 every hom is one
    assert counts[0] == 299 and counts[1] > 0


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=3))
def test_image_preimage_galois_connection(src_mask, dst_mask):
    s = Subset(exy, src_mask)
    t = Subset(ea, dst_mask)
    assert s.mask & ~preimage(exy_to_ea, image(exy_to_ea, s)).mask == 0
    assert image(exy_to_ea, preimage(exy_to_ea, t)).mask & ~t.mask == 0


# --- classify against the cell-by-cell definition -----------------------------

def reference_classify(m, witness_cap):
    """Both laws checked cell by cell, witnesses in lexicographic order."""
    src, dst, t = m.source, m.target, m.table
    cone_s = src.order[src.unit]
    cone_t = dst.order[dst.unit]
    hom_w, omap_w = [], []
    for x in range(src.n):
        for y in range(src.n):
            lhs = t[src.op[x][y]]
            rhs = dst.op[t[x]][t[y]]
            if lhs != rhs:
                hom_w.append((x, y))
            if cone_s[src.op[x][y]] and not cone_t[rhs]:
                omap_w.append((x, y))
    return MorphismClass(reference_report("homomorphism", hom_w, witness_cap),
                         reference_report("o-map", omap_w, witness_cap))


def reference_report(law, witnesses, cap):
    """A law's report from all of its witnesses, the list cut at the cap."""
    if cap is None or len(witnesses) <= cap:
        return CheckReport(law, holds=not witnesses, witnesses=tuple(witnesses))
    return CheckReport(law, holds=False, witnesses=tuple(witnesses[:cap]), truncated=True)


WITNESS_CAPS = (None, 0, 1, 32)


def reference_kernel_mask(m):
    cone_t = m.target.order[m.target.unit]
    return sum(1 << x for x in range(m.source.n) if cone_t[m.table[x]])


def assert_classify_matches_reference(m):
    """`classify` at every cap, the kernel and O-hom verdict of
    `decide_laws`, and `kernel_mask`, the kernel rule's other home,
    against the cell scan."""
    ref = reference_classify(m, None)
    assert decide_laws(m.source, m.target, bytes(m.table)) == \
        (reference_kernel_mask(m), ref.is_ohom), m
    assert kernel_mask(m) == reference_kernel_mask(m), m
    for cap in WITNESS_CAPS:
        assert classify(m, witness_cap=cap) == reference_classify(m, cap), (m, cap)


def test_classify_matches_reference_on_small_enumerated_algebras():
    # every map between the labelled algebras of sizes 1-3
    algebras = [a.structure for n in (1, 2, 3) for a in enumerate_obci(n)]
    maps, kinds = 0, set()
    for src in algebras:
        for dst in algebras:
            for m in enumerate_maps(src, dst):
                assert_classify_matches_reference(m)
                cls = classify(m)
                kinds.add((cls.is_hom, cls.is_omap))
                maps += 1
    assert maps == 3103
    assert kinds == {(True, True), (False, True), (False, False)}


def test_classify_matches_reference_on_fixtures(point):
    for m in fx.MAPS.values():
        assert_classify_matches_reference(m)
    # the raw and invalid fixtures, and the one-element structure
    structures = [*fx.ALGEBRAS.values(), point]
    kinds = set()
    for src in structures:
        for dst in structures:
            for m in enumerate_maps(src, dst):
                assert_classify_matches_reference(m)
                cls = classify(m)
                kinds.add((cls.is_hom, cls.is_omap))
    # the raw fixtures also give homomorphisms that fail the O-map law,
    # the one verdict the mask test alone decides
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_classify_scans_the_cells_of_carriers_beyond_a_byte(blank, point):
    # element indices above 255 fit no byte table, so no fast path applies
    big = blank(257)
    for m in (identity_map(big), constant_to_unit(big, point), constant_to_unit(point, big),
              Mapping(point, big, (256,))):
        assert classify(m, witness_cap=1) == reference_classify(m, 1), m.table[:2]


@st.composite
def raw_maps(draw):
    def structure(name):
        n = draw(st.integers(min_value=1, max_value=3))
        cell = st.integers(min_value=0, max_value=n - 1)
        op = tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))
        order = tuple(tuple(draw(st.booleans()) for _ in range(n)) for _ in range(n))
        return RawStructure(name, tuple(f"{name}{i}" for i in range(n)), op,
                            draw(cell), order)

    src, dst = structure("s"), structure("t")
    table = tuple(draw(st.integers(min_value=0, max_value=dst.n - 1))
                  for _ in range(src.n))
    return Mapping(src, dst, table)


@given(raw_maps())
def test_classify_matches_reference_on_raw_structures(m):
    assert_classify_matches_reference(m)


@given(raw_maps(), st.data())
def test_image_mask_is_the_naive_scan(m, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << m.source.n) - 1))
    image = {m.table[x] for x in range(m.source.n) if mask >> x & 1}
    assert image_mask(m, mask) == sum(1 << v for v in image)
