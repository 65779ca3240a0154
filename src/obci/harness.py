"""Exhaustive small-model enumeration and claim verification.

`enumerate_obci` generates every algebra on {0..n-1} with the unit fixed
at index 0, from the tables the backtracking search `scan.valid_tables`
finds.  The scan space is pruned soundly: the unit row is forced to the
identity (a derived law of the axioms) and relations are only ever
cone-generated, so the linking axiom holds by construction.  A naive
generate-and-test enumerator over raw tables and explicit relation
matrices provides the independent completeness oracle at small sizes.

Claims are data: `CLAIMS` gives each claim id its scope (the algebras,
the maps or the ordered pairs of O-homomorphisms of a sweep), a
hypothesis and a conclusion, and `CLAIM_IDS` is its key order.
`verify_all` machine-checks claims over a scope (enumerated sizes or the
bundled fixtures), counting hypothesis-skipped instances and collecting
counterexamples; `find_counterexample` answers separating-example
queries such as "hom-not-omap".

Subset predicates are decided once per algebra: the pool keeps an atlas
(`substructures.Atlas`) of each algebra, one bitset per predicate over
all subset masks, so hypotheses and subset loops read bits, and images
and preimages are mask arithmetic over the map's table.  A predicate
itself runs again only to name the witness of a failure the atlas shows.

The claims a sweep asks for are checked in one pass per scope, and
`_run_part` is the one place the passes run, each through `_run_pass`,
in the order the scopes first occur among the claims: over the
algebras; over the O-homomorphisms, working out each one's surjectivity,
unit preservation and reflection once; over every map, for
`P-kernel-alt`; and over the O-homomorphism pairs, building each product
once and, per pair, only the pair map's byte table, one join of rows
built once per second factor (`products.pair_rows`), on which both
morphism laws are decided cell by cell and the pair kernel is read
(`morphisms.decide_laws`); the pair map itself is built only to name a
witness.  Both O-hom passes read one list, `_Pool.ohoms`: the
homomorphisms the backtracking search `morphisms.enumerate_homs` finds
without building the other maps, each classified once and its kernel
held as one mask.  Every claim of the O-hom pass asks for an
O-homomorphism, so each other map is one skip for it, counted by
arithmetic: the number of maps less the number of O-homs.  With `jobs=J`
the sweep is cut into J fixed parts of one pool, built first: part k
takes the contiguous slice k of the algebras, of the O-homs and of the
pairs' first factors; part 0, which also runs the map pass whole and
counts the skipped maps, runs in the calling process, and each other
part in one of J-1 worker processes; the caller adds each claim's
partial reports up in k order, so counterexamples stay in pass order.

The map pass and the pair pass memoize on a signature, the part of an
instance that fixes the verdict of every claim of the scope.  A map's is
its target and image set: `_check_maps` decides each MAP claim once per
signature (49 times for the 1,223 maps over the size 1-3 isomorphism
classes) and walks maps only to name those of a failing one.  A pair's
is `_OhomPair.signature`, (ohom, kernels): `_check` runs the conclusions
on the first pair of each signature (256 times for the 5,625 pairs over
the size-3 isomorphism classes) and on every pair of a signature at
which one failed, and checks every other pair by one set lookup.  A memo
lives for one pass, so one `--jobs` part.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Callable, NamedTuple

from . import fixtures as fixture_lib
from . import scan
from .core import (
    BudgetError,
    CheckReport,
    RawStructure,
    ShapeError,
    Subset,
    ValidatedAlgebra,
    bits,
    certified,
    check_derived_identities,
    order_from_cone,
    validate,
)
from .morphisms import (
    Mapping,
    _closed_kernel_condition,
    _monotonicity,
    check_reflection_condition,
    classify,
    decide_laws,
    enumerate_homs,
    enumerate_maps,
    image_mask,
    kernel,
    kernel_alt,
    preimage_mask,
)
from .products import (
    ProductAlgebra,
    direct_product,
    k_upper_sets,
    pair_rows,
    pair_table,
    projection_kernels,
    rectangle_mask,
)
from .substructures import CHECKS, Atlas, SubstructureKind

MAX_CARRIER_SIZE = 4
DEFAULT_NAIVE_BUDGET = 1_000_000

_ENUM_LABELS = ("e", "a", "b", "c", "d", "f", "g", "h")


class Counterexample(NamedTuple):
    context: tuple[str, ...]
    witness: tuple


class SweepReport(NamedTuple):
    claim: str
    instances_checked: int
    hypothesis_skipped: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def verified(self) -> bool:
        return not self.counterexamples


# --- enumeration -----------------------------------------------------------

def _algebra_from_scan(n: int, flat_op: tuple[int, ...], cone_mask: int,
                       name: str) -> ValidatedAlgebra:
    op = tuple(tuple(flat_op[i * n:(i + 1) * n]) for i in range(n))
    return certified(RawStructure(name, _ENUM_LABELS[:n], op, 0,
                                  order_from_cone(op, 0, bits(cone_mask))))


def _canonical_key(n: int, flat_op: tuple[int, ...], cone_mask: int):
    best = None
    for tail in itertools.permutations(range(1, n)):
        p = (0, *tail)
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        table = tuple(inv[flat_op[p[i] * n + p[j]]]
                      for i in range(n) for j in range(n))
        mask = 0
        for i in range(n):
            if cone_mask >> p[i] & 1:
                mask |= 1 << i
        key = (table, mask)
        if best is None or key < best:
            best = key
    return best


def enumerate_obci(n: int, *, up_to_iso: bool = False):
    """Yield every algebra on carrier {0..n-1} with the unit at index 0.

    With up_to_iso, exactly one representative per class under the
    unit-fixing permutations: the lexicographically minimal (table, cone)
    pair.  Order is deterministic: cones ascending, tables lexicographic.
    A carrier larger than MAX_CARRIER_SIZE raises BudgetError.
    """
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > MAX_CARRIER_SIZE:
        raise BudgetError(f"carrier size {n} beyond the supported maximum {MAX_CARRIER_SIZE}")
    i = 0
    for flat_op, cone_mask in scan.valid_tables(n):
        if up_to_iso and (flat_op, cone_mask) != _canonical_key(n, flat_op, cone_mask):
            continue
        yield _algebra_from_scan(n, flat_op, cone_mask, f"n{n}-{i}")
        i += 1


def enumerate_obci_naive(n: int):
    """Generate-and-validate oracle: raw tables x explicit relation matrices.

    No unit-row forcing and no cone representation; every axiom including
    the linking one is checked on the stored matrix.  Yields in (table,
    relation) lexicographic order.
    """
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    candidates = n ** (n * n) * 2 ** (n * n)
    if candidates > DEFAULT_NAIVE_BUDGET:
        raise BudgetError(
            f"naive scan space for size {n} has {candidates} candidates, "
            f"exceeding the budget of {DEFAULT_NAIVE_BUDGET}"
        )
    i = 0
    labels = _ENUM_LABELS[:n]
    for flat_op in itertools.product(range(n), repeat=n * n):
        op = tuple(tuple(flat_op[r * n:(r + 1) * n]) for r in range(n))
        for flat_rel in itertools.product((False, True), repeat=n * n):
            order = tuple(tuple(flat_rel[r * n:(r + 1) * n]) for r in range(n))
            result = validate(RawStructure(f"naive{n}-{i}", labels, op, 0, order))
            if isinstance(result, ValidatedAlgebra):
                yield result
                i += 1


# --- quantification pool ---------------------------------------------------

class _Pool:
    """Algebras and maps a sweep quantifies over: every map between pool
    algebras, or the explicit fixture maps (`map_blocks`), from which
    `_check_maps` decides `P-kernel-alt` per (target, image set); and the
    O-homomorphisms among them (`ohoms`), the one list the O-hom pass and
    the pair pass read.  The other maps are counted, not built.  It holds
    scope data only: the claims of a pass and its slice are arguments of
    `_run_pass`."""

    def __init__(self, algebras: list[ValidatedAlgebra],
                 fixture_maps: list[Mapping] | None = None):
        self.algebras = algebras
        self.fixture_maps = fixture_maps
        self._position = {a.structure: i for i, a in enumerate(algebras)}

    @cached_property
    def atlas(self) -> list[Atlas]:
        """Substructure atlas of each algebra, by pool position."""
        return [Atlas.of(a.structure) for a in self.algebras]

    def map_blocks(self):
        """(i, j, count, maps) per block of maps, in map order: the `count`
        maps between two pool algebras, `maps` iterating them lazily, or one
        fixture map alone; i and j are the pool positions of the endpoints,
        None for a structure that is not validated (fixture scope only)."""
        if self.fixture_maps is not None:
            for m in self.fixture_maps:
                yield (self._position.get(m.source), self._position.get(m.target),
                       1, iter((m,)))
            return
        for i, a in enumerate(self.algebras):
            for j, b in enumerate(self.algebras):
                yield i, j, b.n ** a.n, enumerate_maps(a.structure, b.structure)

    def homs(self):
        """(i, j, map) for every map among which the homomorphisms of the
        scope lie, in map order, unclassified: each homomorphism between pool
        algebras, found by `enumerate_homs`, or each fixture map (i and j as
        in `map_blocks`)."""
        if self.fixture_maps is not None:
            return ((self._position.get(m.source), self._position.get(m.target), m)
                    for m in self.fixture_maps)
        return ((i, j, m) for i, a in enumerate(self.algebras)
                for j, b in enumerate(self.algebras)
                for m in enumerate_homs(a.structure, b.structure))

    @cached_property
    def ohoms(self) -> list[tuple]:
        """(i, j, map, kernel mask) for every O-homomorphism between pool
        algebras, in map order: each map of `homs` with both endpoints in
        the pool that `classify` calls an O-hom, classified once."""
        return [(i, j, m, kernel(m).mask) for i, j, m in self.homs()
                if i is not None and j is not None and classify(m).is_ohom]


def _part_of(items, part):
    """Slice k of `items` cut into `parts` contiguous slices, for `part` =
    (k, parts)."""
    k, parts = part
    return items[k * len(items) // parts:(k + 1) * len(items) // parts]


def _pool_for(sizes=None, fixtures=False, *, up_to_iso=False) -> _Pool:
    """The pool of a scope: every bundled fixture algebra that validates and
    every fixture map when `fixtures` is True, else the algebras of `sizes`
    (1 to 3 by default); sizes or `up_to_iso` beside the fixtures, and a
    repeated size, are refused."""
    if fixtures is True:
        if sizes is not None or up_to_iso:
            raise ValueError("the fixture scope takes no sizes and no up_to_iso")
        algebras = [v for v in map(fixture_lib.validated, fixture_lib.ALGEBRAS)
                    if v is not None]
        return _Pool(algebras, fixture_maps=list(fixture_lib.MAPS.values()))
    if fixtures is not False:
        raise TypeError(f"fixtures is a flag (True or False), got {fixtures!r}")
    if sizes is None:
        sizes = (1, 2, 3)
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"a size is given twice in {tuple(sizes)}")
    return _Pool([a for n in sizes for a in enumerate_obci(n, up_to_iso=up_to_iso)])


def _map_ctx(m: Mapping) -> str:
    body = m.name or "(" + ",".join(str(v) for v in m.table) + ")"
    return f"map={body}"


def _ctx(m: Mapping) -> tuple[str, ...]:
    return (f"X={m.source.name}", f"Y={m.target.name}", _map_ctx(m))


def _set_ctx(tag: str, universe: RawStructure, mask: int) -> str:
    return f"{tag}={{{','.join(Subset(universe, mask).member_labels())}}}"


@cache
def _supersets(n: int, mask: int) -> int:
    """Bitset over the subset masks of an n-element set: those containing `mask`."""
    return sum(1 << s for s in range(1 << n) if s & mask == mask)


def _witness(kind, atlas: Atlas, universe: RawStructure, mask: int):
    """None when `kind` holds on the subset `mask` (read off the atlas);
    otherwise the first witness of its check."""
    if atlas.bits(kind) >> mask & 1:
        return None
    return CHECKS[kind](universe, Subset(universe, mask), witness_cap=1).witnesses[0]


# --- instances ---------------------------------------------------------------

class _AlgebraFacts(NamedTuple):
    algebra: ValidatedAlgebra
    atlas: Atlas

    @property
    def context(self) -> tuple[str, ...]:
        return (f"X={self.algebra.name}",)


class _Map(NamedTuple):
    """A map of the MAP pass."""

    m: Mapping

    @property
    def context(self) -> tuple[str, ...]:
        return _ctx(self.m)


class _MapFacts:
    """One O-homomorphism between pool algebras, its kernel mask read off
    `_Pool.ohoms`, and the facts its claims read, each worked out at most
    once.  The laws that require an O-homomorphism check no precondition:
    the pool has classified the map."""

    def __init__(self, m: Mapping, ker: int, source: Atlas, target: Atlas):
        self.m = m
        self.source, self.target = source, target  # the endpoints' atlases
        self.ker = ker
        self.surjective = m.is_surjective()
        self.unit = m.preserves_unit()

    @cached_property
    def reflects(self) -> bool:
        return check_reflection_condition(self.m).holds

    @cached_property
    def closed_kernel(self) -> CheckReport:
        """The closed-kernel condition, with its first witness."""
        return _closed_kernel_condition(self.m, self.ker)

    @property
    def context(self) -> tuple[str, ...]:
        return _ctx(self.m)


class _OhomPair(NamedTuple):
    """One pair of O-homomorphisms with everything the product claims share.

    The pair map f1 x f2 is held as its byte `table` over the two products;
    `ohom` is its verdict under both morphism laws and `kernels` is (s1,
    s2, ker f1, ker f2, ker(f1 x f2)): the pool positions of the two
    sources and the three kernels, each held as a mask only, the first two
    as `_Pool.ohoms` holds them.  `decide_laws` gives `ohom` and the pair
    kernel on `table` itself, so `T-product-kernel` is never decided from
    ker f1 x ker f2.  The pair map and its kernel as objects, `pm` and
    `k`, are built only when a claim reads them.

    `signature`, (ohom, kernels), fixes the verdict of every PAIR claim,
    and the pair pass memoizes on it: `ohom` is the verdict of
    `T-pairmap-ohom`, and the kernel claims read nothing else, since the
    source product is fixed by (s1, s2), the three kernel subsets by their
    masks over it and its factors, and `k_upper_sets` reads ker f1 and
    ker f2 again off the maps' tables, equal to these masks.
    """

    f1: Mapping
    f2: Mapping
    source: ProductAlgebra
    target: ProductAlgebra
    table: bytes
    ohom: bool
    kernels: tuple

    @property
    def signature(self) -> tuple:
        return self.ohom, self.kernels

    @property
    def pm(self) -> Mapping:
        """The pair map f1 x f2."""
        return Mapping(self.source.combined, self.target.combined, self.table)

    @property
    def k(self) -> Subset:
        """ker(f1 x f2)."""
        return Subset(self.source.combined, self.kernels[4])

    @property
    def context(self) -> tuple[str, ...]:
        return tuple(f"{tag}={f.source.name}->{f.target.name}:{_map_ctx(f)}"
                     for tag, f in (("f1", self.f1), ("f2", self.f2)))


def _ohom_pairs(pool: _Pool, part):
    """The ordered pairs of O-homs whose first factor lies in slice `part`
    = (k, parts) of `pool.ohoms`, in pair order.

    Products are cached for the pass by the pool positions of their
    factors and certified by `direct_product` once each.  Every OBCI axiom
    is a universal Horn sentence, so a product of two algebras is one
    (A. Horn, JSL 1951): a failed certification raises RuntimeError, as
    in `core.certified`.  Pairs are streamed, never stored.  Each second
    factor's `pair_rows` are built once, for the values of every first
    factor (no pool algebra has more than `MAX_CARRIER_SIZE` elements, so
    every entry fits a byte), so per pair the pair map's table is one join
    of rows picked by f1's table, on which `decide_laws` decides both laws
    and reads the pair kernel.
    """
    n1 = max((a.n for a in pool.algebras), default=0)
    seconds = [(s2, t2, f2, k2, pair_rows(f2, n1)) for s2, t2, f2, k2 in pool.ohoms]

    @cache
    def product_of(i1, i2):
        left, right = pool.algebras[i1].structure, pool.algebras[i2].structure
        product, report = direct_product(left, right)
        if not report.holds:
            raise RuntimeError(f"the product {product.combined.name} of two "
                               f"algebras is not an algebra")
        return product

    for s1, t1, f1, k1 in _part_of(pool.ohoms, part):
        for s2, t2, f2, k2, rows in seconds:
            src, dst = product_of(s1, s2), product_of(t1, t2)
            table = pair_table(f1, rows)
            ker, ohom = decide_laws(src.combined, dst.combined, table)
            yield _OhomPair(f1, f2, src, dst, table, ohom, (s1, s2, k1, k2, ker))


# --- hypotheses ----------------------------------------------------------------

def _always(instance):
    return True


def _unit(f: _MapFacts):
    return f.unit


def _surjective(f: _MapFacts):
    return f.surjective


def _surjective_unit(f: _MapFacts):
    return f.surjective and f.unit


def _kernel_is_closed(f: _MapFacts):
    """ker is closed (a subalgebra) or ordered-closed (an ordered
    subalgebra in the cone)."""
    return bool((f.source.subalgebra
                 | f.source.ordered_subalgebra & f.source.cone) >> f.ker & 1)


# --- conclusions: instance -> [(extra context, witness)] ------------------------

def _identities(f: _AlgebraFacts):
    r = check_derived_identities(f.algebra)
    return [((), r.witnesses[0])] if not r.holds else ()


def _ordfilter_is_filter(f: _AlgebraFacts, mask):
    s = f.algebra.structure
    w = _witness(FILTER, f.atlas, s, mask)
    return [((_set_ctx("F", s, mask),), w)] if w is not None else ()


def _monotone(f: _MapFacts):
    r = _monotonicity(f.m)
    return [((), r.witnesses[0])] if not r.holds else ()


def _kernel_alt(f: _Map):
    diff = kernel(f.m).mask ^ kernel_alt(f.m).mask
    return [((), Subset(f.m.source, diff).members())] if diff else ()


def _closed_kernel(f: _MapFacts):
    if f.closed_kernel.holds:
        return ()
    case = "closed" if f.source.subalgebra >> f.ker & 1 else "ordered-closed"
    return [((f"case={case}",), f.closed_kernel.witnesses[0])]


def _kernel_is(*kinds):
    """ker is a subset of each kind; with several, a failure names its law."""
    def conclusion(f: _MapFacts):
        found = []
        for kind in kinds:
            w = _witness(kind, f.source, f.m.source, f.ker)
            if w is not None:
                law = (f"law={kind.value}",) if len(kinds) > 1 else ()
                found.append(((_set_ctx("ker", f.m.source, f.ker), *law), w))
        return found
    return conclusion


def _preimages(hypothesis, kind) -> Claim:
    """Over maps, then every `kind` subset G of the target: the preimage of
    G is a `kind` subset of the source."""
    def subsets(f: _MapFacts):
        return f.m.target.n, f.target.bits(kind)

    def conclusion(f: _MapFacts, g):
        X, Y = f.m.source, f.m.target
        pre = preimage_mask(f.m, g)
        w = _witness(kind, f.source, X, pre)
        if w is None:
            return ()
        return [((_set_ctx("G", Y, g), _set_ctx("result", X, pre)), w)]

    return Claim(OHOM, hypothesis, conclusion, subsets)


def _images(hypothesis, kind, *, in_cone=False, above_kernel=False) -> Claim:
    """Over maps, then every `kind` subset F of the source (inside the cone,
    containing the kernel, if asked): the image of F is a `kind` subset of
    the target."""
    def subsets(f: _MapFacts):
        chosen = f.source.bits(kind)
        if in_cone:
            chosen &= f.source.cone
        if above_kernel:
            chosen &= _supersets(f.m.source.n, f.ker)
        return f.m.source.n, chosen

    def conclusion(f: _MapFacts, mask):
        X, Y = f.m.source, f.m.target
        img = image_mask(f.m, mask)
        w = _witness(kind, f.target, Y, img)
        if w is None:
            return ()
        return [((_set_ctx("F", X, mask), _set_ctx("result", Y, img)), w)]

    return Claim(OHOM, hypothesis, conclusion, subsets)


def _bijection(kind, *, in_cone=False):
    """Image and preimage are inverse bijections between the source's `kind`
    subsets containing the kernel (inside the cone, if asked) and the
    target's `kind` subsets; one counterexample per failing law."""
    def conclusion(f: _MapFacts):
        m, X, Y = f.m, f.m.source, f.m.target
        fam_x = f.source.bits(kind) & _supersets(X.n, f.ker)
        if in_cone:
            fam_x &= f.source.cone
        fam_y = f.target.bits(kind)
        found, images = [], 0
        for F in bits(fam_x):
            img = image_mask(m, F)
            images |= 1 << img
            labels = Subset(Y, img).member_labels()
            if not fam_y >> img & 1:
                found.append((("law=image-in-family", _set_ctx("F", X, F)), labels))
            if preimage_mask(m, img) != F:
                found.append((("law=preimage-inverts", _set_ctx("F", X, F)), labels))
        if images.bit_count() != fam_x.bit_count():
            found.append((("law=injective",), ()))
        if images != fam_y:
            found.append((("law=surjective",), ()))
        for G in bits(fam_y):
            pre = preimage_mask(m, G)
            if not fam_x >> pre & 1 or image_mask(m, pre) != G:
                found.append((("law=preimage-in-family", _set_ctx("G", Y, G)),
                              Subset(X, pre).member_labels()))
        return found
    return conclusion


def _pairmap_ohom(p: _OhomPair):
    if p.ohom:
        return ()
    cls = classify(p.pm)
    return [((), (cls.hom.witnesses or cls.omap.witnesses)[0])]


def _product_kernel(p: _OhomPair):
    _, _, k1, k2, k = p.kernels
    rhs = rectangle_mask(k1, k2, p.f2.source.n)
    if k == rhs:
        return ()
    return [((), Subset(p.source.combined, k ^ rhs).members())]


def _product_kernel_projection(p: _OhomPair):
    try:
        left, right = projection_kernels(p.source, p.k)
    except ShapeError:
        return [((), ("non-rectangular",))]
    if len(p.k) and (left.mask, right.mask) != p.kernels[2:4]:
        return [((), (left.member_labels(), right.member_labels()))]
    return ()


def _ksets(p: _OhomPair):
    _, _, k1, k2, k = p.kernels
    first, second, equal = k_upper_sets(Subset(p.f1.source, k1), Subset(p.f2.source, k2),
                                        p.f1, p.f2, source=p.source)
    unit_pair = p.source.pair_index(p.f1.source.unit, p.f2.source.unit)
    problems = []
    if not equal:
        problems.append(((), ("sides-differ",)))
    if first.mask != k:
        problems.append(((), ("differs-from-pair-kernel",)))
    if unit_pair not in first:
        problems.append(((), ("unit-missing",)))
    return problems


# --- the claims ------------------------------------------------------------------

ALGEBRA, MAP, OHOM, PAIR = "algebra", "map", "ohom", "pair"


class Claim(NamedTuple):
    """A claim as data.

    `scope` names what it quantifies over: the algebras, every map (MAP),
    the O-homomorphisms (OHOM), or the ordered pairs of O-homomorphisms of
    a sweep.  An instance failing `hypothesis` is one skip; an OHOM pass
    sees the O-homomorphisms only and counts every other map as a skip
    without building it.
    Without `subsets`, `conclusion(instance)` checks an instance; with it,
    `subsets(instance)` gives (n, chosen) and `conclusion(instance, mask)`
    checks each subset mask in the bitset `chosen`, the other masks of the
    n-element universe being skipped.  A conclusion returns (extra
    context, witness) per violation, each naming the first witness of the
    check that found it.

    The MAP and PAIR passes decide a claim once per signature of its
    instance (see `_check_maps` and `_OhomPair`), so every claim of those
    scopes takes every instance (its hypothesis is `_always`) and has a
    verdict its scope's signature fixes.
    """

    scope: str
    hypothesis: Callable
    conclusion: Callable
    subsets: Callable | None = None


FILTER, ORDERED_FILTER = SubstructureKind.FILTER, SubstructureKind.ORDERED_FILTER
SUBALGEBRA, ORDERED_SUBALGEBRA = (SubstructureKind.SUBALGEBRA,
                                  SubstructureKind.ORDERED_SUBALGEBRA)

CLAIMS: dict[str, Claim] = {
    "P-identities": Claim(ALGEBRA, _always, _identities),
    "P-ordfilter-is-filter": Claim(
        ALGEBRA, _always, _ordfilter_is_filter,
        lambda f: (f.algebra.n, f.atlas.ordered_filter & f.atlas.cone)),
    "P-monotone": Claim(OHOM, _always, _monotone),
    "P-kernel-alt": Claim(MAP, _always, _kernel_alt),
    "P-closed-kernel": Claim(OHOM, _kernel_is_closed, _closed_kernel),
    "T-kernel-closed-converse": Claim(OHOM, lambda f: f.unit and f.closed_kernel.holds,
                                      _kernel_is(SUBALGEBRA, ORDERED_SUBALGEBRA)),
    "T-subalg-preimage": _preimages(_always, SUBALGEBRA),
    "T-subalg-image": _images(_surjective, SUBALGEBRA),
    "T-ordsubalg-preimage": _preimages(_always, ORDERED_SUBALGEBRA),
    "T-ordsubalg-image-cone": _images(_surjective, ORDERED_SUBALGEBRA, in_cone=True),
    "T-ordsubalg-image-reflect": _images(lambda f: f.surjective and f.reflects,
                                         ORDERED_SUBALGEBRA),
    "T-kernel-filter": Claim(OHOM, _always, _kernel_is(FILTER)),
    "T-kernel-ordfilter": Claim(OHOM, _always, _kernel_is(ORDERED_FILTER)),
    "T-filter-preimage": _preimages(_unit, FILTER),
    "T-filter-image": _images(_surjective_unit, FILTER),
    "T-ordfilter-preimage": _preimages(_unit, ORDERED_FILTER),
    "T-ordfilter-image-reflect": _images(lambda f: _surjective_unit(f) and f.reflects,
                                         ORDERED_FILTER),
    "T-ordfilter-image-kercone": _images(_surjective_unit, ORDERED_FILTER,
                                         in_cone=True, above_kernel=True),
    "T-filter-bijection": Claim(OHOM, _surjective_unit, _bijection(FILTER)),
    "T-ordfilter-bijection": Claim(OHOM, _surjective_unit,
                                   _bijection(ORDERED_FILTER, in_cone=True)),
    "T-pairmap-ohom": Claim(PAIR, _always, _pairmap_ohom),
    "T-product-kernel": Claim(PAIR, _always, _product_kernel),
    "T-product-kernel-projection": Claim(PAIR, _always, _product_kernel_projection),
    "T-ksets": Claim(PAIR, _always, _ksets),
}

CLAIM_IDS = tuple(CLAIMS)


def _check(claims, instances, skipped=0):
    """Claims of one scope in one pass over its instances.

    An instance failing a claim's hypothesis is one skip, as is each of
    `skipped` instances the pass never sees.  Over PAIR claims the pass
    keeps each pair signature (`_OhomPair.signature`) at which every claim
    held, and counts a later pair with that signature as checked for every
    claim at the cost of one set lookup; any other instance runs every
    conclusion, so each failing instance is named.  Returns claim id ->
    (checked, skipped, counterexamples), the counterexamples in instance
    order.
    """
    tallies = {c: [0, skipped, []] for c in claims}
    specs = [(*CLAIMS[c], tallies[c]) for c in claims]
    memo = {CLAIMS[c].scope for c in claims} == {PAIR}
    held, repeats = set(), 0  # the pair signatures at which every claim held
    for inst in instances:
        if memo:
            signature = inst.signature
            if signature in held:
                repeats += 1
                continue
        every_held = True
        for _, hypothesis, conclusion, subsets, tally in specs:
            if not hypothesis(inst):
                tally[1] += 1
                continue
            if subsets is None:
                tally[0] += 1
                found = conclusion(inst)
            else:
                n, chosen = subsets(inst)
                count = chosen.bit_count()
                tally[0] += count
                tally[1] += (1 << n) - count
                found = [v for mask in bits(chosen) for v in conclusion(inst, mask)]
            for extra, witness in found:
                every_held = False
                tally[2].append(Counterexample(inst.context + extra, witness))
        if memo and every_held:
            held.add(signature)
    for tally in tallies.values():
        tally[0] += repeats
    return {c: tuple(t) for c, t in tallies.items()}


def _check_maps(claims, pool):
    """The MAP claims over every map, as `_check` would report them, without
    a loop over the maps.

    Every map of a block between pool algebras (see `_Pool.map_blocks`)
    counts as checked, every other map as skipped.  A map's signature is
    its target and image set I, which fixes the verdict of `P-kernel-alt`:
    `kernel` and `kernel_alt` are the preimages, under the map, of target
    sets fixed by the two, the cone meeting I and {v in I : some u in I has
    e <= u and e <= u->v}, so they are equal for every map with image I or
    for none.  Each claim is decided once per signature, on the
    representative map from the target to itself with image I.  A block
    is walked, in map order, only when a signature of its target fails,
    and then only to name each map whose signature failed.
    """
    tallies = {c: [0, 0, []] for c in claims}

    @cache
    def failing_at(j: int) -> set:
        """The (claim, image set) pairs failing at the target in position j."""
        target = pool.algebras[j].structure
        reps = [(image, _Map(_representative(target, image)))
                for image in range(1, 1 << target.n)]
        return {(c, image) for c in claims for image, rep in reps if CLAIMS[c].conclusion(rep)}

    for i, j, count, maps in pool.map_blocks():
        if i is None or j is None:
            for claim in claims:
                tallies[claim][1] += count
            continue
        for claim in claims:
            tallies[claim][0] += count
        if not failing_at(j):
            continue
        for m in maps:
            inst, image = _Map(m), image_mask(m, (1 << m.source.n) - 1)
            for claim in claims:
                if (claim, image) in failing_at(j):
                    tallies[claim][2].extend(
                        Counterexample(inst.context + extra, witness)
                        for extra, witness in CLAIMS[claim].conclusion(inst))
    return {c: tuple(t) for c, t in tallies.items()}


def _representative(target: RawStructure, image: int) -> Mapping:
    """A map target -> target with the given nonempty image set: its members
    in ascending order, the last repeated."""
    members = list(bits(image))
    return Mapping(target, target, members + members[-1:] * (target.n - len(members)))


def _known(claim: str) -> str:
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim id {claim!r}")
    return claim


def verify_all(claims=CLAIM_IDS, *, sizes=None, fixtures=False,
               up_to_iso: bool = False, jobs: int = 1) -> list[SweepReport]:
    """Run several claims over one shared scope, split into `jobs` parts;
    see CLAIM_IDS for names.

    The scope's pool is built once, here, and every part slices it; part
    0, with the map pass and the unseen-map count, runs in this process,
    each other part in a worker that inherits the pool or receives it
    pickled (`_run_parts`).  Reports come back in claim order and equal a
    serial run's: each claim's partial reports are added up, their
    counterexamples concatenated in part order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    claims = tuple(_known(c) for c in claims)
    if not claims:
        return []
    args = (claims, _pool_for(sizes, fixtures, up_to_iso=up_to_iso))
    return [SweepReport(c, sum(r.instances_checked for r in reports),
                        sum(r.hypothesis_skipped for r in reports),
                        tuple(ce for r in reports for ce in r.counterexamples))
            for c, *reports in zip(claims, *_run_parts(args, jobs))]


def _run_pass(pool: _Pool, scope: str, claims, part):
    """The claims of one scope in one pass over slice `part` = (k, parts) of
    its instances: the algebras, the O-homs, or the pairs' first factors.
    Returns claim id -> (checked, skipped, counterexamples).

    Part 0, the caller's, runs the map pass whole and counts each map the
    O-hom pass never sees as one skip, so that the parts add up to each
    once; the workers' parts report zero for the MAP claims.
    """
    first = part[0] == 0
    if scope == MAP:
        return _check_maps(claims, pool) if first else _check(claims, ())
    unseen = 0
    if scope == ALGEBRA:
        instances = (_AlgebraFacts(pool.algebras[i], pool.atlas[i])
                     for i in _part_of(range(len(pool.algebras)), part))
    elif scope == OHOM:
        instances = (_MapFacts(m, ker, pool.atlas[i], pool.atlas[j])
                     for i, j, m, ker in _part_of(pool.ohoms, part))
        if first:
            unseen = sum(count for _, _, count, _ in pool.map_blocks()) - len(pool.ohoms)
    else:
        instances = _ohom_pairs(pool, part)
    return _check(claims, instances, unseen)


def _run_part(claims, pool: _Pool, k, parts):
    """Part k of `parts`: each claim's report over slice k of the algebras,
    the O-homs and the O-hom pairs' first factors, and in part 0 over every
    map, in claim order.  This is the one place passes run: one per scope,
    in the order the scopes first occur among `claims`, over one pool."""
    results = {}
    for s in dict.fromkeys(CLAIMS[c].scope for c in claims):
        group = [c for c in dict.fromkeys(claims) if CLAIMS[c].scope == s]
        results.update(_run_pass(pool, s, group, (k, parts)))
    return [SweepReport(c, checked, skipped, tuple(ces))
            for c in claims for checked, skipped, ces in [results[c]]]


def _run_parts(args, jobs):
    """`_run_part(*args, k, jobs)` for every k: parts 1 to jobs-1 each in a
    worker process started first, part 0 in this process (with jobs=1 no
    worker, pipe or `multiprocessing` import), then each worker's answer
    in part order, so a failing worker is reported only once part 0 ends.
    A worker's exception is raised with its traceback as the cause, and a
    worker that dies without an answer raises RuntimeError; on any error
    every worker is stopped, and every worker is joined.
    """
    if jobs > 1:
        import multiprocessing
    workers = []
    try:
        for k in range(1, jobs):
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_worker, args=(writer, *args, k, jobs))
            proc.start()
            writer.close()  # the worker holds the only write end: EOF if it dies
            workers.append((proc, reader))
        results = [_run_part(*args, 0, jobs)]
        for k, (proc, reader) in enumerate(workers, 1):
            try:
                ok, value = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"worker {k} exited with code "
                                   f"{proc.exitcode} without an answer") from None
            if not ok:
                exc, remote_traceback = value
                raise exc from RuntimeError(f"in worker {k}:\n{remote_traceback}")
            results.append(value)
        return results
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, reader in workers:
            reader.close()
            proc.join()


def _worker(conn, *args):
    """Body of a worker process: send (True, part results) or
    (False, (exception, traceback text)) to the parent."""
    try:
        answer = (True, _run_part(*args))
    except Exception as exc:
        import traceback

        answer = (False, (exc, traceback.format_exc()))
    conn.send(answer)
    conn.close()


SEARCH_QUERIES = ("hom-not-omap", "omap-not-hom")


def find_counterexample(query: str, *, sizes=None, fixtures=False,
                        up_to_iso: bool = False) -> Counterexample | None:
    """First witness for a separating-example query or a claim id."""
    if query in SEARCH_QUERIES:
        pool = _pool_for(sizes, fixtures, up_to_iso=up_to_iso)
        if query == "hom-not-omap":  # such a map is a hom, so only homs are walked
            maps = (m for _, _, m in pool.homs())
        else:  # such a map is no hom, so every map is walked
            maps = (m for *_, block in pool.map_blocks() for m in block)
        for m in maps:
            cls = classify(m)
            if query == "hom-not-omap" and cls.is_hom and not cls.is_omap:
                return Counterexample(_ctx(m), cls.omap.witnesses[0])
            if query == "omap-not-hom" and cls.is_omap and not cls.is_hom:
                return Counterexample(_ctx(m), cls.hom.witnesses[0])
        return None
    if query in CLAIM_IDS:
        report, = verify_all((query,), sizes=sizes, fixtures=fixtures,
                             up_to_iso=up_to_iso)
        return report.counterexamples[0] if report.counterexamples else None
    raise ValueError(f"unknown search query {query!r}")
