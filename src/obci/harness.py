"""Exhaustive small-model enumeration and claim verification.

`enumerate_obci` generates every algebra on {0..n-1} with the unit fixed
at index 0.  The scan space is pruned soundly: the unit row is forced to
the identity (a derived law of the axioms) and relations are only ever
cone-generated, so the linking axiom holds by construction.  A naive
generate-and-test enumerator over raw tables and explicit relation
matrices provides the independent completeness oracle at small sizes.

`verify_claim` machine-checks one named proposition/theorem over a scope
(enumerated sizes or the bundled fixtures), counting hypothesis-skipped
instances and collecting counterexamples; `find_counterexample` answers
separating-example queries such as "hom-not-omap".

The four product claims (`T-pairmap-ohom`, `T-product-kernel`,
`T-product-kernel-projection`, `T-ksets`) quantify over ordered pairs of
O-homomorphisms.  `verify_all` checks every product claim it is given in
one shared pass over those pairs, building each pair map, its kernel and
each product once.  With `jobs=J` the work is cut into J fixed parts, each
run by a worker process that builds the pool once: part k takes the pairs
whose first factor lies in slice k of the O-homs, plus every J-th other
claim from position k, and the parent adds the partial reports up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import fixtures as fixture_lib
from . import scan
from .core import (
    AXIOM_IDS,
    DEFAULT_WITNESS_CAP,
    BudgetError,
    RawStructure,
    ShapeError,
    Subset,
    ValidatedAlgebra,
    check_axiom,
    check_derived_identities,
)
from .morphisms import (
    Mapping,
    classify,
    check_closed_kernel_condition,
    check_reflection_condition,
    image,
    kernel,
    kernel_alt,
    monotonicity_report,
    preimage,
)
from .products import (
    ProductAlgebra,
    k_upper_sets,
    pair_map,
    product_structure,
    projection_kernels,
    rectangle_mask,
)
from .substructures import (
    is_filter,
    is_ordered_filter,
    is_ordered_subalgebra,
    is_subalgebra,
    satisfies_cone_condition,
)

DEFAULT_ALGEBRA_BUDGET = 200_000_000
DEFAULT_NAIVE_BUDGET = 1_000_000

_ENUM_LABELS = ("e", "a", "b", "c", "d", "f", "g", "h")

CLAIM_IDS = (
    "P-identities",
    "P-ordfilter-is-filter",
    "P-monotone",
    "P-kernel-alt",
    "P-closed-kernel",
    "T-kernel-closed-converse",
    "T-subalg-preimage",
    "T-subalg-image",
    "T-ordsubalg-preimage",
    "T-ordsubalg-image-cone",
    "T-ordsubalg-image-reflect",
    "T-kernel-filter",
    "T-kernel-ordfilter",
    "T-filter-preimage",
    "T-filter-image",
    "T-ordfilter-preimage",
    "T-ordfilter-image-reflect",
    "T-ordfilter-image-kercone",
    "T-filter-bijection",
    "T-ordfilter-bijection",
    "T-pairmap-ohom",
    "T-product-kernel",
    "T-product-kernel-projection",
    "T-ksets",
)


@dataclass(frozen=True)
class Counterexample:
    context: tuple[str, ...]
    witness: tuple


@dataclass(frozen=True)
class SweepReport:
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
    cone = [bool(cone_mask >> i & 1) for i in range(n)]
    order = tuple(tuple(cone[op[i][j]] for j in range(n)) for i in range(n))
    s = RawStructure(name, _ENUM_LABELS[:n], op, 0, order)
    return ValidatedAlgebra(s, Subset(s, cone_mask))


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


def enumerate_obci(n: int, *, up_to_iso: bool = False,
                   budget: int | None = DEFAULT_ALGEBRA_BUDGET):
    """Yield every algebra on carrier {0..n-1} with the unit at index 0.

    With up_to_iso, exactly one representative per class under the
    unit-fixing permutations: the lexicographically minimal (table, cone)
    pair.  Order is deterministic: cones ascending, tables lexicographic.
    """
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > len(_ENUM_LABELS):
        raise BudgetError(f"carrier size {n} beyond supported maximum {len(_ENUM_LABELS)}")
    scan.check_budget(n, budget)
    i = 0
    for flat_op, cone_mask in scan.valid_tables(n):
        if up_to_iso and (flat_op, cone_mask) != _canonical_key(n, flat_op, cone_mask):
            continue
        yield _algebra_from_scan(n, flat_op, cone_mask, f"n{n}-{i}")
        i += 1


def enumerate_obci_naive(n: int, *, budget: int | None = DEFAULT_NAIVE_BUDGET):
    """Generate-and-test oracle: raw tables x explicit relation matrices.

    No unit-row forcing and no cone representation; every axiom including
    the linking one is checked on the stored matrix.  Yields in (table,
    relation) lexicographic order.
    """
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    candidates = n ** (n * n) * 2 ** (n * n)
    if budget is not None and candidates > budget:
        raise BudgetError(
            f"naive scan space for size {n} has {candidates} candidates, "
            f"exceeding the budget of {budget}"
        )
    i = 0
    labels = _ENUM_LABELS[:n]
    for flat_op in itertools.product(range(n), repeat=n * n):
        op = tuple(tuple(flat_op[r * n:(r + 1) * n]) for r in range(n))
        for flat_rel in itertools.product((False, True), repeat=n * n):
            order = tuple(tuple(flat_rel[r * n:(r + 1) * n]) for r in range(n))
            s = RawStructure(f"naive{n}-{i}", labels, op, 0, order)
            if all(check_axiom(s, a, witness_cap=1).holds for a in AXIOM_IDS):
                yield ValidatedAlgebra(s, Subset.from_indices(s, s.cone_members()))
                i += 1


# --- quantification pool ---------------------------------------------------

class _Pool:
    """Algebras and classified maps a sweep quantifies over."""

    def __init__(self, algebras: list[ValidatedAlgebra],
                 fixture_maps: list[Mapping] | None = None):
        self.algebras = algebras
        self.fixture_maps = fixture_maps
        self._by_structure = {a.structure: a for a in algebras}
        self._map_cache: dict[tuple[int, int], list] = {}
        # Product claims a sweep asks for, run together on the first request,
        # and the part (k, parts) of the first factor's O-homs they cover.
        self.product_claims: tuple[str, ...] = ()
        self.product_part = (0, 1)
        self._product_results: dict[str, tuple] = {}

    def lookup(self, s: RawStructure) -> ValidatedAlgebra | None:
        return self._by_structure.get(s)

    def _pair_maps(self, i: int, j: int):
        key = (i, j)
        if key not in self._map_cache:
            src = self.algebras[i].structure
            dst = self.algebras[j].structure
            entries = []
            for table in itertools.product(range(dst.n), repeat=src.n):
                m = Mapping(src, dst, table)
                entries.append((m, classify(m)))
            self._map_cache[key] = entries
        return self._map_cache[key]

    def maps(self):
        """Yield (src_algebra, dst_algebra, mapping, class); an endpoint is
        None when its structure is not validated (fixture scope only)."""
        if self.fixture_maps is not None:
            for m in self.fixture_maps:
                yield (self.lookup(m.source), self.lookup(m.target), m, classify(m))
            return
        for i in range(len(self.algebras)):
            for j in range(len(self.algebras)):
                A, B = self.algebras[i], self.algebras[j]
                for m, cls in self._pair_maps(i, j):
                    yield (A, B, m, cls)

    def ohoms(self):
        """(source index, target index, map) for every O-homomorphism
        between pool algebras, in map order."""
        index = {id(a): i for i, a in enumerate(self.algebras)}
        return [(index[id(A)], index[id(B)], m) for A, B, m, cls in self.maps()
                if A is not None and B is not None and cls.is_ohom]

    def product_sweep(self, claim: str, cap):
        """One product claim's (checked, skipped, counterexamples).

        The first request runs it together with `product_claims` in one
        pass over the O-homomorphism pairs of `product_part`; later
        requests read the result.
        """
        if claim not in self._product_results:
            claims = tuple(dict.fromkeys((claim, *self.product_claims)))
            self._product_results.update(
                _run_products(self, cap, claims, self.product_part))
        return self._product_results[claim]


def _pool_for(sizes=None, fixtures=None, *, up_to_iso=False) -> _Pool:
    if fixtures is not None:
        names = list(fixtures) if fixtures is not True else None
        algebras = []
        for name, s in fixture_lib.ALGEBRAS.items():
            if names is not None and name not in names:
                continue
            v = fixture_lib.validated(name)
            if v is not None:
                algebras.append(v)
        maps = [m for name, m in fixture_lib.MAPS.items()
                if names is None or name in names]
        return _Pool(algebras, fixture_maps=maps)
    if sizes is None:
        sizes = (1, 2, 3)
    algebras = []
    for n in sizes:
        algebras.extend(enumerate_obci(n, up_to_iso=up_to_iso))
    return _Pool(algebras)


def _map_ctx(m: Mapping) -> str:
    body = m.name or "(" + ",".join(str(v) for v in m.table) + ")"
    return f"map={body}"


def _ctx(A, B, m: Mapping) -> tuple[str, ...]:
    return (f"X={(A.name if A else m.source.name)}",
            f"Y={(B.name if B else m.target.name)}",
            _map_ctx(m))


def _set_ctx(tag: str, s: Subset) -> str:
    return f"{tag}={{{','.join(s.member_labels())}}}"


# --- claim runners ---------------------------------------------------------

def _run_identities(pool, cap):
    checked, skipped, ces = 0, 0, []
    for A in pool.algebras:
        checked += 1
        r = check_derived_identities(A, witness_cap=cap)
        if not r.holds:
            ces.append(Counterexample((f"X={A.name}",), r.witnesses[0]))
    return checked, skipped, ces


def _run_ordfilter_is_filter(pool, cap):
    checked, skipped, ces = 0, 0, []
    for A in pool.algebras:
        s = A.structure
        for mask in range(1 << s.n):
            S = Subset(s, mask)
            if not (is_ordered_filter(s, S, witness_cap=1).holds
                    and satisfies_cone_condition(s, S, witness_cap=1).holds):
                skipped += 1
                continue
            checked += 1
            r = is_filter(s, S, witness_cap=cap)
            if not r.holds:
                ces.append(Counterexample((f"X={A.name}", _set_ctx("F", S)), r.witnesses[0]))
    return checked, skipped, ces


def _map_sweep(pool, cap, hypothesis, conclusion):
    """Generic sweep over the map pool.

    hypothesis(A, B, m, cls) -> bool; conclusion(A, B, m, cls) -> list of
    (extra_context, witness) violations for that instance.
    """
    checked, skipped, ces = 0, 0, []
    for A, B, m, cls in pool.maps():
        if A is None or B is None or not hypothesis(A, B, m, cls):
            skipped += 1
            continue
        checked += 1
        for extra, witness in conclusion(A, B, m, cls):
            ces.append(Counterexample(_ctx(A, B, m) + extra, witness))
    return checked, skipped, ces


def _is_ohom(A, B, m, cls):
    return cls.is_ohom


def _run_monotone(pool, cap):
    def conclusion(A, B, m, cls):
        r = monotonicity_report(m, witness_cap=cap)
        return [] if r.holds else [((), r.witnesses[0])]
    return _map_sweep(pool, cap, _is_ohom, conclusion)


def _run_kernel_alt(pool, cap):
    def conclusion(A, B, m, cls):
        lhs, rhs = kernel(m), kernel_alt(m)
        if lhs.mask == rhs.mask:
            return []
        diff = tuple(sorted(set(lhs.members()) ^ set(rhs.members())))
        return [((), diff)]
    return _map_sweep(pool, cap, lambda A, B, m, cls: True, conclusion)


def _run_closed_kernel(pool, cap):
    checked, skipped, ces = 0, 0, []
    for A, B, m, cls in pool.maps():
        if A is None or B is None or not cls.is_ohom:
            skipped += 1
            continue
        ker = kernel(m)
        s = A.structure
        hyp_closed = is_subalgebra(s, ker, witness_cap=1).holds
        hyp_oclosed = (is_ordered_subalgebra(s, ker, witness_cap=1).holds
                       and satisfies_cone_condition(s, ker, witness_cap=1).holds)
        if not (hyp_closed or hyp_oclosed):
            skipped += 1
            continue
        checked += 1
        r = check_closed_kernel_condition(m, witness_cap=cap)
        if not r.holds:
            which = "closed" if hyp_closed else "ordered-closed"
            ces.append(Counterexample(_ctx(A, B, m) + (f"case={which}",), r.witnesses[0]))
    return checked, skipped, ces


def _run_kernel_closed_converse(pool, cap):
    def hypothesis(A, B, m, cls):
        return (cls.is_ohom and m.preserves_unit()
                and check_closed_kernel_condition(m, witness_cap=1).holds)

    def conclusion(A, B, m, cls):
        ker = kernel(m)
        out = []
        r1 = is_subalgebra(A.structure, ker, witness_cap=cap)
        if not r1.holds:
            out.append(((_set_ctx("ker", ker), "law=subalgebra"), r1.witnesses[0]))
        r2 = is_ordered_subalgebra(A.structure, ker, witness_cap=cap)
        if not r2.holds:
            out.append(((_set_ctx("ker", ker), "law=ordered-subalgebra"), r2.witnesses[0]))
        return out

    return _map_sweep(pool, cap, hypothesis, conclusion)


def _subset_transfer_sweep(pool, cap, *, map_hypothesis, side, subset_predicate,
                           subset_extra=None, result_predicate):
    """Image/preimage theorems: quantify over (map, subset) instances."""
    checked, skipped, ces = 0, 0, []
    for A, B, m, cls in pool.maps():
        if A is None or B is None or not map_hypothesis(A, B, m, cls):
            skipped += 1
            continue
        universe = B.structure if side == "target" else A.structure
        for mask in range(1 << universe.n):
            S = Subset(universe, mask)
            if not subset_predicate(universe, S, witness_cap=1).holds:
                skipped += 1
                continue
            if subset_extra is not None and not subset_extra(A, B, m, S):
                skipped += 1
                continue
            checked += 1
            if side == "target":
                out = preimage(m, S)
                out_structure = A.structure
            else:
                out = image(m, S)
                out_structure = B.structure
            r = result_predicate(out_structure, out, witness_cap=cap)
            if not r.holds:
                tag = "G" if side == "target" else "F"
                ces.append(Counterexample(
                    _ctx(A, B, m) + (_set_ctx(tag, S), _set_ctx("result", out)),
                    r.witnesses[0]))
    return checked, skipped, ces


def _surjective_ohom(A, B, m, cls):
    return cls.is_ohom and m.is_surjective()


def _unit_ohom(A, B, m, cls):
    return cls.is_ohom and m.preserves_unit()


def _surjective_unit_ohom(A, B, m, cls):
    return cls.is_ohom and m.is_surjective() and m.preserves_unit()


def _reflective_surjective_ohom(A, B, m, cls):
    return (cls.is_ohom and m.is_surjective()
            and check_reflection_condition(m, witness_cap=1).holds)


def _reflective_surjective_unit_ohom(A, B, m, cls):
    return (_surjective_unit_ohom(A, B, m, cls)
            and check_reflection_condition(m, witness_cap=1).holds)


def _run_bijection(pool, cap, *, ordered):
    checked, skipped, ces = 0, 0, []
    for A, B, m, cls in pool.maps():
        if (A is None or B is None or not cls.is_ohom
                or not m.is_surjective() or not m.preserves_unit()):
            skipped += 1
            continue
        checked += 1
        sX, sY = A.structure, B.structure
        ker = kernel(m)

        def family(structure, *, require_ker, universe_is_source):
            out = []
            for mask in range(1 << structure.n):
                S = Subset(structure, mask)
                pred = is_ordered_filter if ordered else is_filter
                if not pred(structure, S, witness_cap=1).holds:
                    continue
                if universe_is_source:
                    if require_ker and not ker.issubset(S):
                        continue
                    if ordered and not satisfies_cone_condition(
                            structure, S, witness_cap=1).holds:
                        continue
                out.append(S)
            return out

        fam_x = family(sX, require_ker=True, universe_is_source=True)
        fam_y = family(sY, require_ker=False, universe_is_source=False)
        problems = []
        images = [image(m, F) for F in fam_x]
        for F, img in zip(fam_x, images):
            if img.mask not in {S.mask for S in fam_y}:
                problems.append((("law=image-in-family", _set_ctx("F", F)),
                                 tuple(img.member_labels())))
            if preimage(m, img).mask != F.mask:
                problems.append((("law=preimage-inverts", _set_ctx("F", F)),
                                 tuple(img.member_labels())))
        if len({img.mask for img in images}) != len(fam_x):
            problems.append((("law=injective",), ()))
        if {img.mask for img in images} != {S.mask for S in fam_y}:
            problems.append((("law=surjective",), ()))
        for G in fam_y:
            pre = preimage(m, G)
            if pre.mask not in {S.mask for S in fam_x} or image(m, pre).mask != G.mask:
                problems.append((("law=preimage-in-family", _set_ctx("G", G)),
                                 tuple(pre.member_labels())))
        for extra, witness in problems:
            ces.append(Counterexample(_ctx(A, B, m) + extra, witness))
    return checked, skipped, ces


def _pair_ctx(f1, f2):
    return (f"f1={f1.source.name}->{f1.target.name}:{_map_ctx(f1)}",
            f"f2={f2.source.name}->{f2.target.name}:{_map_ctx(f2)}")


class _OhomPair(NamedTuple):
    """One pair of O-homomorphisms with everything the product claims share."""

    f1: Mapping
    f2: Mapping
    k1: Subset  # ker(f1)
    k2: Subset  # ker(f2)
    source: ProductAlgebra
    pm: Mapping  # the pair map f1 x f2
    k: Subset  # ker(f1 x f2)


def _check_pairmap_ohom(p: _OhomPair, cap):
    cls = classify(p.pm, witness_cap=cap)
    return [] if cls.is_ohom else [(cls.hom_witnesses or cls.omap_witnesses)[0]]


def _check_product_kernel(p: _OhomPair, cap):
    rhs = rectangle_mask(p.k1.mask, p.k2.mask, p.f2.source.n)
    if p.k.mask == rhs:
        return []
    return [Subset(p.k.universe, p.k.mask ^ rhs).members()]


def _check_product_kernel_projection(p: _OhomPair, cap):
    try:
        left, right = projection_kernels(p.source, p.k)
    except ShapeError:
        return [("non-rectangular",)]
    if len(p.k) and (left.mask != p.k1.mask or right.mask != p.k2.mask):
        return [(tuple(left.member_labels()), tuple(right.member_labels()))]
    return []


def _check_ksets(p: _OhomPair, cap):
    first, second, equal = k_upper_sets(p.k1, p.k2, p.f1, p.f2, source=p.source)
    unit_pair = p.f1.source.unit * p.f2.source.n + p.f2.source.unit
    problems = []
    if not equal:
        problems.append(("sides-differ",))
    if first.mask != p.k.mask:
        problems.append(("differs-from-pair-kernel",))
    if unit_pair not in first:
        problems.append(("unit-missing",))
    return problems


# Product claims quantify over ordered pairs of O-homomorphisms whose
# source and target products are both algebras; each maps one pair to its
# witnesses (none when the pair satisfies the claim).
_PRODUCT_CHECKS = {
    "T-pairmap-ohom": _check_pairmap_ohom,
    "T-product-kernel": _check_product_kernel,
    "T-product-kernel-projection": _check_product_kernel_projection,
    "T-ksets": _check_ksets,
}


def _run_products(pool, cap, claims, part):
    """The given product claims in one pass over the O-homomorphism pairs.

    Each pair's map and kernel are built once and shared by every claim;
    products are cached by the pool indices of their factors and checked
    against all six axioms once each.  Pairs are streamed, never stored.
    With part=(k, parts) only the pairs whose first factor lies in the
    k-th of `parts` contiguous slices of the O-homs are checked, so the
    parts' counterexamples, concatenated in k order, are in pair order.
    Returns claim id -> (checked, skipped, counterexamples), the
    counterexamples in pair order.
    """
    tallies = {c: [0, 0, []] for c in claims}
    checks = [(_PRODUCT_CHECKS[c], tallies[c]) for c in claims]
    ohoms = [(i, j, f, kernel(f)) for i, j, f in pool.ohoms()]
    k, parts = part
    first = ohoms[k * len(ohoms) // parts:(k + 1) * len(ohoms) // parts]
    products: dict[tuple[int, int], tuple[ProductAlgebra, bool]] = {}

    def product_of(i1, i2, left, right):
        key = (i1, i2)
        if key not in products:
            combined = product_structure(left, right)
            valid = all(check_axiom(combined, a, witness_cap=1).holds
                        for a in AXIOM_IDS)
            products[key] = (ProductAlgebra(left, right, combined), valid)
        return products[key]

    for (s1, t1, f1, k1), (s2, t2, f2, k2) in itertools.product(first, ohoms):
        src, src_ok = product_of(s1, s2, f1.source, f2.source)
        dst, dst_ok = product_of(t1, t2, f1.target, f2.target)
        if not (src_ok and dst_ok):
            for _, tally in checks:
                tally[1] += 1
            continue
        pm = pair_map(f1, f2, source=src, target=dst)
        pair = _OhomPair(f1, f2, k1, k2, src, pm, kernel(pm))
        for check, tally in checks:
            tally[0] += 1
            for witness in check(pair, cap):
                tally[2].append(Counterexample(_pair_ctx(f1, f2), witness))
    return {c: tuple(t) for c, t in tallies.items()}


def _runner(claim):
    if claim == "P-identities":
        return _run_identities
    if claim == "P-ordfilter-is-filter":
        return _run_ordfilter_is_filter
    if claim == "P-monotone":
        return _run_monotone
    if claim == "P-kernel-alt":
        return _run_kernel_alt
    if claim == "P-closed-kernel":
        return _run_closed_kernel
    if claim == "T-kernel-closed-converse":
        return _run_kernel_closed_converse
    if claim == "T-subalg-preimage":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_is_ohom, side="target",
            subset_predicate=is_subalgebra, result_predicate=is_subalgebra)
    if claim == "T-subalg-image":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_surjective_ohom, side="source",
            subset_predicate=is_subalgebra, result_predicate=is_subalgebra)
    if claim == "T-ordsubalg-preimage":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_is_ohom, side="target",
            subset_predicate=is_ordered_subalgebra,
            result_predicate=is_ordered_subalgebra)
    if claim == "T-ordsubalg-image-cone":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_surjective_ohom, side="source",
            subset_predicate=is_ordered_subalgebra,
            subset_extra=lambda A, B, m, S: satisfies_cone_condition(
                A.structure, S, witness_cap=1).holds,
            result_predicate=is_ordered_subalgebra)
    if claim == "T-ordsubalg-image-reflect":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_reflective_surjective_ohom, side="source",
            subset_predicate=is_ordered_subalgebra,
            result_predicate=is_ordered_subalgebra)
    if claim == "T-kernel-filter":
        return lambda pool, cap: _map_sweep(
            pool, cap, _is_ohom,
            lambda A, B, m, cls: _kernel_predicate(A, m, is_filter, cap))
    if claim == "T-kernel-ordfilter":
        return lambda pool, cap: _map_sweep(
            pool, cap, _is_ohom,
            lambda A, B, m, cls: _kernel_predicate(A, m, is_ordered_filter, cap))
    if claim == "T-filter-preimage":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_unit_ohom, side="target",
            subset_predicate=is_filter, result_predicate=is_filter)
    if claim == "T-filter-image":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_surjective_unit_ohom, side="source",
            subset_predicate=is_filter, result_predicate=is_filter)
    if claim == "T-ordfilter-preimage":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_unit_ohom, side="target",
            subset_predicate=is_ordered_filter, result_predicate=is_ordered_filter)
    if claim == "T-ordfilter-image-reflect":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_reflective_surjective_unit_ohom, side="source",
            subset_predicate=is_ordered_filter, result_predicate=is_ordered_filter)
    if claim == "T-ordfilter-image-kercone":
        return lambda pool, cap: _subset_transfer_sweep(
            pool, cap, map_hypothesis=_surjective_unit_ohom, side="source",
            subset_predicate=is_ordered_filter,
            subset_extra=lambda A, B, m, S: (
                kernel(m).issubset(S)
                and satisfies_cone_condition(A.structure, S, witness_cap=1).holds),
            result_predicate=is_ordered_filter)
    if claim == "T-filter-bijection":
        return lambda pool, cap: _run_bijection(pool, cap, ordered=False)
    if claim == "T-ordfilter-bijection":
        return lambda pool, cap: _run_bijection(pool, cap, ordered=True)
    if claim in _PRODUCT_CHECKS:
        return lambda pool, cap: pool.product_sweep(claim, cap)
    raise ValueError(f"unknown claim id {claim!r}")


def _kernel_predicate(A, m, predicate, cap):
    ker = kernel(m)
    r = predicate(A.structure, ker, witness_cap=cap)
    if r.holds:
        return []
    return [((_set_ctx("ker", ker),), r.witnesses[0])]


def verify_claim(claim: str, *, sizes=None, fixtures=None, up_to_iso: bool = False,
                 witness_cap: int | None = DEFAULT_WITNESS_CAP,
                 _pool: _Pool | None = None) -> SweepReport:
    """Machine-check one claim over the scope; see CLAIM_IDS for names."""
    runner = _runner(claim)
    pool = _pool if _pool is not None else _pool_for(sizes, fixtures, up_to_iso=up_to_iso)
    checked, skipped, ces = runner(pool, witness_cap)
    return SweepReport(claim, checked, skipped, tuple(ces))


def verify_all(claims=CLAIM_IDS, *, sizes=None, fixtures=None,
               up_to_iso: bool = False,
               witness_cap: int | None = DEFAULT_WITNESS_CAP,
               jobs: int = 1) -> list[SweepReport]:
    """Run several claims over one shared scope, split into `jobs` parts.

    Each part (see `_run_part`) builds its own pool; with jobs > 1 every
    part runs in a worker process of its own.  Reports come back in claim
    order and equal a serial run's: a product claim's partial reports are
    added up, their counterexamples concatenated in part order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    claims = tuple(claims)
    for c in claims:
        _runner(c)  # fail fast on unknown ids
    args = (claims, (sizes, fixtures, up_to_iso), witness_cap)
    parts = [_run_part(*args, 0, 1)] if jobs == 1 else _run_in_workers(args, jobs)
    partial = [[] for _ in claims]
    for results in parts:
        for i, report in results:
            partial[i].append(report)
    return [SweepReport(c, sum(r.instances_checked for r in reports),
                        sum(r.hypothesis_skipped for r in reports),
                        tuple(ce for r in reports for ce in r.counterexamples))
            for c, reports in zip(claims, partial)]


def _run_part(claims, scope, witness_cap, k, parts):
    """Part k of `parts`, as (claim position, report) pairs in claim order.

    The part runs every product claim over the pairs whose first factor
    lies in slice k of the O-homs (one fused pass), and every parts-th
    other claim from position k.  It builds the pool only if it has a claim.
    """
    products = tuple(c for c in claims if c in _PRODUCT_CHECKS)
    others = [i for i, c in enumerate(claims) if c not in _PRODUCT_CHECKS]
    mine = set(others[k::parts])
    positions = [i for i, c in enumerate(claims) if c in products or i in mine]
    if not positions:
        return []
    sizes, fixtures, up_to_iso = scope
    pool = _pool_for(sizes, fixtures, up_to_iso=up_to_iso)
    pool.product_claims = products
    pool.product_part = (k, parts)
    # Through verify_claim, one call per claim, so that claim-level hooks
    # (timing, tracing) see each claim in every part.
    return [(i, verify_claim(claims[i], witness_cap=witness_cap, _pool=pool))
            for i in positions]


def _run_in_workers(args, jobs):
    """`_run_part(*args, k, jobs)` for every k, each in a process of its own.

    Part k always runs in the k-th process, whatever the timing.  An
    exception in a worker is raised here, and a worker that dies without
    an answer raises RuntimeError; either way every worker is stopped and
    joined first.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    procs, readers = [], []
    try:
        for k in range(jobs):
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_worker, args=(writer, *args, k, jobs))
            proc.start()
            writer.close()  # the worker holds the only write end: EOF if it dies
            procs.append(proc)
            readers.append(reader)
        results = [None] * jobs
        pending = {reader: k for k, reader in enumerate(readers)}
        while pending:
            for reader in wait(list(pending)):
                k = pending.pop(reader)
                try:
                    ok, value = reader.recv()
                except EOFError:
                    procs[k].join()
                    raise RuntimeError(f"worker {k} exited with code "
                                       f"{procs[k].exitcode} without an answer") from None
                if not ok:
                    exc, remote_traceback = value
                    raise exc from RuntimeError(f"in worker {k}:\n{remote_traceback}")
                results[k] = value
        return results
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
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


def find_counterexample(query: str, *, sizes=None, fixtures=None,
                        up_to_iso: bool = False) -> Counterexample | None:
    """First witness for a separating-example query or a claim id."""
    if query in SEARCH_QUERIES:
        pool = _pool_for(sizes, fixtures, up_to_iso=up_to_iso)
        for A, B, m, cls in pool.maps():
            if query == "hom-not-omap" and cls.is_hom and not cls.is_omap:
                return Counterexample(_ctx(A, B, m), cls.omap_witnesses[0])
            if query == "omap-not-hom" and cls.is_omap and not cls.is_hom:
                return Counterexample(_ctx(A, B, m), cls.hom_witnesses[0])
        return None
    if query in CLAIM_IDS:
        report = verify_claim(query, sizes=sizes, fixtures=fixtures,
                              up_to_iso=up_to_iso)
        return report.counterexamples[0] if report.counterexamples else None
    raise ValueError(f"unknown search query {query!r}")
