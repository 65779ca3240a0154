import multiprocessing
import os

import pytest

from obci import (
    Subset,
    ValidatedAlgebra,
    enumerate_obci,
    enumerate_obci_naive,
    find_counterexample,
    kernel,
    validate,
    verify_all,
    verify_claim,
)
from obci import harness, scan
from obci.core import BudgetError, check_derived_identities
from obci.harness import CLAIM_IDS
from obci.morphisms import identity_map
from obci.substructures import is_filter


def test_enumeration_counts():
    assert len(list(enumerate_obci(1))) == 1
    assert len(list(enumerate_obci(2))) == 2
    assert len(list(enumerate_obci(3))) == 10


def test_enumeration_counts_up_to_iso():
    assert len(list(enumerate_obci(1, up_to_iso=True))) == 1
    assert len(list(enumerate_obci(2, up_to_iso=True))) == 2
    assert len(list(enumerate_obci(3, up_to_iso=True))) == 6


@pytest.mark.skipif(scan.valid_tables_fast is None,
                    reason="compiled backend not built")
def test_enumeration_counts_size_four():
    assert sum(1 for _ in enumerate_obci(4)) == 167
    assert sum(1 for _ in enumerate_obci(4, up_to_iso=True)) == 33


def test_enumerated_names_are_deterministic():
    names = [a.name for a in enumerate_obci(3)]
    assert names[:3] == ["n3-0", "n3-1", "n3-2"]
    assert len(set(names)) == len(names)


def test_enumerated_algebras_revalidate_identically():
    for a in enumerate_obci(3):
        again = validate(a.structure)
        assert isinstance(again, ValidatedAlgebra)
        assert again.cone.mask == a.cone.mask
        assert check_derived_identities(a).holds


def test_pruned_and_naive_enumerators_agree_at_small_sizes():
    for n in (1, 2):
        pruned = {(a.structure.op, a.structure.order) for a in enumerate_obci(n)}
        naive = {(a.structure.op, a.structure.order)
                 for a in enumerate_obci_naive(n)}
        assert pruned == naive


def test_enumeration_budgets():
    with pytest.raises(BudgetError):
        list(enumerate_obci(5))
    with pytest.raises(BudgetError):
        list(enumerate_obci_naive(3))


def test_claim_registry_is_complete():
    assert len(CLAIM_IDS) == 24
    assert len(set(CLAIM_IDS)) == 24
    with pytest.raises(ValueError):
        verify_claim("T-nonsense", sizes=(1,))


def test_all_claims_verified_at_size_two_except_ordered_bijection():
    reports = verify_all(sizes=(1, 2))
    by_claim = {r.claim: r for r in reports}
    failing = {c for c, r in by_claim.items() if not r.verified}
    assert failing == {"T-ordfilter-bijection"}
    assert len(by_claim["T-ordfilter-bijection"].counterexamples) == 8


def test_bijection_claims_have_genuine_counterexamples_at_size_three():
    r = verify_claim("T-filter-bijection", sizes=(3,))
    assert not r.verified
    # independent re-derivation on the first flagged instance: the
    # identity on the chain b <= e <= a, whose cone is {e, a}
    first = r.counterexamples[0]
    assert first.context[0] == "X=n3-8"
    a = list(enumerate_obci(3))[8]
    assert a.cone.member_labels() == ("e", "a")
    ker = kernel(identity_map(a.structure))
    assert ker.mask == a.cone.mask
    filters = [Subset(a.structure, m) for m in range(1 << a.n)]
    filters = [S for S in filters if is_filter(a.structure, S, witness_cap=1).holds]
    containing = [S for S in filters if ker.issubset(S)]
    assert len(filters) == 4
    assert len(containing) == 2  # no bijection between the two families


def test_ordered_bijection_fails_already_at_size_two():
    r = verify_claim("T-ordfilter-bijection", sizes=(1, 2))
    assert not r.verified
    contexts = {ce.context[:3] for ce in r.counterexamples}
    # collapsing the 2-chain onto the point leaves the source family empty
    assert ("X=n2-0", "Y=n1-0", "map=(0,0)") in {c[:3] for c in contexts}


def test_sweep_reports_are_deterministic():
    a = verify_claim("T-kernel-filter", sizes=(1, 2))
    b = verify_claim("T-kernel-filter", sizes=(1, 2))
    assert a == b
    assert a.verified
    assert a.instances_checked > 0


def test_bijection_claim_on_the_bundled_fixture():
    r = verify_claim("T-filter-bijection",
                     fixtures=("exy", "ea", "exy-to-ea"))
    assert r.verified
    assert r.instances_checked == 1
    # the ordered variant fails even here: the source family needs
    # F over ker = {e,x} and inside the cone = {e}, so it is empty while
    # the target family has two members
    r = verify_claim("T-ordfilter-bijection",
                     fixtures=("exy", "ea", "exy-to-ea"))
    assert not r.verified
    laws = {c for ce in r.counterexamples for c in ce.context if c.startswith("law=")}
    assert "law=surjective" in laws or "law=preimage-in-family" in laws


def test_fixture_scope_skips_unvalidated_endpoints():
    r = verify_claim("T-kernel-filter", fixtures=True)
    # exy-to-ea and exy-id run; maps touching mid3/diamond/chain4 are
    # hypothesis-skipped
    assert r.instances_checked == 2
    assert r.hypothesis_skipped == 3
    assert r.verified


def test_search_queries():
    assert find_counterexample("hom-not-omap", sizes=(1, 2)) is None
    found = find_counterexample("omap-not-hom", sizes=(1, 2))
    assert found is not None
    assert found.context == ("X=n1-0", "Y=n2-0", "map=(1)")
    assert found.witness == (0, 0)
    assert find_counterexample("hom-not-omap", fixtures=True) is None
    fixture_hit = find_counterexample("omap-not-hom", fixtures=True)
    assert fixture_hit is not None
    assert fixture_hit.context[2] == "map=diamond-to-chain"
    with pytest.raises(ValueError):
        find_counterexample("nonsense", sizes=(1,))


def test_search_by_claim_id():
    assert find_counterexample("T-kernel-filter", sizes=(1, 2)) is None
    hit = find_counterexample("T-ordfilter-bijection", sizes=(1, 2))
    assert hit is not None


def test_parallel_verify_matches_serial():
    serial = verify_all(("P-identities", "T-kernel-filter"), sizes=(1, 2))
    parallel = verify_all(("P-identities", "T-kernel-filter"), sizes=(1, 2),
                          jobs=2)
    assert serial == parallel


# product and non-product claims, out of catalogue order
_MIXED_CLAIMS = ("T-ksets", "T-ordfilter-bijection", "T-pairmap-ohom",
                 "P-identities", "T-product-kernel-projection",
                 "T-kernel-filter", "T-product-kernel")


@pytest.mark.parametrize("scope", [
    {"sizes": (1, 2)},
    {"fixtures": True},
    {"sizes": (1,)},  # one O-hom: with jobs=3 two parts get no pairs
    {"sizes": (1, 2, 3), "up_to_iso": True},
])
def test_fused_product_pass_matches_per_claim_runs(scope):
    serial = verify_all(CLAIM_IDS, **scope)
    assert any(r.counterexamples for r in serial) or scope == {"sizes": (1,)}
    for jobs in (2, 3):
        assert verify_all(CLAIM_IDS, jobs=jobs, **scope) == serial
    if scope.get("up_to_iso"):
        return  # each per-claim run below repeats the 19,044-pair pass
    fused = verify_all(_MIXED_CLAIMS, **scope)
    assert fused == [next(r for r in serial if r.claim == c) for c in _MIXED_CLAIMS]
    assert fused == [verify_claim(c, **scope) for c in _MIXED_CLAIMS]
    assert verify_all(("T-ksets",), **scope) == fused[:1]
    for jobs in (2, 3):
        assert verify_all(_MIXED_CLAIMS, jobs=jobs, **scope) == fused


# Workers see a monkeypatched check only if they are forked from the test.
_FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="needs the fork start method")


@_FORK_ONLY
def test_parallel_counterexamples_keep_pair_order(monkeypatch):
    monkeypatch.setitem(harness._PRODUCT_CHECKS, "T-product-kernel",
                        lambda pair, cap: [("fails",)])
    serial = verify_all(_MIXED_CLAIMS, sizes=(1, 2))
    failed = serial[_MIXED_CLAIMS.index("T-product-kernel")]
    assert len(failed.counterexamples) == failed.instances_checked > 1
    for jobs in (2, 3):
        assert verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=jobs) == serial


def _exit_worker(pair, cap):
    os._exit(3)


def _raise(pair, cap):
    raise ZeroDivisionError("check failed")


@_FORK_ONLY
@pytest.mark.parametrize("check, error", [(_raise, ZeroDivisionError),
                                          (_exit_worker, RuntimeError)])
def test_worker_failure_raises_in_parent(monkeypatch, check, error):
    monkeypatch.setitem(harness._PRODUCT_CHECKS, "T-ksets", check)
    with pytest.raises(error):
        verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=2)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(monkeypatch, jobs):
    def no_process(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "Process", no_process)
    monkeypatch.setattr(harness, "_pool_for", no_process)
    with pytest.raises(ValueError, match="jobs"):
        verify_all(("P-identities",), sizes=(1,), jobs=jobs)
