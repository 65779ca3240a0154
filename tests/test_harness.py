import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from obci import (
    Subset,
    enumerate_obci,
    enumerate_obci_naive,
    find_counterexample,
    kernel,
    validate,
    verify_all,
)
from obci import fixtures, harness, morphisms, scan
from obci.core import BudgetError, RawStructure, check_derived_identities
from obci.harness import CLAIM_IDS
from obci.morphisms import classify, identity_map, image_mask
from obci.substructures import Atlas, is_filter


def test_enumeration_counts():
    assert len(list(enumerate_obci(1))) == 1
    assert len(list(enumerate_obci(2))) == 2
    assert len(list(enumerate_obci(3))) == 10


def test_enumeration_counts_up_to_iso():
    assert len(list(enumerate_obci(1, up_to_iso=True))) == 1
    assert len(list(enumerate_obci(2, up_to_iso=True))) == 2
    assert len(list(enumerate_obci(3, up_to_iso=True))) == 6


def test_enumeration_counts_size_four():
    assert sum(1 for _ in enumerate_obci(4)) == 167
    assert sum(1 for _ in enumerate_obci(4, up_to_iso=True)) == 33


def test_enumerated_names_are_deterministic():
    names = [a.name for a in enumerate_obci(3)]
    assert names[:3] == ["n3-0", "n3-1", "n3-2"]
    assert len(set(names)) == len(names)


def test_enumerated_algebras_revalidate_identically():
    # The scan's algebras are certified without an axiom check of their
    # own; validating each again must give it back unchanged, cone included.
    for n in (1, 2, 3, 4):
        for up_to_iso in (False, True):
            for a in enumerate_obci(n, up_to_iso=up_to_iso):
                assert validate(a.structure) == a
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
        verify_all(("T-nonsense",), sizes=(1,))


def test_all_claims_verified_at_size_two_except_ordered_bijection():
    reports = verify_all(sizes=(1, 2))
    by_claim = {r.claim: r for r in reports}
    failing = {c for c, r in by_claim.items() if not r.verified}
    assert failing == {"T-ordfilter-bijection"}
    assert len(by_claim["T-ordfilter-bijection"].counterexamples) == 8


def test_bijection_claims_have_genuine_counterexamples_at_size_three():
    r = verify_all(("T-filter-bijection",), sizes=(3,))[0]
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
    containing = [S for S in filters if ker.mask & ~S.mask == 0]
    assert len(filters) == 4
    assert len(containing) == 2  # no bijection between the two families


def test_ordered_bijection_fails_already_at_size_two():
    r = verify_all(("T-ordfilter-bijection",), sizes=(1, 2))[0]
    assert not r.verified
    contexts = {ce.context[:3] for ce in r.counterexamples}
    # collapsing the 2-chain onto the point leaves the source family empty
    assert ("X=n2-0", "Y=n1-0", "map=(0,0)") in {c[:3] for c in contexts}


def test_sweep_reports_are_deterministic():
    a = verify_all(("T-kernel-filter",), sizes=(1, 2))[0]
    b = verify_all(("T-kernel-filter",), sizes=(1, 2))[0]
    assert a == b
    assert a.verified
    assert a.instances_checked > 0


def test_bijection_claim_on_the_bundled_fixture():
    # exy-to-ea and exy-id run; maps touching mid3/diamond/chain4 are
    # hypothesis-skipped
    r = verify_all(("T-filter-bijection",), fixtures=True)[0]
    assert (r.instances_checked, r.hypothesis_skipped, r.verified) == (2, 3, True)
    # the ordered variant fails even here: for exy-to-ea the source family
    # needs F over ker = {e,x} and inside the cone = {e}, so it is empty
    # while the target family has two members
    r = verify_all(("T-ordfilter-bijection",), fixtures=True)[0]
    assert len(r.counterexamples) == 7
    exy_to_ea = [ce.context[3:] for ce in r.counterexamples
                 if ce.context[2] == "map=exy-to-ea"]
    assert exy_to_ea == [("law=surjective",),
                         ("law=preimage-in-family", "G={e}"),
                         ("law=preimage-in-family", "G={e,a}")]


def _no_process(*args, **kwargs):
    raise AssertionError("a worker process was started")


def test_fixtures_is_a_flag(monkeypatch):
    default = verify_all(("T-kernel-filter", "P-kernel-alt"))
    assert verify_all(("T-kernel-filter", "P-kernel-alt"), fixtures=False) == default
    # a bad scope is refused in the caller's process, before any worker starts
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    for bad in (("exy", "ea", "exy-to-ea"), "exy", ["exy"], 1, None):
        for jobs in (1, 2):
            with pytest.raises(TypeError):
                verify_all(("T-kernel-filter",), fixtures=bad, jobs=jobs)
        with pytest.raises(TypeError):
            find_counterexample("omap-not-hom", fixtures=bad)


@pytest.mark.parametrize("scope", [{"sizes": (4,)}, {"sizes": (1, 2)},
                                   {"up_to_iso": True}])
def test_the_fixture_scope_takes_no_sizes_and_no_iso(monkeypatch, scope):
    # size 4 has a hom that is no O-map, the fixtures have none: the sizes
    # were dropped without a word
    assert find_counterexample("hom-not-omap", fixtures=True) is None
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    with pytest.raises(ValueError, match="fixture scope"):
        find_counterexample("hom-not-omap", fixtures=True, **scope)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="fixture scope"):
            verify_all(("P-identities",), fixtures=True, jobs=jobs, **scope)


def test_a_repeated_size_is_refused(monkeypatch):
    claims = ("P-identities", "P-kernel-alt")
    counts = [r.instances_checked for r in verify_all(claims, sizes=(2,))]
    assert counts == [2, 16]  # repeating the size counted each instance twice
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    for sizes in ((2, 2), (1, 2, 1)):
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="twice"):
                verify_all(claims, sizes=sizes, jobs=jobs)


def test_a_sweep_over_no_size_is_refused(monkeypatch):
    # no size gives an empty pool, over which every claim would read as
    # verified with nothing checked and every search as finding nothing
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="at least one size"):
            verify_all(("P-identities", "T-ksets"), sizes=(), jobs=jobs)
    for query in ("hom-not-omap", "T-kernel-filter"):
        with pytest.raises(ValueError, match="at least one size"):
            find_counterexample(query, sizes=())


def test_fixture_scope_skips_unvalidated_endpoints():
    r = verify_all(("T-kernel-filter",), fixtures=True)[0]
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


def test_non_product_claims_give_the_benchmark_answers():
    # the answers perfbench/ checks every sweep-s3-iso sample against
    expected = json.loads((Path(__file__).parents[1] / "perfbench" / "expected"
                           / "sweep-s3-iso.json").read_text())
    claims = [c for c, spec in harness.CLAIMS.items() if spec.scope != "pair"]
    assert len(claims) == 20
    reports = verify_all(claims, sizes=(1, 2, 3), up_to_iso=True)
    assert {r.claim: [r.verified, r.instances_checked, r.hypothesis_skipped,
                      len(r.counterexamples)] for r in reports} == \
        {c: expected[c] for c in claims}


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
    assert fused == [verify_all((c,), **scope)[0] for c in _MIXED_CLAIMS]
    assert verify_all(("T-ksets",), **scope) == fused[:1]
    for jobs in (2, 3):
        assert verify_all(_MIXED_CLAIMS, jobs=jobs, **scope) == fused


# Workers see a monkeypatched check only if they are forked from the test.
_FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="needs the fork start method")


def _patch_conclusion(monkeypatch, claim, conclusion):
    monkeypatch.setitem(harness.CLAIMS, claim,
                        harness.CLAIMS[claim]._replace(conclusion=conclusion))


def _fails(instance):
    return [((), ("fails",))]


@_FORK_ONLY
def test_parallel_counterexamples_keep_pair_order(monkeypatch):
    _patch_conclusion(monkeypatch, "T-product-kernel", _fails)
    serial = verify_all(_MIXED_CLAIMS, sizes=(1, 2))
    failed = serial[_MIXED_CLAIMS.index("T-product-kernel")]
    assert len(failed.counterexamples) == failed.instances_checked > 1
    for jobs in (2, 3):
        assert verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=jobs) == serial


@_FORK_ONLY
def test_parallel_counterexamples_keep_map_and_algebra_order(monkeypatch):
    # 23 maps between the three algebras of sizes 1-2, all named by part 0,
    # which runs the map pass whole; the three algebras are sliced
    _patch_conclusion(monkeypatch, "P-kernel-alt", _fails)
    _patch_conclusion(monkeypatch, "P-identities", _fails)
    serial = verify_all(_MIXED_CLAIMS + ("P-kernel-alt",), sizes=(1, 2))
    for claim, count in (("P-kernel-alt", 23), ("P-identities", 3)):
        failed = next(r for r in serial if r.claim == claim)
        assert len(failed.counterexamples) == failed.instances_checked == count
    assert len({ce.context for ce in serial[-1].counterexamples}) == 23
    for jobs in (2, 3):
        assert verify_all(_MIXED_CLAIMS + ("P-kernel-alt",), sizes=(1, 2),
                          jobs=jobs) == serial


# Part 0 runs in the test's own process, so these fail only in a worker.
_TEST_PROCESS = os.getpid()


def _exit_worker(pair):
    if os.getpid() != _TEST_PROCESS:
        os._exit(3)
    return ()


def _raise(pair):
    if os.getpid() != _TEST_PROCESS:
        raise ZeroDivisionError("check failed")
    return ()


_stalled = []


def _raise_here_stall_there(pair):
    if os.getpid() == _TEST_PROCESS:
        raise ZeroDivisionError("check failed in the caller")
    if not _stalled:  # once per worker, so a worker left running ends
        _stalled.append(pair)
        time.sleep(60)
    return ()


@_FORK_ONLY
@pytest.mark.parametrize("check, error", [(_raise, ZeroDivisionError),
                                          (_exit_worker, RuntimeError)])
def test_worker_failure_raises_in_parent(monkeypatch, check, error):
    _patch_conclusion(monkeypatch, "T-ksets", check)
    with pytest.raises(error):
        verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=2)


@_FORK_ONLY
def test_a_failure_in_the_callers_part_stops_and_joins_every_worker(monkeypatch):
    _patch_conclusion(monkeypatch, "T-ksets", _raise_here_stall_there)
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ZeroDivisionError, match="in the caller"):
            verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=3)
        gc.collect()
    assert time.monotonic() - start < 30  # the stalled workers were stopped
    assert multiprocessing.active_children() == []
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_more_parts_than_instances_equal_the_serial_run():
    # sizes (1,): one algebra, one map, one O-hom and one pair, so with
    # jobs=3 each claim's one instance falls in one part, the others empty
    pool = harness._pool_for(sizes=(1,))
    parts = [harness._run_part(CLAIM_IDS, pool, k, 3) for k in range(3)]
    for reports in zip(*parts):
        assert [r.instances_checked + r.hypothesis_skipped for r in reports].count(0) == 2
    assert verify_all(CLAIM_IDS, sizes=(1,), jobs=3) == verify_all(CLAIM_IDS, sizes=(1,))


@_FORK_ONLY
def test_a_sweep_builds_its_pool_once_before_its_workers_start(monkeypatch):
    serial = verify_all(CLAIM_IDS, sizes=(1, 2))
    parent, calls, build = os.getpid(), [], harness._pool_for

    def counted(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a worker built a pool")
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "_pool_for", counted)
    for jobs in (1, 2, 3):
        calls.clear()
        assert verify_all(CLAIM_IDS, sizes=(1, 2), jobs=jobs) == serial
        assert len(calls) == 1, jobs


def _in_the_test_process_only(real, calls):
    """`real`, raising outside the test's own process and logging its
    arguments inside it."""
    def wrapper(*args, **kwargs):
        if os.getpid() != _TEST_PROCESS:
            raise AssertionError(f"a worker called {real.__qualname__}")
        calls.append(args)
        return real(*args, **kwargs)
    return wrapper


@_FORK_ONLY
def test_workers_rebuild_none_of_the_pool_data(monkeypatch):
    # atlases, O-homs and products are built in the caller before the
    # worker forks, so the worker inherits them
    serial = verify_all(CLAIM_IDS, sizes=(3,), up_to_iso=True)
    certified, atlases, homs = [], [], []
    monkeypatch.setattr(harness, "direct_product",
                        _in_the_test_process_only(harness.direct_product, certified))
    monkeypatch.setattr(Atlas, "of", _in_the_test_process_only(Atlas.of, atlases))
    monkeypatch.setattr(harness, "enumerate_homs",
                        _in_the_test_process_only(harness.enumerate_homs, homs))
    assert verify_all(CLAIM_IDS, sizes=(3,), up_to_iso=True, jobs=2) == serial
    # the 6 x 6 products of the six classes, each certified once
    assert len(certified) == len(set(certified)) == 36
    assert len(atlases) == 6 and len(homs) == 36


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@_FORK_ONLY
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("check", [None, _raise_here_stall_there, _raise])
def test_a_sweep_leaves_no_worker_and_no_descriptor_open(monkeypatch, check):
    # -X dev cannot see a pipe left open: CPython closes a Connection
    # silently when it is collected, so count the descriptors instead,
    # while a failure's traceback still holds the sweep's frames
    if check is not None:
        _patch_conclusion(monkeypatch, "T-ksets", check)
    before = _open_descriptors()
    if check is None:
        verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=2)
    else:
        with pytest.raises(ZeroDivisionError) as failure:
            verify_all(_MIXED_CLAIMS, sizes=(1, 2), jobs=2)
        assert failure.traceback
    assert multiprocessing.active_children() == []
    assert _open_descriptors() == before


# Under spawn and forkserver the pool reaches each worker pickled.  `-c`,
# not stdin: spawn imports the main module again by its path.
_SWEEP_UNDER = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from obci import verify_all
for scope in ({"sizes": (1, 2)}, {"fixtures": True}):
    assert verify_all(jobs=2, **scope) == verify_all(**scope), scope
"""


def _python_c(script, *args):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_verify_matches_serial_under_other_start_methods(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    run = _python_c(_SWEEP_UNDER, method)
    assert run.returncode == 0, run.stderr


_SERIAL_SWEEPS = """
import sys
from obci import find_counterexample, verify_all
verify_all(sizes=(1, 2))
verify_all(fixtures=True, jobs=1)
find_counterexample("T-ordfilter-bijection", sizes=(1, 2))
assert "multiprocessing" not in sys.modules, "a serial sweep imported multiprocessing"
"""


def test_a_serial_sweep_imports_no_multiprocessing():
    run = _python_c(_SERIAL_SWEEPS)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(monkeypatch, jobs):
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    monkeypatch.setattr(harness, "_pool_for", _no_process)
    with pytest.raises(ValueError, match="jobs"):
        verify_all(("P-identities",), sizes=(1,), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_claims_start_no_worker(monkeypatch, jobs):
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    monkeypatch.setattr(harness, "_run_part", _no_process)
    assert verify_all((), jobs=jobs) == []


# --- signatures: the map and pair passes decide a claim once per signature ----

def _claims_of(scope):
    return tuple(c for c, spec in harness.CLAIMS.items() if spec.scope == scope)


_KERNEL_CLAIMS = ("T-product-kernel", "T-product-kernel-projection", "T-ksets")
_PAIR_CLAIMS = _claims_of(harness.PAIR)
_MAP_CLAIMS = _claims_of(harness.MAP)


def test_map_and_pair_claims_take_every_instance():
    assert set(_KERNEL_CLAIMS) < set(_PAIR_CLAIMS) and _MAP_CLAIMS
    # the memos count an instance whose signature held before as checked
    for claim in _MAP_CLAIMS + _PAIR_CLAIMS:
        assert harness.CLAIMS[claim].hypothesis is harness._always, claim


def _unmemoized(claim, instances):
    """What `_check` must report for an always-hypothesis claim: its
    conclusion called on every instance."""
    conclusion = harness.CLAIMS[claim].conclusion
    return (len(instances), 0,
            [harness.Counterexample(inst.context + extra, witness)
             for inst in instances for extra, witness in conclusion(inst)])


def _grouped(instances, key, facts):
    """key -> the set of `facts` over the instances with that key."""
    groups = {}
    for inst in instances:
        groups.setdefault(key(inst), set()).add(facts(inst))
    return groups


def _pair_facts(p):
    """Everything the kernel claims read of a pair, through the same layers."""
    k1, k2 = Subset(p.f1.source, p.kernels[2]), Subset(p.f2.source, p.kernels[3])
    first, second, equal = harness.k_upper_sets(k1, k2, p.f1, p.f2, source=p.source)
    try:
        left, right = harness.projection_kernels(p.source, p.k)
        projected = (left.mask, right.mask, left.member_labels(), right.member_labels())
    except harness.ShapeError:
        projected = None
    return (p.source, p.k.universe, p.k.mask, k1.mask, k2.mask, first.mask,
            second.mask, equal, projected, p.f1.source.unit, p.f2.source.n)


@pytest.mark.parametrize("scope", [{"sizes": (1, 2)},
                                   {"sizes": (3,), "up_to_iso": True}])
def test_kernel_claim_keys_fix_what_the_conclusions_read(scope):
    pool = harness._pool_for(**scope)
    pairs = list(harness._ohom_pairs(pool, (0, 1)))
    # what the kernel claims read is fixed by `kernels`, part of the pair signature
    groups = _grouped(pairs, lambda p: p.kernels, _pair_facts)
    assert len(groups) < len(pairs)
    assert all(len(facts) == 1 for facts in groups.values())


def _every_map(pool):
    return [harness._Map(m) for *_, maps in pool.map_blocks() for m in maps]


def _image(f):
    return image_mask(f.m, (1 << f.m.source.n) - 1)


def test_map_signature_fixes_every_map_claims_verdict():
    pool = harness._pool_for(sizes=(1, 2, 3), up_to_iso=True)
    maps = _every_map(pool)
    assert len(maps) == 1223
    for claim in _MAP_CLAIMS:
        groups = _grouped(maps, lambda f: (f.m.target, _image(f)),
                          lambda f: not harness.CLAIMS[claim].conclusion(f))
        assert len(groups) == 49  # every non-empty subset of each of the 9 targets
        assert all(len(verdicts) == 1 for verdicts in groups.values()), claim
        assert harness._check_maps([claim], pool)[claim] == _unmemoized(claim, maps)
    # kernel and kernel_alt are the preimages of target sets fixed by
    # (target, image set), so their images are fixed by it too
    groups = _grouped(maps, lambda f: (f.m.target, _image(f)),
                      lambda f: (image_mask(f.m, kernel(f.m).mask),
                                 image_mask(f.m, harness.kernel_alt(f.m).mask)))
    assert all(len(facts) == 1 for facts in groups.values())


def _fails_on_unit_and_one_more(f):
    """Fails on the maps whose image is the unit and one other element, a
    verdict (target, image set) fixes; the witness is the table."""
    image = _image(f)
    return [((), f.m.table)] if image & 1 and image.bit_count() == 2 else ()


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_map_pass_names_the_maps_of_failing_keys_in_map_order(monkeypatch, parts):
    _patch_conclusion(monkeypatch, "P-kernel-alt", _fails_on_unit_and_one_more)
    pool = harness._pool_for(sizes=(1, 2, 3), up_to_iso=True)
    maps = _every_map(pool)
    reports = [harness._run_part(("P-kernel-alt",), pool, k, parts)[0] for k in range(parts)]
    # part 0 runs the map pass whole
    found = [(r.instances_checked, r.hypothesis_skipped, list(r.counterexamples))
             for r in reports]
    assert found[0] == _unmemoized("P-kernel-alt", maps)
    assert found[1:] == [(0, 0, [])] * (parts - 1)
    assert 0 < len(found[0][2]) < len(maps)


def _with_table(real, table):
    """`real` with another pair map table, whose laws and kernel are
    decided on that table as the pair pass decides them."""
    ker, ohom = morphisms.decide_laws(real.source.combined, real.target.combined, table)
    return real._replace(table=table, ohom=ohom, kernels=(*real.kernels[:4], ker))


def _onto_unit(real):
    """A fabricated pair whose table sends everything to the target's unit:
    an O-hom whose kernel is everything."""
    return _with_table(real, bytes([real.target.combined.unit]) * real.source.combined.n)


def _unit_elsewhere(real):
    """A fabricated pair whose table sends the source's unit off the
    target's unit: a hom sends the unit x->x to t[x]->t[x], the target's
    unit, so it is no hom."""
    e, e_img = real.source.combined.unit, real.target.combined.unit
    table = bytearray(real.table)
    table[e] = (e_img + 1) % real.target.combined.n
    return _with_table(real, bytes(table))


def _same_kernel_no_hom(real):
    """A fabricated pair with the real pair's kernels but no hom: the first
    table one entry off the real one with the same kernel and no hom, or
    None."""
    n, m = len(real.table), real.target.combined.n
    return next((fake for x in range(n) for v in range(m)
                 for fake in [_with_table(real, real.table[:x] + bytes([v]) + real.table[x + 1:])]
                 if fake.kernels == real.kernels and not fake.ohom), None)


def test_pairs_differing_only_in_the_pair_kernel_get_their_own_verdicts():
    pool = harness._pool_for(sizes=(1, 2))
    real = next(p for p in harness._ohom_pairs(pool, (0, 1)) if len(p.k) < p.k.universe.n)
    fake = _onto_unit(real)
    assert fake.kernels[:4] == real.kernels[:4] and fake.k.mask != real.k.mask
    for claim in _KERNEL_CLAIMS:
        conclusion = harness.CLAIMS[claim].conclusion
        assert not conclusion(real) and conclusion(fake)
        for instances in ([real, fake], [fake, real], [real, fake, real, fake]):
            assert harness._check([claim], instances)[claim] == \
                _unmemoized(claim, instances)


def test_pairmap_ohom_names_the_classify_witness_of_a_fabricated_pair():
    pool = harness._pool_for(sizes=(1, 2))
    real = next(p for p in harness._ohom_pairs(pool, (0, 1)) if p.target.combined.n > 1)
    fake = _unit_elsewhere(real)
    assert real.ohom and harness._pairmap_ohom(real) == ()
    # the first witness of an uncapped classification
    cls = classify(fake.pm, witness_cap=None)
    assert not cls.is_hom and not fake.ohom
    assert fake.pm.table == tuple(fake.table)
    assert harness._pairmap_ohom(fake) == [((), cls.hom.witnesses[0])]
    assert harness._check(["T-pairmap-ohom"], [real, fake])["T-pairmap-ohom"] == \
        (2, 0, [harness.Counterexample(fake.context, cls.hom.witnesses[0])])


def _real_pairs(scope):
    return list(harness._ohom_pairs(harness._pool_for(**scope), (0, 1)))


@pytest.mark.parametrize("scope, count", [({"sizes": (1, 2)}, 121),
                                          ({"sizes": (3,), "up_to_iso": True}, 5625)])
def test_pair_signature_fixes_every_pair_claims_verdict(scope, count):
    pairs = _real_pairs(scope)
    assert len(pairs) == count
    # every real pair is an O-hom; a fabricated non-hom pair has another signature
    pairs.append(_unit_elsewhere(next(p for p in pairs if p.target.combined.n > 1)))
    # `ohom` is the verdict of the pair map's own law
    assert _grouped(pairs, lambda p: p.ohom, lambda p: not harness._pairmap_ohom(p)) == \
        {True: {True}, False: {False}}
    for claim in _PAIR_CLAIMS:
        groups = _grouped(pairs, lambda p: p.signature,
                          lambda p: not harness.CLAIMS[claim].conclusion(p))
        assert len(groups) < len(pairs)  # the memo has work to save
        assert all(len(verdicts) == 1 for verdicts in groups.values()), claim
        assert harness._check([claim], pairs)[claim] == _unmemoized(claim, pairs)


def _check_pair_claims(instances):
    """`_check` over the pair claims at once, which keeps the signatures
    that held, against each claim's conclusion on every instance."""
    assert harness._check(_PAIR_CLAIMS, instances) == \
        {c: _unmemoized(c, instances) for c in _PAIR_CLAIMS}


@pytest.mark.parametrize("scope", [{"sizes": (1, 2)}, {"sizes": (3,), "up_to_iso": True}])
def test_key_tuples_that_held_hide_no_later_failing_pair(scope):
    pairs = _real_pairs(scope)
    _check_pair_claims(pairs)
    # a real pair with a later twin of the same signature, and fakes sharing
    # its factors: an O-hom differing in the pair kernel only, and two that
    # are no hom, one of them with the real pair's kernels
    real, twin, no_hom = next((p, q, fake) for i, p in enumerate(pairs)
                              if len(p.k) < p.k.universe.n
                              for fake in [_same_kernel_no_hom(p)] if fake is not None
                              for q in pairs[i + 1:] if q.signature == p.signature)
    for fake in (_onto_unit(real), _unit_elsewhere(real), no_hom):
        assert fake.kernels[:4] == real.kernels[:4] and fake.signature != real.signature
        assert any(harness.CLAIMS[c].conclusion(fake) for c in _PAIR_CLAIMS)
        for instances in ([fake, real, twin], [real, twin, fake], [real, fake, twin],
                          [real, fake, twin, fake], [*pairs, fake, real, fake],
                          [fake, *pairs, fake], pairs[:40] + [fake] + pairs[40:]):
            _check_pair_claims(instances)


def test_pair_pass_decides_every_pair_and_names_only_failing_pairs(monkeypatch):
    decided, named = [], []

    def counted_laws(src, dst, table):
        decided.append(table)
        return morphisms.decide_laws(src, dst, table)

    def counted_pairmap_ohom(p):
        named.append(p)
        return harness._pairmap_ohom(p)

    monkeypatch.setattr(harness, "decide_laws", counted_laws)
    _patch_conclusion(monkeypatch, "T-pairmap-ohom", counted_pairmap_ohom)
    reports = verify_all(_PAIR_CLAIMS, sizes=(3,), up_to_iso=True)
    # each pair's own table decided, the law named once per signature
    assert len(decided) == 5625
    assert [r.instances_checked for r in reports] == [5625] * len(_PAIR_CLAIMS)
    assert len(named) == 256 and all(p.ohom for p in named)
    pairs = _real_pairs({"sizes": (3,), "up_to_iso": True})
    firsts = {}  # signature -> its first pair
    for p in pairs:
        firsts.setdefault(p.signature, p)
    assert list(firsts.values()) == named
    fake = _unit_elsewhere(next(p for p in pairs if p.target.combined.n > 1))
    named.clear()
    harness._check(_PAIR_CLAIMS, [fake, *pairs, fake])
    assert named == [fake, *firsts.values(), fake]


def test_pair_pass_certifies_each_product_once(monkeypatch):
    certified = []
    certify = harness.direct_product

    def counted(left, right, **kwargs):
        certified.append((left, right))
        return certify(left, right, **kwargs)

    monkeypatch.setattr(harness, "direct_product", counted)
    verify_all(_PAIR_CLAIMS, sizes=(3,), up_to_iso=True)
    # the 6 x 6 products of the six classes, sources and targets alike
    assert len(certified) == len(set(certified)) == 36


def test_a_product_that_fails_certification_raises(monkeypatch):
    # a product of two algebras is one (every axiom is a universal Horn
    # sentence), so a failed certification is a defect, never a skip
    certify = harness.direct_product

    def failing(left, right, **kwargs):
        product, report = certify(left, right, **kwargs)
        return product, report._replace(holds=False)

    monkeypatch.setattr(harness, "direct_product", failing)
    with pytest.raises(RuntimeError, match="is not an algebra"):
        verify_all(_PAIR_CLAIMS, sizes=(1, 2))


def test_ohom_pass_takes_no_kernel_beyond_the_pools(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(harness, "kernel", counted)
    monkeypatch.setattr(morphisms, "kernel", counted)
    claims = [c for c, spec in harness.CLAIMS.items() if spec.scope == harness.OHOM]
    assert len(claims) == 17
    verify_all(claims, sizes=(1, 2, 3), up_to_iso=True)
    # `_Pool.ohoms` takes each of the 138 O-homs' kernels; no claim another
    assert len(calls) == len(set(calls)) == 138


def test_witness_names_the_first_witness_of_a_failing_subset_check():
    failing = 0
    for a in enumerate_obci(2):
        s, atlas = a.structure, Atlas.of(a.structure)
        for mask in range(1 << s.n):
            # the first witness of an uncapped check
            report = is_filter(s, Subset(s, mask), witness_cap=None)
            expected = None if report.holds else report.witnesses[0]
            assert harness._witness(harness.FILTER, atlas, s, mask) == expected
            failing += not report.holds
    assert failing


# --- every counterexample branch, on fabricated instances ---------------------

def _facts(source, target, table, ker=None):
    """A `_MapFacts` of any map, O-hom or not, with its own kernel unless
    `ker` names another mask."""
    m = morphisms.Mapping(source, target, table)
    return harness._MapFacts(m, kernel(m).mask if ker is None else ker,
                             Atlas.of(source), Atlas.of(target))


def _algebra(name):
    if name in fixtures.ALGEBRAS:
        return fixtures.ALGEBRAS[name]
    n = int(name[1])
    return next(a.structure for a in enumerate_obci(n, up_to_iso=n == 3) if a.name == name)


# A structure whose unit arrow e->e leaves the cone {e}: it fails OBCI-3.
_NOT_REFLEXIVE = RawStructure("bad", ("e", "a"), ((1, 0), (0, 0)), 0,
                              ((True, False), (True, True)))

_BRANCHES = [
    # (claim, source, target, table, ker, (checked, skipped), [(extra context, witness)])
    ("T-filter-preimage", "exy", "ea", (0, 1, 0), None, (2, 2),
     [(("G={e}", "result={e,y}"), (2, 1))]),
    ("T-kernel-filter", "exy", "ea", (0, 1, 0), None, (1, 0), [(("ker={e,y}",), (2, 1))]),
    ("P-monotone", "exy", "ea", (0, 1, 0), None, (1, 0), [((), ("order", 1, 0))]),
    ("T-filter-bijection", "exy", "ea", (0, 1, 1), None, (1, 0),
     [(("law=preimage-inverts", "F={e,x}"), ("e", "a")), (("law=injective",), ())]),
    ("T-filter-image", "n3-0", "n3-0", (0, 2, 1), None, (3, 5),
     [(("F={e,b}", "result={e,a}"), (1, 2))]),
    ("T-filter-bijection", "n3-0", "n3-0", (0, 2, 1), None, (1, 0),
     [(("law=image-in-family", "F={e,b}"), ("e", "a")), (("law=surjective",), ()),
      (("law=preimage-in-family", "G={e,b}"), ("e", "a"))]),
    ("P-closed-kernel", "n1-0", "n2-0", (1,), None, (1, 0), [(("case=closed",), (0,))]),
    ("P-monotone", "n1-0", "n2-0", (1,), None, (1, 0), [((), ("unit-image",))]),
    # {e,a} is not the kernel {e,b}: neither closed nor ordered-closed
    ("T-kernel-closed-converse", "n3-5", "n2-0", (0, 1, 0), 0b011, (1, 0),
     [(("ker={e,a}", "law=subalgebra"), (1, 0)),
      (("ker={e,a}", "law=ordered-subalgebra"), (1, 0))]),
    ("P-monotone", "n1-0", _NOT_REFLEXIVE, (0,), None, (1, 0), [((), ("unit-selfarrow",))]),
]


@pytest.mark.parametrize("claim,source,target,table,ker,tally,found", _BRANCHES)
def test_counterexample_branches_name_their_context_and_witness(
        claim, source, target, table, ker, tally, found):
    source = _algebra(source)
    target = target if isinstance(target, RawStructure) else _algebra(target)
    f = _facts(source, target, table, ker)
    context = (f"X={source.name}", f"Y={target.name}",
               "map=(" + ",".join(map(str, table)) + ")")
    assert harness._check([claim], [f])[claim] == \
        (*tally, [harness.Counterexample(context + extra, w) for extra, w in found])


def test_ksets_names_sides_that_differ_and_a_missing_unit():
    pool = harness._pool_for(sizes=(1,))
    real = next(harness._ohom_pairs(pool, (0, 1)))
    # K1 = {} is no kernel, so K1 x ker f2 misses the unit pair and the
    # second side's ker f1 x K2
    fake = real._replace(kernels=(*real.kernels[:2], 0, *real.kernels[3:]))
    assert harness._check(["T-ksets"], [real, fake])["T-ksets"] == (2, 0, [
        harness.Counterexample(fake.context, (w,))
        for w in ("sides-differ", "differs-from-pair-kernel", "unit-missing")])


def test_map_pass_classifies_each_hom_once_and_no_other_map(monkeypatch):
    calls = []

    def counted(m, **kwargs):
        calls.append(m)
        return classify(m, **kwargs)

    # the laws that require an O-hom classify through the morphisms module
    monkeypatch.setattr(harness, "classify", counted)
    monkeypatch.setattr(morphisms, "classify", counted)
    claims = [c for c, spec in harness.CLAIMS.items() if spec.scope != "pair"]
    verify_all(claims, sizes=(1, 2, 3), up_to_iso=True)
    # the 138 homs among the 1,223 maps; every other map is skipped unbuilt
    assert len(calls) == len(set(calls)) == 138
    assert all(classify(m).is_hom for m in calls)


def test_ohom_pass_sees_exactly_the_ohoms_at_size_four(monkeypatch):
    pool = harness._pool_for(sizes=(1, 2, 3, 4), up_to_iso=True)
    homs = [(m.source.name, m.target.name, m.table) for _, _, m in pool.homs()]
    ohoms = [(m.source.name, m.target.name, m.table) for _, _, m, _ in pool.ohoms]
    assert (len(homs), len(ohoms)) == (4606, 4605)
    # the one hom that is no O-map: the identity n4-31 -> n4-30
    assert set(homs) - set(ohoms) == {("n4-31", "n4-30", (0, 1, 2, 3))}
    assert all(ker == kernel(m).mask for _, _, m, ker in pool.ohoms)
    seen, check = [], harness._check

    def recorded(claims, instances, skipped=0):
        instances = list(instances)
        seen.extend(instances)
        return check(claims, instances, skipped)

    monkeypatch.setattr(harness, "_check", recorded)
    harness._run_pass(pool, harness.OHOM, ["P-monotone"], (0, 1))
    assert [f.m for f in seen] == [m for _, _, m, _ in pool.ohoms]


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_maps_the_ohom_pass_never_sees_are_skipped_once(parts):
    # P-monotone and T-kernel-filter hold on every O-hom and skip none of
    # them, so every skip is a map that is no O-hom, counted in part 0
    claims = ("P-monotone", "T-kernel-filter")
    pool = harness._pool_for(sizes=(1, 2, 3, 4), up_to_iso=True)
    reports = [harness._run_part(claims, pool, k, parts) for k in range(parts)]
    for _, *per_part in zip(claims, *reports):
        assert sum(r.instances_checked for r in per_part) == 4605
        assert [r.hypothesis_skipped for r in per_part] == [310994 - 4605] + [0] * (parts - 1)
        assert all(r.verified for r in per_part)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_part_runs_each_scope_pass_once(monkeypatch, k):
    passes, check, check_maps = [], harness._check, harness._check_maps

    def counted(run):
        def pass_(claims, *args):
            passes.append((run.__name__, {harness.CLAIMS[c].scope for c in claims}))
            return run(claims, *args)
        return pass_

    monkeypatch.setattr(harness, "_check", counted(check))
    monkeypatch.setattr(harness, "_check_maps", counted(check_maps))
    reports = harness._run_part(CLAIM_IDS, harness._pool_for(sizes=(1, 2)), k, 3)
    assert [r.claim for r in reports] == list(CLAIM_IDS)
    # one pass per scope, in the order the scopes first occur among the
    # claims; part 0 runs the map pass whole, the others check no map
    maps = "_check_maps" if k == 0 else "_check"
    assert passes == [("_check", {harness.ALGEBRA}), ("_check", {harness.OHOM}),
                      (maps, {harness.MAP}), ("_check", {harness.PAIR})]


def test_hom_not_omap_search_classifies_the_homs_up_to_its_hit(monkeypatch):
    calls = []

    def counted(m, **kwargs):
        calls.append(m)
        return classify(m, **kwargs)

    monkeypatch.setattr(harness, "classify", counted)
    hit = find_counterexample("hom-not-omap", sizes=(1, 2, 3, 4), up_to_iso=True)
    assert hit.context == ("X=n4-31", "Y=n4-30", "map=(0,1,2,3)")
    homs = [m for _, _, m in harness._pool_for(sizes=(1, 2, 3, 4), up_to_iso=True).homs()]
    # the hit is the 4,543rd of the 4,606 homs in map order; no later hom
    # and no other map is classified
    assert calls == homs[:homs.index(calls[-1]) + 1]
    assert len(calls) == 4543 < len(homs)


# The 20 non-product claims over the 42 isomorphism classes of sizes 1-4:
# (checked, skipped, counterexamples) per claim, as recorded from a sweep
# that built and classified all 310,994 maps one by one.
_SIZE_FOUR_ISO = {
    "P-identities": (42, 0, 0),
    "P-ordfilter-is-filter": (42, 544, 0),
    "P-monotone": (4605, 306389, 0),
    "P-kernel-alt": (310994, 0, 0),
    "P-closed-kernel": (4528, 306466, 0),
    "T-kernel-closed-converse": (3564, 307430, 0),
    "T-subalg-preimage": (33708, 340237, 0),
    "T-subalg-image": (1162, 312026, 0),
    "T-ordsubalg-preimage": (63626, 310319, 0),
    "T-ordsubalg-image-cone": (354, 312834, 0),
    "T-ordsubalg-image-reflect": (844, 310963, 0),
    "T-kernel-filter": (4605, 306389, 0),
    "T-kernel-ordfilter": (4605, 306389, 0),
    "T-filter-preimage": (15056, 344866, 0),
    "T-filter-image": (759, 312429, 0),
    "T-ordfilter-preimage": (17191, 342731, 0),
    "T-ordfilter-image-reflect": (315, 311492, 0),
    "T-ordfilter-image-kercone": (61, 313127, 0),
    "T-filter-bijection": (160, 310834, 74),
    "T-ordfilter-bijection": (160, 310834, 606)
}


# SHA-256 of every counterexample of those sweeps, in order: one line
# repr((claim, context, witness)) each, the bijection claims' 74 and 606.
_SIZE_FOUR_ISO_DIGEST = "0ffcf10c00770242e62ef648ade50179ab6dff60d1f31be646238b9d4af6392c"


@pytest.mark.parametrize("jobs", [1, 3])
def test_size_four_iso_sweep_counts(jobs):
    claims = [c for c, spec in harness.CLAIMS.items() if spec.scope != "pair"]
    reports = verify_all(claims, sizes=(1, 2, 3, 4), up_to_iso=True, jobs=jobs)
    assert {r.claim: (r.instances_checked, r.hypothesis_skipped,
                      len(r.counterexamples)) for r in reports} == _SIZE_FOUR_ISO
    lines = b"".join(repr((r.claim, c.context, c.witness)).encode() + b"\n"
                     for r in reports for c in r.counterexamples)
    assert hashlib.sha256(lines).hexdigest() == _SIZE_FOUR_ISO_DIGEST


# --- the orbit oracle: weighted isomorphism classes give the labelled counts --

def _automorphisms(s):
    """The number of unit-fixing permutations of s's carrier that preserve
    its operation and its stored relation, by brute force."""
    rest = [x for x in range(s.n) if x != s.unit]
    xs = range(s.n)
    count = 0
    for tail in itertools.permutations(rest):
        p = list(xs)
        for x, y in zip(rest, tail):
            p[x] = y
        count += all(p[s.op[x][y]] == s.op[p[x]][p[y]]
                     and s.order[x][y] == s.order[p[x]][p[y]]
                     for x in xs for y in xs)
    return count


def _orbit_weighted(sizes):
    """Each isomorphism class of `sizes` listed (n-1)!/|Aut| times, once for
    each labelled algebra on {0..n-1} with the unit at 0 that it has."""
    return [a for n in sizes for a in enumerate_obci(n, up_to_iso=True)
            for _ in range(math.factorial(n - 1) // _automorphisms(a.structure))]


def test_classes_weighted_by_orbit_size_give_every_labelled_count():
    # Every claim is invariant under isomorphism, so a pool that lists each
    # class once per labelled copy has each labelled sweep's (checked,
    # skipped, number of counterexamples) for every claim.  Counterexamples
    # name their algebras, so only their numbers are compared.  CI repeats
    # this for the non-pair claims at sizes 1-4.
    assert [len(_orbit_weighted((n,))) for n in (1, 2, 3, 4)] == [1, 2, 10, 167]

    def counts(pool):
        return {r.claim: (r.instances_checked, r.hypothesis_skipped, len(r.counterexamples))
                for r in harness._run_part(CLAIM_IDS, pool, 0, 1)}

    weighted = harness._Pool(_orbit_weighted((1, 2, 3)))
    assert len(weighted.algebras) == 13
    assert counts(weighted) == counts(harness._pool_for((1, 2, 3)))
