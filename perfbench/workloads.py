"""The benchmark's workloads: what one sample runs and its expected answer.

Every sample is a fresh `python3 perfbench/sample.py` process, because a
user pays interpreter start, imports and every cache on every run.  The
loop is closed with one client: the next sample starts when the last one
has exited.  Each sample calls `obci.harness.verify_all` over the
isomorphism representatives of the given sizes, once per scope.  The
`-n2`/`-s2` workloads are the tiny scopes the self-check runs;
BENCHMARK.json lists only the full ones.
"""

from __future__ import annotations

# The claim catalogue at the time the benchmark was defined; per-layer
# metrics are named after it, so it is fixed here rather than read from obci.
CLAIM_IDS = (
    "P-identities", "P-ordfilter-is-filter", "P-monotone", "P-kernel-alt",
    "P-closed-kernel", "T-kernel-closed-converse", "T-subalg-preimage",
    "T-subalg-image", "T-ordsubalg-preimage", "T-ordsubalg-image-cone",
    "T-ordsubalg-image-reflect", "T-kernel-filter", "T-kernel-ordfilter",
    "T-filter-preimage", "T-filter-image", "T-ordfilter-preimage",
    "T-ordfilter-image-reflect", "T-ordfilter-image-kercone",
    "T-filter-bijection", "T-ordfilter-bijection",
    "T-pairmap-ohom", "T-product-kernel", "T-product-kernel-projection", "T-ksets",
)
PRODUCT_CLAIMS = CLAIM_IDS[20:]  # quantify over pairs of O-homomorphisms


def _workload(sizes: tuple, product_sizes: tuple, expected: str, *,
              jobs: int = 1) -> dict:
    # sizes: the scope of the 20 non-product claims; product_sizes: the
    # scope of the four product claims.  A serial workload takes its claims
    # in an order permuted by the seed (see run.py), so a gain that depends
    # on which claim warms a cache first cannot pass; results compare per
    # claim id.  With jobs > 1 the order stays that of CLAIM_IDS, because
    # Pool.map chunks the claims by position and the chunking sets the time.
    return {"sizes": sizes, "product_sizes": product_sizes, "jobs": jobs,
            "permute": jobs == 1, "expected": expected}


WORKLOADS = {
    # Every claim over the six size-3 classes: 75 O-homs, 5,625 O-hom pairs.
    "verify-n3-iso": _workload((3,), (3,), "verify-n3-iso.json"),
    "verify-n3-iso-jobs2": _workload((3,), (3,), "verify-n3-iso.json", jobs=2),
    # Sizes 1-3 (9 classes, 1,223 maps), the product claims capped at size 2.
    "sweep-s3-iso": _workload((1, 2, 3), (1, 2), "sweep-s3-iso.json"),
    "verify-n2-iso": _workload((2,), (2,), "verify-n2-iso.json"),
    "verify-n2-iso-jobs2": _workload((2,), (2,), "verify-n2-iso.json", jobs=2),
    "sweep-s2-iso": _workload((1, 2), (1,), "sweep-s2-iso.json"),
}
