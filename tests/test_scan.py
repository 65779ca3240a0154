import hashlib
import itertools

import pytest

from obci import scan
from obci.core import AXIOM_IDS, RawStructure, check_axiom, order_from_cone


GOLDEN_COUNTS = {1: 1, 2: 2, 3: 10}


def _reference_tables(n):
    """Generate-and-test over the scan's pruned space, decided by check_axiom.

    The unit row is the identity and the relation is generated from the
    cone; every candidate is built as a RawStructure and kept when all six
    axioms hold.  Order: cone masks ascending, tables lexicographic.
    """
    out = []
    labels = tuple(str(i) for i in range(n))
    for cone_bits in range(1 << (n - 1)):
        cone_mask = (cone_bits << 1) | 1
        members = [i for i in range(n) if cone_mask >> i & 1]
        for vals in itertools.product(range(n), repeat=n * (n - 1)):
            flat = (*range(n), *vals)
            op = tuple(flat[i * n:(i + 1) * n] for i in range(n))
            s = RawStructure("ref", labels, op, 0, order_from_cone(op, 0, members))
            if all(check_axiom(s, a, witness_cap=1).holds for a in AXIOM_IDS):
                out.append((flat, cone_mask))
    return out


@pytest.mark.parametrize("n,count", sorted(GOLDEN_COUNTS.items()))
def test_pure_scan_counts(n, count):
    assert len(scan.valid_tables(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_matches_check_axiom_reference(n):
    assert scan.valid_tables(n) == _reference_tables(n)


def test_exact_size_two_models():
    # two models, both over the trivial cone {0}: the 2-chain and the
    # involutive table
    assert scan.valid_tables(2) == [
        ((0, 1, 0, 0), 0b01),
        ((0, 1, 1, 0), 0b01),
    ]


def test_scan_handles_size_four():
    # 2^3 * 4^12 = 134217728 candidates; golden: 167 models, equal in
    # order to the former brute-force odometer's output
    tables = scan.valid_tables(4)
    assert len(tables) == 167
    assert tables[0] == ((0, 1, 2, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0), 0b0001)
    assert tables[-1] == ((0, 1, 2, 3, 3, 3, 3, 3, 1, 1, 2, 3, 1, 1, 1, 3), 0b1101)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == \
        "078c35977f537f8e7359727399c4f3ab2f57fa9052af5baf388d9d7ca1ff8324"


@pytest.mark.parametrize("n,calls", [(1, 1), (2, 10), (3, 253), (4, 27840)])
def test_scan_prunes_as_soon_as_an_assigned_instance_fails(monkeypatch, n, calls):
    # one call per node of the search tree: a weaker check visits more
    count = 0
    fails = scan._fails

    def counted(*args):
        nonlocal count
        count += 1
        return fails(*args)

    monkeypatch.setattr(scan, "_fails", counted)
    scan.valid_tables(n)
    assert count == calls


def test_scan_results_have_identity_unit_row_and_unit_in_cone():
    for flat, cone_mask in scan.valid_tables(3):
        assert flat[:3] == (0, 1, 2)
        assert cone_mask & 1


def test_rejects_empty_carrier():
    with pytest.raises(ValueError):
        scan.valid_tables(0)
