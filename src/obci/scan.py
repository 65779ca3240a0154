"""The enumeration scan: a backtracking search over operation tables.

Every operation table / cone pair on {0..n-1} with the unit fixed at 0
is a candidate: the unit row is forced to the identity and the relation
is taken as cone-generated, so the linking axiom (OBCI-5) holds by
construction.  For each cone mask (ascending, bit 0 always set) the
non-unit cells are filled in row-major order, each trying its values in
ascending order, so the surviving tables come out in row-major
lexicographic order.  A partial table is dropped as soon as an OBCI-1, 4
or 6 instance whose cells are all assigned fails.  At a leaf every cell
is assigned, and that check is the full check of the six axioms: with
the unit row the identity, OBCI-2 at (y, z) is OBCI-1 at (e, y, z) and
OBCI-3 at y is OBCI-1 at (e, e, y), and OBCI-5 holds by construction.
The axioms themselves live in `core.AXIOMS`; the three checked here are
re-encoded over partial tables as pruning constraints.  This is the
finite-model search of SEM and Mace4, without their propagation.
"""

from __future__ import annotations


def _fails(rng: range, op: list[list], cone: list[bool]) -> bool:
    """True when an OBCI-1, 4 or 6 instance reading only assigned cells fails.

    One pass over the assigned cells (x, y), with v = x->y: OBCI-4 and
    OBCI-6 on v, then the OBCI-1 instances (x, y, z) over z.  Unassigned
    cells hold None.  "unit <= w" is cone[w], and "unit <= x" is cone[x]
    because the unit row is the identity.  That same row makes the OBCI-2
    instance (y, z) the OBCI-1 instance (e, y, z) and the OBCI-3 instance
    y the OBCI-1 instance (e, e, y), each reading the same cells, so
    neither needs a check of its own; OBCI-5 holds by construction.
    """
    for x in rng:
        row_x = op[x]
        for y in rng:
            v = row_x[y]
            if v is None:
                continue
            if cone[v]:
                if x != y:                                 # OBCI-4
                    w = op[y][x]
                    if w is not None and cone[w]:
                        return True
                if cone[x] and not cone[y]:                # OBCI-6
                    return True
            a = op[v]
            row_y = op[y]
            for z in rng:
                # OBCI-1: (x->y) <= (y->z)->(x->z)
                p, q = row_y[z], row_x[z]
                if p is None or q is None:
                    continue
                w = op[p][q]
                if w is not None:
                    w = a[w]
                    if w is not None and not cone[w]:
                        return True
    return False


def valid_tables(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All (flat op table, cone mask) pairs passing the axioms, in scan order."""
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    rng = range(n)
    cells = [(i, j) for i in range(1, n) for j in rng]
    results: list[tuple[tuple[int, ...], int]] = []
    for cone_bits in range(1 << (n - 1)):
        cone_mask = (cone_bits << 1) | 1
        cone = [bool(cone_mask >> i & 1) for i in rng]
        op = [list(rng)] + [[None] * n for _ in range(n - 1)]

        def fill(k: int) -> None:
            if _fails(rng, op, cone):
                return
            if k == len(cells):
                results.append((tuple(v for row in op for v in row), cone_mask))
                return
            i, j = cells[k]
            for v in rng:
                op[i][j] = v
                fill(k + 1)
            op[i][j] = None

        fill(0)
    return results

