"""Facts the benchmark checks answers against.

Nothing here calls infgon: the checks must not come from the code
under test.  Finite polygons use vertices 0..n-1 counterclockwise and
diagonals as pairs (i, j) of ints.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# SHA-256 of the committed golden figures (tests/golden/*.svg), which
# the `render` command must reproduce byte for byte.
GOLDEN_SVG_SHA256 = {
    "football": "ae686a1f451597ada4f2ebf97bbb8e1fb19340b77891d5b66d0d3d895472379a",
    "fountain": "d3299e100f2a9ae06b9e0586399000b1714b1943c0737570f608dc949f1d9638",
    "leapfrog": "68882d1a6a06e55a5a5e498489baedb3b07ac7e37062fb1c246a28eb4b94f8da",
    "pentagon_zigzag": "9286005c552186339183876463310f4ccedb131f50a086423f1e5628beede516",
}


def catalan(k: int) -> int:
    """The number of triangulations of a (k + 2)-gon."""
    return comb(2 * k, k) // (k + 1)


def nonzero_dimension_vectors(n: int) -> int:
    """Distinct nonzero dimension vectors over one triangulation of
    the n-gon: one per diagonal outside it, (n-3)(n-2)/2 in all."""
    return (n - 3) * (n - 2) // 2


def polygon_diagonals(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in combinations(range(n), 2)
            if (j - i) % n not in (1, n - 1)]


def polygon_crosses(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two diagonals of a convex polygon cross in the interior."""
    (i, j), (k, m) = sorted(a), sorted(b)
    if len({i, j, k, m}) < 4:
        return False
    return (i < k < j) != (i < m < j)


def block_window_diagonals(k: int, lo: int, hi: int
                           ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Diagonals of Blocks(k) with both endpoints (block, idx) in
    [lo, hi]: vertices of different blocks are never neighbours, and
    vertices of one block are neighbours when their indices differ by
    one.  The order is the `infgon decompose` table's candidate order."""
    verts = [(b, i) for b in range(k) for i in range(lo, hi + 1)]
    return [(p, q) for p, q in combinations(verts, 2)
            if p[0] != q[0] or abs(p[1] - q[1]) >= 2]
