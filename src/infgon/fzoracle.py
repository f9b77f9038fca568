"""Independent matrix-mutation oracle for finite polygons.

Skew-symmetric exchange-matrix mutation with principal coefficients,
tracking the c- and g-matrices along flip sequences.  This is a
self-contained combinatorial computation used to cross-validate the
categorical c-vector and index computations; it shares no code with
them beyond the dual-quiver extraction.  Matrices are tuples of int
tuples and every step is exact integer arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from .triangulation import Triangulation
from .zmodel import Arc, ModelError

Matrix = tuple[tuple[int, ...], ...]


def identity(m: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination (Math. Comp. 1968).  After step k every
    entry is a (k + 1)-minor of the input, so each division by the
    previous pivot is exact; a zero pivot is replaced by a lower row
    with a nonzero entry in its column, flipping the sign."""
    rows = [list(r) for r in a]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, rk = rows[k][k], rows[k]
        for ri in rows[k + 1:]:
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if n else 1


class SeedMatrix:
    """Exchange matrix B with c- and g-matrices over the initial basis.

    Row i of ``c`` is the c-vector of node i, and row i of ``g`` its
    g-vector, both in the coordinates of the initial diagonals
    ``basis``.  ``labels[i]`` is the diagonal currently represented by
    node i along a flip path."""

    __slots__ = ("b", "c", "g", "labels", "basis")

    def __init__(self, b: Matrix, c: Matrix, g: Matrix,
                 labels: tuple[Arc, ...], basis: tuple[Arc, ...]):
        self.b = b
        self.c = c
        self.g = g
        self.labels = labels
        self.basis = basis

    @property
    def m(self) -> int:
        return len(self.b)

    def check(self) -> None:
        """Structural invariants: B skew-symmetric, C and G unimodular
        (exact determinant ±1), C rows sign coherent."""
        if self.b != tuple(tuple(-x for x in col) for col in zip(*self.b)):
            raise ModelError("exchange matrix is not skew-symmetric")
        for mat, name in ((self.c, "C"), (self.g, "G")):
            if det(mat) not in (1, -1):
                raise ModelError(f"{name}-matrix is not unimodular")
        for row in self.c:
            coherent = all(x >= 0 for x in row) or all(x <= 0 for x in row)
            if not coherent or not any(row):
                raise ModelError("c-matrix row is not sign coherent")

    def pairing_matrix(self) -> Matrix:
        """<c_i, g_j> over all node pairs; the identity by duality."""
        return tuple(tuple(sum(x * y for x, y in zip(ci, gj))
                           for gj in self.g) for ci in self.c)


def from_triangulation(t: Triangulation) -> SeedMatrix:
    """The initial seed of a finite triangulation: B from the dual
    quiver, C = G = identity."""
    z = t.z
    if not z.is_finite:
        raise ModelError("the matrix oracle is finite-type only")
    nodes = tuple(sorted(t.core, key=z.arc_key))
    pos = {a: i for i, a in enumerate(nodes)}
    m = len(nodes)
    b = [[0] * m for _ in range(m)]
    for s, tgt in t.dual_quiver(nodes).arrows:
        b[pos[tgt]][pos[s]] += 1
        b[pos[s]][pos[tgt]] -= 1
    ident = identity(m)
    return SeedMatrix(tuple(map(tuple, b)), ident, ident, nodes, nodes)


def _exchange(x: int, a: int, y: int) -> int:
    """x + [a]_+ [y]_+ - [-a]_+ [-y]_+, the exchange term of mutation."""
    return x + max(a, 0) * max(y, 0) - max(-a, 0) * max(-y, 0)


def mutate(s: SeedMatrix, k: int, new_label: Arc | None = None) -> SeedMatrix:
    """Fomin--Zelevinsky mutation at node k with principal coefficients."""
    m = s.m
    if not (0 <= k < m):
        raise ModelError(f"node index {k} out of range 0..{m - 1}")
    b, bk = s.b, s.b[k]
    nb = tuple(tuple(-x if k in (i, j) else _exchange(x, bi[k], bk[j])
                     for j, x in enumerate(bi))
               for i, bi in enumerate(b))

    # c-vectors: the coefficient rows of the extended matrix are the
    # columns of ``c``, so entry i of row j moves by the exchange term
    # of c_k[i] and b_kj.
    ck = s.c[k]
    nc = tuple(tuple(-y for y in ck) if j == k
               else tuple(_exchange(x, y, bk[j]) for x, y in zip(cj, ck))
               for j, cj in enumerate(s.c))

    # g-vectors: g'_k = -g_k + sum_i [-eps * b_ik]_+ g_i with eps the
    # sign of the k-th c-vector (sign coherent, so well defined).
    eps = 1 if all(x >= 0 for x in ck) else -1
    coeffs = [max(-eps * bi[k], 0) for bi in b]
    g = s.g
    gk = tuple(-y + sum(w * gi[col] for w, gi in zip(coeffs, g))
               for col, y in enumerate(g[k]))
    ng = g[:k] + (gk,) + g[k + 1:]
    labels = s.labels
    if new_label is not None:
        labels = labels[:k] + (new_label,) + labels[k + 1:]
    return SeedMatrix(nb, nc, ng, labels, s.basis)


def run_flip_path(t: Triangulation, flips: Sequence[Arc] | None = None, *,
                  rng=None, max_len: int = 0
                  ) -> tuple[SeedMatrix, Triangulation]:
    """Mutate the seed of T along a flip path; return the final seed,
    whose labels are the diagonals of the final triangulation, and that
    triangulation.

    The path is ``flips``, each a diagonal of the triangulation reached
    so far, or, without ``flips``, a random path drawn from ``rng``:
    ``rng.randrange(0, max_len + 1)`` steps, then before each step one
    ``rng.choice`` among the current labels."""
    cur = t
    seed = from_triangulation(t)

    def random_flips():
        for _ in range(rng.randrange(0, max_len + 1)):
            yield rng.choice(seed.labels)  # the labels reached so far

    for d in random_flips() if flips is None else flips:
        if d not in seed.labels:
            raise ModelError(f"{d!r} is not a diagonal of the current "
                             "triangulation")
        k = seed.labels.index(d)
        cur, dstar = cur.flip(d)
        seed = mutate(seed, k, new_label=dstar)
    return seed, cur
