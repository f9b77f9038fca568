"""Indices (g-vectors) via the zig-zag construction, Hom/Ext
predicates, and the two-way duality check between triangulations."""

from __future__ import annotations

from typing import NamedTuple

from .triangulation import Triangulation
from .zmodel import (Arc, ModelError, StepCapExceeded, Vertex, ZModel,
                     suspend)


DEFAULT_STEP_CAP = 10 ** 6


class KVector:
    """Finitely supported integer combination of diagonals of a fixed
    triangulation; zero coefficients are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Arc, int] | None = None):
        self.coeffs = {a: c for a, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def basis(a: Arc) -> "KVector":
        return KVector({a: 1})

    @staticmethod
    def zero() -> "KVector":
        return KVector()

    def get(self, a: Arc) -> int:
        return self.coeffs.get(a, 0)

    def __add__(self, other: "KVector") -> "KVector":
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return KVector(out)

    def __sub__(self, other: "KVector") -> "KVector":
        return self + (-other)

    def __neg__(self) -> "KVector":
        return KVector({a: -c for a, c in self.coeffs.items()})

    def __rmul__(self, n: int) -> "KVector":
        return KVector({a: n * c for a, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, KVector) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items_sorted(self, z: ZModel):
        return sorted(self.coeffs.items(),
                      key=lambda ac: (z.key(ac[0].p), z.key(ac[0].q)))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "KVector(0)"
        parts = [f"{c}*{a!r}" for a, c in self.coeffs.items()]
        return "KVector(" + " + ".join(parts) + ")"


class ZigZagPath(NamedTuple):
    vertices: tuple[Vertex, ...]
    anchor: tuple[Vertex, Vertex]
    triangulation: Triangulation


def ext_nonzero(z: ZModel, x: Arc, y: Arc) -> bool:
    if not (z.is_diagonal(x) and z.is_diagonal(y)):
        raise ModelError("ext_nonzero needs diagonals")
    return z.crosses(x, y)


def hom_nonzero(z: ZModel, x: Arc, y: Arc) -> bool:
    """Non-vanishing of morphisms x -> y: some labelling satisfies
    x0 <= y0 <= x1-- < x1 <= y1 <= x0-- cyclically."""
    if not (z.is_diagonal(x) and z.is_diagonal(y)):
        raise ModelError("hom_nonzero needs diagonals")
    pp2 = lambda v: z.pred(z.pred(v))
    for (x0, x1) in ((x.p, x.q), (x.q, x.p)):
        for (y0, y1) in ((y.p, y.q), (y.q, y.p)):
            if (z.in_closed(x0, y0, pp2(x1))
                    and z.in_closed(x1, y1, pp2(x0))):
                return True
    return False


def zigzag(t: Triangulation, e: Vertex, f: Vertex,
           step_cap: int = DEFAULT_STEP_CAP) -> ZigZagPath:
    """The extremal path e = e0, e1, ..., e_{2i+1} = f.

    Odd steps are suprema toward f with edges allowed; even steps are
    infima back past f through diagonals of T only."""
    z = t.z
    e, f = z.v(e), z.v(f)
    if e == f:
        raise ModelError("zig-zag needs distinct endpoints")
    path = [e]
    e1 = t.sup_connected(e, z.succ(e), f, diagonals_only=False)
    if e1 is None:
        raise ModelError("no first step: e is isolated (invalid input)")
    path.append(e1)
    steps = 0
    while path[-1] != f:
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(
                f"zig-zag from {e!r} to {f!r} exceeded {step_cap} steps")
        prev_odd = path[-1]     # e_{2k-1}
        prev_even_anchor = path[-2]  # e_{2k-2}
        e_even = t.inf_connected(prev_odd, z.succ(f),
                                 z.pred(prev_even_anchor),
                                 diagonals_only=True)
        if e_even is None:
            raise ModelError("zig-zag stuck: no even step (invalid input)")
        path.append(e_even)
        e_odd = t.sup_connected(e_even, z.succ(prev_odd), f,
                                diagonals_only=False)
        if e_odd is None:
            raise ModelError("zig-zag stuck: no odd step (invalid input)")
        path.append(e_odd)
    return ZigZagPath(tuple(path), (e, f), t)


def index(t: Triangulation, a: Arc) -> KVector:
    """The index of the arc in the basis of t: the alternating sum of
    consecutive zig-zag pairs; edge steps contribute zero.

    Answers are memoized on t, keyed by arc; every call returns a
    fresh KVector."""
    memo = t._memo("index")
    coeffs = memo.get(a)
    if coeffs is None:
        coeffs = memo[a] = _zigzag_index(t, a).coeffs
    return KVector(coeffs)


def _zigzag_index(t: Triangulation, a: Arc) -> KVector:
    if not (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)):
        raise ModelError("index needs vertex endpoints")
    z = t.z
    if z.is_edge(a):
        return KVector.zero()
    path = zigzag(t, a.p, a.q).vertices
    total = KVector.zero()
    for m in range(len(path) - 1):
        step = Arc(path[m], path[m + 1])
        if z.is_edge(step):
            continue
        if not t.contains(step):
            raise ModelError(
                f"zig-zag step {step!r} is a diagonal outside T "
                "(invalid triangulation)")
        total = total + (-1) ** m * KVector.basis(step)
    return total


def index_of_kvector(t: Triangulation, kv: KVector) -> KVector:
    out = KVector.zero()
    for a, c in kv.coeffs.items():
        out = out + c * index(t, a)
    return out


def index_bar(t: Triangulation, a: Arc) -> KVector:
    return -index(t, suspend(t.z, a))


def index_bar_of_kvector(t: Triangulation, kv: KVector) -> KVector:
    out = KVector.zero()
    for a, c in kv.coeffs.items():
        out = out + c * index_bar(t, a)
    return out


class DualityReport(NamedTuple):
    ok: bool
    failures: tuple[tuple, ...]


def check_duality(t_t: Triangulation, t_u: Triangulation,
                  window_t: list[Arc] | None = None,
                  window_u: list[Arc] | None = None) -> DualityReport:
    """Verifies that the two index maps are mutually inverse on the
    given basis windows: ind_T(ind_bar_U[t]) = [t] and
    ind_bar_U(ind_T[u]) = [u]."""
    if window_t is None:
        window_t = t_t.window_nodes()
    if window_u is None:
        window_u = t_u.window_nodes()
    failures = []
    for a in window_t:
        via_u = index_bar(t_u, a)
        back = index_of_kvector(t_t, via_u)
        if back != KVector.basis(a):
            failures.append(("T-side", a, via_u, back))
    for a in window_u:
        via_t = index(t_t, a)
        back = index_bar_of_kvector(t_u, via_t)
        if back != KVector.basis(a):
            failures.append(("U-side", a, via_t, back))
    return DualityReport(not failures, tuple(failures))
