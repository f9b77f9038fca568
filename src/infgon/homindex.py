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
        coeffs = dict(coeffs or {})  # a copy reuses the stored hashes
        if 0 in coeffs.values():
            coeffs = {a: c for a, c in coeffs.items() if c != 0}
        self.coeffs = coeffs

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
    even, odd = e, t.sup_connected(e, z.succ(e), f)  # e_{2k-2}, e_{2k-1}
    if odd is None:
        raise ModelError("no first step: e is isolated (invalid input)")
    path = [e, odd]
    past_f = None  # succ(f), found on the first even step
    while odd != f:
        if len(path) > 2 * step_cap:  # each step adds two vertices
            raise StepCapExceeded(
                f"zig-zag from {e!r} to {f!r} exceeded {step_cap} steps")
        past_f = past_f or z.succ(f)
        even = t.inf_connected(odd, past_f, z.pred(even), True)
        if even is None:
            raise ModelError("zig-zag stuck: no even step (invalid input)")
        odd = t.sup_connected(even, z.succ(odd), f)
        if odd is None:
            raise ModelError("zig-zag stuck: no odd step (invalid input)")
        path += (even, odd)
    return ZigZagPath(tuple(path), (e, f), t)


def index(t: Triangulation, a: Arc) -> KVector:
    """The index of the arc in the basis of t: the alternating sum of
    consecutive zig-zag pairs; edge steps contribute zero.

    Answers are memoized on t, keyed by arc; every call returns a
    fresh KVector."""
    return KVector(index_coeffs(t, a))


def index_coeffs(t: Triangulation, a: Arc) -> dict[Arc, int]:
    """index(t, a)'s coefficients as memoized on t: never change them."""
    memo = t._memo("index")
    coeffs = memo.get(a)
    if coeffs is None:
        coeffs = memo[a] = _zigzag_index(t, a).coeffs
    return coeffs


def _zigzag_index(t: Triangulation, a: Arc) -> KVector:
    if not (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)):
        raise ModelError("index needs vertex endpoints")
    z = t.z
    if z.is_edge(a):
        return KVector.zero()
    path = zigzag(t, a.p, a.q).vertices
    total: dict[Arc, int] = {}
    for m, (u, w) in enumerate(zip(path, path[1:])):
        if not z.are_neighbours(u, w):  # an edge step adds nothing
            step = Arc(u, w)
            total[step] = total.get(step, 0) + (-1) ** m
    for step in total:
        if not t.contains(step):
            raise ModelError(
                f"zig-zag step {step!r} is a diagonal outside T "
                "(invalid triangulation)")
    return KVector(total)


def _index_sum(t: Triangulation, terms) -> KVector:
    """The sum of c * index(t, a) over the pairs (a, c) of terms,
    accumulated into one dict."""
    total: dict[Arc, int] = {}
    for a, c in terms:
        for b, d in index_coeffs(t, a).items():
            total[b] = total.get(b, 0) + c * d
    return KVector(total)


def index_of_kvector(t: Triangulation, kv: KVector) -> KVector:
    return _index_sum(t, kv.coeffs.items())


def index_bar(t: Triangulation, a: Arc) -> KVector:
    return -index(t, suspend(t.z, a))


def index_bar_of_kvector(t: Triangulation, kv: KVector) -> KVector:
    z = t.z
    return _index_sum(t, ((suspend(z, a), -c) for a, c in kv.coeffs.items()))


class DualityReport(NamedTuple):
    ok: bool
    failures: tuple[tuple, ...]


def check_duality(t_t: Triangulation, t_u: Triangulation,
                  window_t: list[Arc] | None = None,
                  window_u: list[Arc] | None = None) -> DualityReport:
    """Verifies that the two index maps are mutually inverse on the
    given basis windows: ind_T(ind_bar_U[t]) = [t] and
    ind_bar_U(ind_T[u]) = [u]."""
    if t_t.z != t_u.z:
        raise ModelError("triangulations live over different models")
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
