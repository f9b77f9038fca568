"""The in-process workloads: octagon_realize and tail_offsets.

Library calls go through module attributes (`cvector.dimension_vector`)
so that a traced run sees every call it wraps.
"""

from __future__ import annotations

from functools import partial

from infgon import cvector, decomposition, homindex, triangulation
from infgon.triangulation import Fountain, Leapfrog, Triangulation
from infgon.zmodel import Arc, Limit, Vertex, ZModel, suspend

import facts
from workload import Query


def _pair(a: Arc) -> tuple[int, int]:
    return (a.p.idx, a.q.idx)


class OctagonRealize:
    """Every triangulation T of the octagon and every diagonal v that
    crosses T: one dimension_vector -> realize_dimension_vector ->
    cvector_full round trip per query (132 * 15 = 1,980 a pass).  The
    triangulations are enumerated once at set-up and afresh for every
    pass."""

    def __init__(self, tiny: bool):
        self.n = 5 if tiny else 8
        self.errors: list[str] = []
        self._dims: dict[Triangulation, list[frozenset]] = {}
        self._enumerate()

    def _enumerate(self) -> list[Triangulation]:
        tris = triangulation.enumerate_triangulations(ZModel.finite(self.n))
        if len(tris) != facts.catalan(self.n - 2):
            self.errors.append(f"{len(tris)} triangulations of the "
                               f"{self.n}-gon, expected "
                               f"{facts.catalan(self.n - 2)}")
        return tris

    def close(self) -> None:
        pass

    def pass_queries(self) -> list[Query]:
        self._dims = {}
        queries = []
        for t in self._enumerate():
            core = {_pair(a) for a in t.core}
            for v in facts.polygon_diagonals(self.n):
                if v in core:
                    continue
                crossed = frozenset(d for d in core
                                    if facts.polygon_crosses(d, v))
                queries.append(Query(
                    partial(_round_trip, t, t.z.arc(*v)),
                    partial(self._check, t, crossed)))
        return queries

    def _check(self, t: Triangulation, crossed: frozenset, answer) -> bool:
        dv, sign, cov = answer
        support = frozenset(_pair(a) for a in dv.explicit)
        self._dims.setdefault(t, []).append(support)
        return (not dv.tail_terms and set(dv.explicit.values()) == {1}
                and support == crossed and sign == 1
                and not cov.tail_terms and cov.explicit == dv.explicit)

    def end_pass(self) -> int:
        want = facts.nonzero_dimension_vectors(self.n)
        return sum(len(dims) for dims in self._dims.values()
                   if len(set(dims)) != want)


def _round_trip(t: Triangulation, v: Arc):
    dv = cvector.dimension_vector(t, v)
    u_tri, u = cvector.realize_dimension_vector(t, v)
    sign, _, cov = cvector.cvector_full(cvector.CVectorQuery(t, u_tri, u))
    return dv, sign, cov


# ---------------------------------------------------------------------------
# Tails at vertex offset m.


def _fountain(m: int) -> Triangulation:
    z = ZModel.blocks(1)
    return Triangulation.make(z, set(), {0: Fountain(Vertex(0, m), m + 2, m - 2)})


def _leapfrog(m: int) -> Triangulation:
    z = ZModel.blocks(1)
    return Triangulation.make(z, {z.arc(m - 2, m), z.arc(m, m + 2)},
                              {0: Leapfrog(m + 2, m - 2)})


def _blocks2(m: int) -> Triangulation:
    z = ZModel.blocks(2)
    return Triangulation.make(
        z, {Arc(Vertex(0, m), Vertex(1, m))},
        {0: Fountain(Vertex(0, m), m + 2, m - 1),
         1: Fountain(Vertex(1, m), m + 2, m - 1)})


class _Fixture:
    """A valid tail triangulation at offset m and what is known of it:
    its maximal pairs with their order types (up to the omega <->
    omega* flip), whether its dual quiver is acyclic, the size of
    window_nodes(6), the number of decompose rows over [m-6, m+6],
    and how far a tail family index moves when m does (fountain
    indices are vertex indices; leapfrog indices count from the
    first member)."""

    def __init__(self, build, k, pairs, orders, acyclic, window, rows,
                 index_moves):
        self.build, self.k, self.pairs, self.orders = build, k, pairs, orders
        self.acyclic, self.window, self.rows = acyclic, window, rows
        self.index_moves = index_moves


def _v(m, i, block=0):
    return Vertex(block, m + i)


FIXTURES = {
    "fountain": _Fixture(
        _fountain, 1, lambda m: [(_v(m, -1), _v(m, 1))],
        ["omega + omega*"], True, 14, 56, True),
    "leapfrog": _Fixture(
        _leapfrog, 1,
        lambda m: [(_v(m, -1), _v(m, 1)), (_v(m, 1), Limit(0)),
                   (_v(m, -1), Limit(0))],
        ["Finite(2)", "omega", "omega"], False, 16, 93, False),
    "blocks2": _Fixture(
        _blocks2, 2, lambda m: [(_v(m, 1, 0), _v(m, 1, 1))],
        ["omega + Z"], True, 29, 278, True),
}


def _flip(order: str) -> str:
    """The order type read from the other end."""
    star = {"omega": "omega*", "omega*": "omega"}
    return " + ".join(star.get(p, p) for p in reversed(order.split(" + ")))


class TailOffsets:
    """Three valid tail fixtures at offsets m = 0 and m = 100.  Per
    fixture and offset the queries are: validate; maximal pairs with
    their order types; one decompose candidate (a diagonal of the
    window [m-6, m+6] for one maximal pair) per query; ind(Sigma d) =
    -[d] for each d of window_nodes(6); and the maximality report."""

    def __init__(self, tiny: bool):
        self.offsets = (0,) if tiny else (0, 100)
        self.errors: list[str] = []
        self._rows: dict[tuple, dict[int, object]] = {}
        self._build()

    def _build(self) -> dict[tuple[str, int], Triangulation]:
        return {(name, m): fx.build(m)
                for m in self.offsets for name, fx in FIXTURES.items()}

    def pass_queries(self) -> list[Query]:
        self._rows = {}
        queries = []
        for (name, m), t in self._build().items():
            fx = FIXTURES[name]
            pairs = fx.pairs(m)
            queries.append(Query(partial(triangulation.validate, t),
                                 lambda rep: rep.ok, m))
            queries.append(Query(partial(_pairs, t, pairs),
                                 partial(_check_pairs, fx, pairs), m))
            queries.append(Query(
                partial(decomposition.unique_maximal_iff_acyclic_report, t),
                partial(_check_report, fx, pairs), m))
            nodes = t.window_nodes(6)
            if len(nodes) != fx.window:
                self.errors.append(f"{name} at m={m}: window_nodes(6) has "
                                   f"{len(nodes)} arcs, expected {fx.window}")
            for d in nodes:
                queries.append(Query(
                    partial(homindex.index, t, suspend(t.z, d)),
                    partial(_is_minus_basis, d), m))
            shift = m if fx.index_moves else 0
            for j, (e, f) in enumerate(pairs):
                for p, q in facts.block_window_diagonals(fx.k, m - 6, m + 6):
                    key = (name, j, p[0], p[1] - m, q[0], q[1] - m)
                    queries.append(Query(
                        partial(_decompose_row, t, e, f,
                                Arc(Vertex(*p), Vertex(*q))),
                        partial(self._record, key, m, shift), m))
        return queries

    def _record(self, key, m, shift, answer) -> bool:
        dv, root = answer
        self._rows.setdefault(key, {})[m] = (
            _rel_covector(dv, m, shift),
            None if root is None else (_rel_arc(root.pos, m),
                                       _rel_point(root.neg, m)))
        return True

    def end_pass(self) -> int:
        """Row counts against the known ones, and every answer at a
        non-zero offset against the m = 0 answer shifted by m."""
        for name, fx in FIXTURES.items():
            for m in self.offsets:
                rows = sum(1 for key, by_m in self._rows.items()
                           if key[0] == name and m in by_m
                           and by_m[m][1] is not None)
                if rows != fx.rows:
                    self.errors.append(f"{name} at m={m}: {rows} decompose "
                                       f"rows, expected {fx.rows}")
        return sum(1 for by_m in self._rows.values() for m in self.offsets
                   if 0 in by_m and m in by_m and by_m[m] != by_m[0])

    def close(self) -> None:
        pass


def _pairs(t: Triangulation, pairs):
    found = decomposition.maximal_pairs(t)
    orders = [str(decomposition.crossing_order(t, e, f).descriptor())
              for e, f in pairs]
    return found, orders


def _check_pairs(fx: _Fixture, pairs, answer) -> bool:
    found, orders = answer
    return (found == {frozenset(p) for p in pairs}
            and all(got in (want, _flip(want))
                    for got, want in zip(orders, fx.orders)))


def _check_report(fx: _Fixture, pairs, report) -> bool:
    return (report.acyclic == fx.acyclic
            and report.pairs == {frozenset(p) for p in pairs})


def _is_minus_basis(d: Arc, kv) -> bool:
    return kv.coeffs == {d: -1}


def _decompose_row(t: Triangulation, e, f, a: Arc):
    """One candidate of the `infgon decompose` table: the dimension
    vector of a, and its root when it lies in X_{e,f}."""
    dv = cvector.dimension_vector(t, a)
    if dv.is_zero() or not decomposition.in_X(t, e, f, dv):
        return dv, None
    return dv, decomposition.root_of_arc(t, e, f, a)


def _rel_point(p, m):
    if isinstance(p, Vertex):
        return ("v", p.block, p.idx - m)
    if isinstance(p, Limit):
        return ("L", p.gap)
    return ("-inf",)


def _rel_arc(a: Arc, m: int):
    return tuple(sorted((_rel_point(a.p, m), _rel_point(a.q, m))))


def _rel_covector(c, m: int, shift: int):
    explicit = frozenset((_rel_arc(a, m), v) for a, v in c.explicit.items())
    tails = frozenset(
        (tr.gap, tr.sub, None if tr.lo is None else tr.lo - shift,
         None if tr.hi is None else tr.hi - shift, tr.coeff)
        for tr in c.tail_terms)
    return explicit, tails
