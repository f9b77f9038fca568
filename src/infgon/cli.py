"""Command-line front end: JSON in, JSON or SVG out, stable exit codes.

Exit codes: 0 success, 1 validation/property failure (also a computing
command's input failing the checks run before it), 2 precondition or
parse error, 3 internal step cap exceeded.  Each command imports the
library modules it calls, so a process loads only what it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .triangulation import (Fountain, Leapfrog, Triangulation,
                            UnattainedError, validate)
from .zmodel import (Arc, ClosurePoint, Limit, ModelError,
                     RealizationUnsupported, StepCapExceeded, Vertex, ZModel)

if TYPE_CHECKING:
    from .homindex import CoVector


class ParseError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class InvalidTriangulation(ValueError):
    """A computing command's input fails a check of ``validate``;
    carries the same reason and witness."""

    def __init__(self, report):
        super().__init__(f"invalid triangulation: {report.reason}; "
                         f"witness {report.witness!r}")
        self.report = report


# ---------------------------------------------------------------------------
# JSON (de)serialization.


def _int(value, pointer: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(pointer, f"expected an integer, got {value!r}"
                         ) from None


def _field(obj: dict, name: str, pointer: str):
    if name not in obj:
        raise ParseError(f"{pointer}/{name}", "required field is missing")
    return obj[name]


def _int_field(obj: dict, name: str, pointer: str) -> int:
    return _int(_field(obj, name, pointer), f"{pointer}/{name}")


def _list_field(obj: dict, name: str, pointer: str) -> list:
    value = obj.get(name, [])
    if not isinstance(value, list):
        raise ParseError(f"{pointer}/{name}",
                         f"expected a list, got {value!r}")
    return value


def model_from_json(obj, pointer: str = "/z") -> ZModel:
    if not isinstance(obj, dict):
        raise ParseError(pointer, "model must be an object")
    if "finite" in obj:
        return ZModel.finite(_int_field(obj, "finite", pointer))
    if "blocks" in obj:
        return ZModel.blocks(_int_field(obj, "blocks", pointer))
    raise ParseError(pointer, 'model needs "finite" or "blocks"')


def model_to_json(z: ZModel):
    return {"finite": z.n} if z.is_finite else {"blocks": z.k}


def point_from_json(z: ZModel, obj, pointer: str) -> ClosurePoint:
    if isinstance(obj, bool):
        raise ParseError(pointer, "not a point")
    if isinstance(obj, int):
        return z.v(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return z.v(Vertex(_int(obj[0], pointer + "/0"),
                          _int(obj[1], pointer + "/1")))
    if isinstance(obj, dict) and "limit" in obj:
        if z.is_finite:
            raise ParseError(pointer, "finite model has no limit points")
        return Limit(_int_field(obj, "limit", pointer) % z.k)
    raise ParseError(pointer, f"cannot read point from {obj!r}")


def point_to_json(z: ZModel, p: ClosurePoint):
    if isinstance(p, Limit):
        return {"limit": p.gap}
    return p.idx if z.is_finite else [p.block, p.idx]


def arc_from_json(z: ZModel, obj, pointer: str) -> Arc:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ParseError(pointer, "arc must be a two-element list")
    return Arc(point_from_json(z, obj[0], pointer + "/0"),
               point_from_json(z, obj[1], pointer + "/1"))


def arc_to_json(z: ZModel, a: Arc):
    return [point_to_json(z, a.p), point_to_json(z, a.q)]


def triangulation_from_json(obj, pointer: str = "") -> Triangulation:
    if not isinstance(obj, dict):
        raise ParseError(pointer or "/", "triangulation must be an object")
    z = model_from_json(obj.get("z"), pointer + "/z")
    core = [arc_from_json(z, a, f"{pointer}/core/{i}")
            for i, a in enumerate(_list_field(obj, "core", pointer))]
    tails = {}
    for i, tl in enumerate(_list_field(obj, "tails", pointer)):
        tp = f"{pointer}/tails/{i}"
        if not isinstance(tl, dict) or "limit" not in tl:
            raise ParseError(tp, 'tail needs a "limit" gap')
        g = _int_field(tl, "limit", tp)
        kind = tl.get("type")
        if kind == "fountain":
            base = point_from_json(z, _field(tl, "base", tp), tp + "/base")
            if not isinstance(base, Vertex):
                raise ParseError(tp + "/base", "fountain base is a vertex")
            tails[g] = Fountain(base, _int_field(tl, "right_from", tp),
                                _int_field(tl, "left_to", tp))
        elif kind == "leapfrog":
            tails[g] = Leapfrog(_int_field(tl, "right_from", tp),
                                _int_field(tl, "left_to", tp))
        else:
            raise ParseError(tp, 'tail type must be "fountain" or '
                                 '"leapfrog"')
    return Triangulation.make(z, core, tails)


def triangulation_to_json(t: Triangulation):
    z = t.z
    out = {"z": model_to_json(z),
           "core": [arc_to_json(z, a) for a in sorted(t.core, key=z.arc_key)]}
    tails = []
    for g, tl in t.tails:
        if isinstance(tl, Fountain):
            tails.append({"limit": g, "type": "fountain",
                          "base": point_to_json(z, tl.base),
                          "right_from": tl.right_from,
                          "left_to": tl.left_to})
        else:
            tails.append({"limit": g, "type": "leapfrog",
                          "right_from": tl.right_from,
                          "left_to": tl.left_to})
    if tails:
        out["tails"] = tails
    return out


def covector_to_json(c: CoVector):
    z = c.t.z
    expl = sorted(c.explicit.items(), key=lambda ac: z.arc_key(ac[0]))
    out = {"explicit": [[arc_to_json(z, a), v] for a, v in expl]}
    if c.tail_terms:
        out["tails"] = [{"gap": tr.gap, "sub": tr.sub, "lo": tr.lo,
                         "hi": tr.hi, "coeff": tr.coeff}
                        for tr in sorted(c.tail_terms,
                                         key=lambda tr: tr.sort_key())]
    return out


def root_to_json(z: ZModel, r):
    neg = arc_to_json(z, r.neg) if isinstance(r.neg, Arc) else "-inf"
    return {"pos": arc_to_json(z, r.pos), "neg": neg}


# ---------------------------------------------------------------------------
# Argument helpers.


def _parse_point_token(z: ZModel, tok: str) -> ClosurePoint:
    if tok.startswith("L"):
        if z.is_finite:
            raise ParseError("--arc", "finite model has no limit points")
        return Limit(_int(tok[1:], "--arc") % z.k)
    if ":" in tok:
        b, i = tok.split(":", 1)
        return z.v(Vertex(_int(b, "--arc"), _int(i, "--arc")))
    return z.v(_int(tok, "--arc"))


def _read_tri(path: str) -> Triangulation:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, deep nesting
            raise ParseError("/", f"invalid JSON: {exc}") from exc
    return triangulation_from_json(obj)


def _load_tri(path: str) -> Triangulation:
    """A triangulation for a computing command: parsed, then held to
    the full ``validate``, whose cost grows with the core and the number
    of tails, not with the model's size or the indices' magnitude."""
    t = _read_tri(path)
    rep = validate(t)
    if not rep.ok:
        raise InvalidTriangulation(rep)
    return t


def _arc_from_tokens(z: ZModel, toks) -> Arc:
    return Arc(_parse_point_token(z, toks[0]),
               _parse_point_token(z, toks[1]))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands.


def cmd_validate(args) -> int:
    t = _read_tri(args.triangulation)
    rep = validate(t)
    _emit_json(args, {"ok": rep.ok, "reason": rep.reason,
                      "witness": repr(rep.witness) if rep.witness else None})
    return 0 if rep.ok else 1


def cmd_index(args) -> int:
    from .homindex import index
    t = _load_tri(args.triangulation)
    a = _arc_from_tokens(t.z, args.arc)
    _emit_json(args, covector_to_json(index(t, a))["explicit"])
    return 0


def cmd_cvector(args) -> int:
    from .cvector import CVectorQuery, cvector_full
    t = _load_tri(args.triangulation)
    u_tri = _load_tri(args.second_triangulation)
    u = _arc_from_tokens(t.z, args.arc)
    sign, v_arc, cov = cvector_full(CVectorQuery(t, u_tri, u))
    _emit_json(args, {"sign": sign,
                      "arc": arc_to_json(t.z, v_arc),
                      "covector": covector_to_json(cov)})
    return 0


def cmd_dimvec(args) -> int:
    from .cvector import dimension_vector
    t = _load_tri(args.triangulation)
    a = _arc_from_tokens(t.z, args.arc)
    _emit_json(args, covector_to_json(dimension_vector(t, a)))
    return 0


def cmd_image(args) -> int:
    from .cvector import image_arc
    t = _load_tri(args.triangulation)
    u = _arc_from_tokens(t.z, args.arc)
    ustar = _arc_from_tokens(t.z, args.second_arc)
    v = image_arc(t, u, ustar)
    _emit_json(args, {"image": arc_to_json(t.z, v) if v else None})
    return 0


def cmd_realize(args) -> int:
    from .cvector import realize_dimension_vector
    t = _load_tri(args.triangulation)
    v = _arc_from_tokens(t.z, args.arc)
    u_tri, u = realize_dimension_vector(t, v)
    _emit_json(args, {"u": arc_to_json(t.z, u),
                      "U": triangulation_to_json(u_tri)})
    return 0


def _decompose_table(t, e, f, window):
    from .decomposition import decompose_row
    z = t.z
    verts = z.vertices(window)
    rows = []
    seen = set()
    for i, p in enumerate(verts):
        for q in verts[i + 1:]:
            a = Arc(p, q)
            if not z.is_diagonal(a) or a in seen:
                continue
            seen.add(a)
            root = decompose_row(t, e, f, a)
            if root is not None:
                rows.append({"arc": arc_to_json(z, a),
                             "root": root_to_json(z, root)})
    rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return rows


def cmd_decompose(args) -> int:
    from .decomposition import (crossing_order, maximal_pairs,
                                root_system_label)
    t = _load_tri(args.triangulation)
    z = t.z
    report = []
    for pair in sorted(maximal_pairs(t),
                       key=lambda p: sorted(map(z.key, p))):
        e, f = sorted(pair, key=z.key)
        y = crossing_order(t, e, f)
        report.append({
            "pair": [point_to_json(z, e), point_to_json(z, f)],
            "descriptor": str(y.descriptor()),
            "label": root_system_label(y),
            "table": _decompose_table(t, e, f, args.window),
        })
    _emit_json(args, {"maximal_pairs": report})
    return 0


def cmd_roots(args) -> int:
    from .decomposition import (YExt, crossing_order, delta_plus,
                                root_system_label)
    t = _load_tri(args.triangulation)
    z = t.z
    e = _parse_point_token(z, args.arc[0])
    f = _parse_point_token(z, args.arc[1])
    y = crossing_order(t, e, f)
    ye = YExt(y)
    window = args.window[1] - args.window[0] + 1
    roots = delta_plus(ye, window=None if ye.is_finite else window)
    _emit_json(args, {"descriptor": str(y.descriptor()),
                      "label": root_system_label(y),
                      "neg_inf_adjoined": ye.has_neg_inf,
                      "roots": [root_to_json(z, r) for r in roots]})
    return 0


def cmd_duality(args) -> int:
    from .homindex import check_duality
    t = _load_tri(args.triangulation)
    u = _load_tri(args.second_triangulation)
    if t.z.is_finite:
        window_t = sorted(t.core, key=t.z.arc_key)
        window_u = sorted(u.core, key=u.z.arc_key)
    else:
        window_t = t.arcs_within(*args.window)
        window_u = u.arcs_within(*args.window)
    rep = check_duality(t, u, window_t, window_u)
    _emit_json(args, {"ok": rep.ok,
                      "failures": [repr(fx) for fx in rep.failures]})
    return 0 if rep.ok else 1


def cmd_oracle(args) -> int:
    import random

    from .cvector import CVectorQuery, cvector_eval
    from .fzoracle import identity, run_flip_path
    from .homindex import index
    for flag, count in (("--paths", args.paths), ("--max-len", args.max_len)):
        if count < 0:
            raise ParseError(flag, f"expected a count >= 0, got {count}")
    t = _load_tri(args.triangulation)
    z = t.z
    if not z.is_finite:
        raise ModelError("the oracle runs on finite polygons only")
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.paths):
        seed, cur = run_flip_path(t, rng=rng, max_len=args.max_len)
        for j, uarc in enumerate(seed.labels):
            q = CVectorQuery(t, cur, uarc)
            crow = tuple(cvector_eval(q, d) for d in seed.basis)
            g = index(t, uarc)
            grow = tuple(g.eval(d) for d in seed.basis)
            if seed.c[j] != crow or seed.g[j] != grow:
                mismatches += 1
        if seed.pairing_matrix() != identity(seed.m):
            mismatches += 1
    _emit_json(args, {"paths": args.paths, "mismatches": mismatches})
    return 0 if mismatches == 0 else 1


def cmd_render(args) -> int:
    from .render import RenderSpec, render_svg
    t = _load_tri(args.triangulation)
    z = t.z
    zz = ()
    if args.zigzag:
        from .homindex import zigzag
        e = _parse_point_token(z, args.zigzag[0])
        f = _parse_point_token(z, args.zigzag[1])
        zz = zigzag(t, e, f).vertices
    arcs = ()
    if args.arc:
        arcs = (_arc_from_tokens(z, args.arc),)
    spec = RenderSpec(z, triangulation=t, zigzag=zz, query_arcs=arcs,
                      window=tuple(args.window))
    _emit(args, render_svg(spec))
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch.


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infgon",
        description="Exact combinatorics of triangulations, indices, "
                    "c-vectors, and root systems on finite and "
                    "infinity-gons.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, second_tri=False, arc=False, second_arc=False,
               zz=False, window=False):
        p.add_argument("--triangulation", required=True,
                       help="triangulation JSON file")
        if second_tri:
            p.add_argument("--second-triangulation", required=True)
        if arc:
            p.add_argument("--arc", nargs=2, metavar=("P", "Q"),
                           required=True,
                           help="endpoints: int, b:i, or Lg")
        if second_arc:
            p.add_argument("--second-arc", nargs=2, metavar=("P", "Q"),
                           required=True)
        if zz:
            p.add_argument("--zigzag", nargs=2, metavar=("E", "F"))
            p.add_argument("--arc", nargs=2, metavar=("P", "Q"))
        if window:
            p.add_argument("--window", nargs=2, type=int, default=[-6, 6],
                           metavar=("LO", "HI"))
        p.add_argument("--out", help="output file (default stdout)")

    cmds = {
        "validate": (cmd_validate, {}),
        "index": (cmd_index, {"arc": True}),
        "cvector": (cmd_cvector, {"second_tri": True, "arc": True}),
        "dimvec": (cmd_dimvec, {"arc": True}),
        "image": (cmd_image, {"arc": True, "second_arc": True}),
        "realize": (cmd_realize, {"arc": True}),
        "decompose": (cmd_decompose, {"window": True}),
        "roots": (cmd_roots, {"arc": True, "window": True}),
        "duality": (cmd_duality, {"second_tri": True, "window": True}),
        "oracle": (cmd_oracle, {}),
        "render": (cmd_render, {"zz": True, "window": True}),
    }
    for name, (fn, kwargs) in cmds.items():
        p = sub.add_parser(name)
        common(p, **kwargs)
        p.set_defaults(fn=fn)
        if name == "oracle":
            p.add_argument("--paths", type=int, default=100)
            p.add_argument("--max-len", type=int, default=10)
            p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lo, hi = getattr(args, "window", (0, 0))
        if lo > hi:
            raise ParseError("--window", f"LO {lo} exceeds HI {hi}")
        return args.fn(args)
    except StepCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidTriangulation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ModelError, RealizationUnsupported,
            UnattainedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
