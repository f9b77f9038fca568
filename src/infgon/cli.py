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
    """A JSON integer; a bool, float or string is not one."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(pointer, f"expected an integer, got {value!r}")


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
    """The point at ``pointer``; one outside the model is refused there."""
    if isinstance(obj, bool):
        raise ParseError(pointer, "not a point")
    try:
        if isinstance(obj, int):
            return z.v(obj)
        if isinstance(obj, list) and len(obj) == 2:
            return z.v(Vertex(_int(obj[0], pointer + "/0"),
                              _int(obj[1], pointer + "/1")))
    except ModelError as exc:
        raise ParseError(pointer, str(exc)) from None
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
    p = point_from_json(z, obj[0], pointer + "/0")
    q = point_from_json(z, obj[1], pointer + "/1")
    try:
        return Arc(p, q)
    except ModelError as exc:  # equal endpoints
        raise ParseError(pointer, str(exc)) from None


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


def _point_from_token(z: ZModel, tok: str, flag: str) -> ClosurePoint:
    """A point token ``i``, ``b:i`` or ``Lg`` of the option ``flag``,
    read as the JSON point ``i``, ``[b, i]`` or ``{"limit": g}``."""
    def num(s: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise ParseError(flag, f"expected an integer, got {s!r}"
                             ) from None
    if tok.startswith("L"):
        # on an n-gon point_from_json refuses a limit before its gap
        obj = {"limit": 0 if z.is_finite else num(tok[1:])}
    elif ":" in tok:
        b, i = tok.split(":", 1)
        obj = [num(b), num(i)]
    else:
        obj = num(tok)
    return point_from_json(z, obj, flag)


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


# ---------------------------------------------------------------------------
# Commands.  Each takes the loaded triangulation (two for cvector and
# duality) and the parsed arguments, whose point tokens `main` has read
# as pairs of points, and returns a JSON answer, an answer and its exit
# code, or SVG text; `main` does the rest.


def cmd_validate(t, args):
    rep = validate(t)
    return ({"ok": rep.ok, "reason": rep.reason,
             "witness": repr(rep.witness) if rep.witness else None},
            0 if rep.ok else 1)


def cmd_index(t, args):
    from .homindex import index
    return covector_to_json(index(t, Arc(*args.arc)))["explicit"]


def cmd_cvector(t, u_tri, args):
    from .cvector import CVectorQuery, cvector_full
    sign, v_arc, cov = cvector_full(CVectorQuery(t, u_tri, Arc(*args.arc)))
    return {"sign": sign, "arc": arc_to_json(t.z, v_arc),
            "covector": covector_to_json(cov)}


def cmd_dimvec(t, args):
    from .cvector import dimension_vector
    return covector_to_json(dimension_vector(t, Arc(*args.arc)))


def cmd_image(t, args):
    from .cvector import image_arc
    v = image_arc(t, Arc(*args.arc), Arc(*args.second_arc))
    return {"image": arc_to_json(t.z, v) if v else None}


def cmd_realize(t, args):
    from .cvector import realize_dimension_vector
    u_tri, u = realize_dimension_vector(t, Arc(*args.arc))
    return {"u": arc_to_json(t.z, u), "U": triangulation_to_json(u_tri)}


def _decompose_table(t, e, f, window):
    from .decomposition import decompose_row
    z = t.z
    verts = z.vertices(window)
    rows = []
    for i, p in enumerate(verts):
        for q in verts[i + 1:]:
            a = Arc(p, q)
            if not z.is_diagonal(a):
                continue
            root = decompose_row(t, e, f, a)
            if root is not None:
                rows.append({"arc": arc_to_json(z, a),
                             "root": root_to_json(z, root)})
    rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return rows


def cmd_decompose(t, args):
    from .decomposition import (crossing_order, maximal_pairs,
                                root_system_label)
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
    return {"maximal_pairs": report}


def cmd_roots(t, args):
    from .decomposition import (YExt, crossing_order, delta_plus,
                                root_system_label)
    z = t.z
    y = crossing_order(t, *args.arc)
    ye = YExt(y)
    window = args.window[1] - args.window[0] + 1
    roots = delta_plus(ye, window=None if ye.is_finite else window)
    return {"descriptor": str(y.descriptor()),
            "label": root_system_label(y),
            "neg_inf_adjoined": ye.has_neg_inf,
            "roots": [root_to_json(z, r) for r in roots]}


def cmd_duality(t, u, args):
    from .homindex import check_duality
    rep = check_duality(t, u, t.arcs_within(args.window),
                        u.arcs_within(args.window))
    return ({"ok": rep.ok, "failures": [repr(fx) for fx in rep.failures]},
            0 if rep.ok else 1)


def cmd_oracle(t, args):
    import random

    from .cvector import CVectorQuery, cvector_eval
    from .fzoracle import identity, run_flip_path
    from .homindex import index
    if not t.z.is_finite:
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
    return ({"paths": args.paths, "mismatches": mismatches},
            0 if mismatches == 0 else 1)


def cmd_render(t, args):
    from .render import render_svg
    zz = ()
    if args.zigzag:
        from .homindex import zigzag
        zz = zigzag(t, *args.zigzag).vertices
    arcs = (Arc(*args.arc),) if args.arc else ()
    return render_svg(t.z, triangulation=t, zigzag=zz, query_arcs=arcs,
                      window=tuple(args.window))


# ---------------------------------------------------------------------------
# Parser and dispatch.

# Every option a command can take: its flag and argparse keywords.
OPTIONS = {
    "triangulation": ("--triangulation",
                      {"required": True, "help": "triangulation JSON file"}),
    "second_triangulation": ("--second-triangulation", {"required": True}),
    "arc": ("--arc", {"nargs": 2, "metavar": ("P", "Q"), "required": True,
                      "help": "endpoints: int, b:i, or Lg"}),
    "second_arc": ("--second-arc",
                   {"nargs": 2, "metavar": ("P", "Q"), "required": True}),
    "zigzag": ("--zigzag", {"nargs": 2, "metavar": ("E", "F")}),
    "query_arc": ("--arc", {"nargs": 2, "metavar": ("P", "Q")}),
    "window": ("--window", {"nargs": 2, "type": int, "default": [-6, 6],
                            "metavar": ("LO", "HI")}),
    "out": ("--out", {"help": "output file (default stdout)"}),
    "paths": ("--paths", {"type": int, "default": 100}),
    "max_len": ("--max-len", {"type": int, "default": 10}),
    "seed": ("--seed", {"type": int, "default": 0}),
}
# Options that must not be negative.
COUNTS = ("paths", "max_len")
# Options whose two tokens are points of the first triangulation's
# model, in the order they are read: render's path before its arc.
POINTS = ("zigzag", "arc", "second_arc")

# Each command's handler and its options after --triangulation, in the
# order `--help` lists them.
COMMANDS = {
    "validate": (cmd_validate, ("out",)),
    "index": (cmd_index, ("arc", "out")),
    "cvector": (cmd_cvector, ("second_triangulation", "arc", "out")),
    "dimvec": (cmd_dimvec, ("arc", "out")),
    "image": (cmd_image, ("arc", "second_arc", "out")),
    "realize": (cmd_realize, ("arc", "out")),
    "decompose": (cmd_decompose, ("window", "out")),
    "roots": (cmd_roots, ("arc", "window", "out")),
    "duality": (cmd_duality, ("second_triangulation", "window", "out")),
    "oracle": (cmd_oracle, ("out", "paths", "max_len", "seed")),
    "render": (cmd_render, ("zigzag", "query_arc", "window", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infgon",
        description="Exact combinatorics of triangulations, indices, "
                    "c-vectors, and root systems on finite and "
                    "infinity-gons.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for option in ("triangulation",) + options:
            flag, kwargs = OPTIONS[option]
            p.add_argument(flag, **kwargs)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Parse, check the window and counts, load the triangulations
    (validated for every command but ``validate``), read the point
    tokens, run the command and write its answer; the exit code says
    how it ended."""
    args = build_parser().parse_args(argv)
    fn, options = COMMANDS[args.command]
    try:
        lo, hi = getattr(args, "window", (0, 0))
        if lo > hi:
            raise ParseError("--window", f"LO {lo} exceeds HI {hi}")
        for option in COUNTS:
            count = getattr(args, option, 0)
            if count < 0:
                raise ParseError(OPTIONS[option][0],
                                 f"expected a count >= 0, got {count}")
        load = _read_tri if args.command == "validate" else _load_tri
        tris = [load(args.triangulation)]
        if "second_triangulation" in options:
            tris.append(load(args.second_triangulation))
        for option in POINTS:
            if toks := getattr(args, option, None):
                flag = OPTIONS[option][0]
                pts = tuple(_point_from_token(tris[0].z, tok, flag)
                            for tok in toks)
                if pts[0] == pts[1]:
                    raise ParseError(flag, "arc endpoints must be distinct")
                setattr(args, option, pts)
        answer, code = fn(*tris, args), 0
        if isinstance(answer, tuple):
            answer, code = answer
        if not isinstance(answer, str):
            answer = json.dumps(answer, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(answer)
        else:
            sys.stdout.write(answer)
        return code
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
