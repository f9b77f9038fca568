"""The cli_cold workload: one fresh `python -m infgon.cli` process per
query, run one after another.

It is the only workload that pays interpreter start-up, imports,
argparse, JSON and the `render` and `oracle` paths.  A pass covers
every subcommand on the octagon fan, the three tail fixtures at m = 0
and the four golden figures; the seed picks the arcs and the oracle's
path seed once per run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import facts
from workload import Query

OCTAGON = 8
# The fan of the octagon from vertex 0 and the fan from vertex 1.
FAN = [[0, j] for j in range(2, OCTAGON - 1)]
FAN1 = [[1, j] for j in range(3, OCTAGON)]


def _fountain(base, right_from, left_to, core=()):
    return {"z": {"blocks": 1}, "core": list(core),
            "tails": [{"limit": 0, "type": "fountain", "base": [0, base],
                       "right_from": right_from, "left_to": left_to}]}


def _leapfrog(right_from, left_to, core=()):
    return {"z": {"blocks": 1}, "core": list(core),
            "tails": [{"limit": 0, "type": "leapfrog",
                       "right_from": right_from, "left_to": left_to}]}


FILES = {
    "fan": {"z": {"finite": OCTAGON}, "core": FAN},
    "fan1": {"z": {"finite": OCTAGON}, "core": FAN1},
    "pentagon": {"z": {"finite": 5}, "core": [[0, 2], [0, 3]]},
    "football": {"z": {"finite": 6}, "core": [[0, 2], [2, 4], [4, 0]]},
    "fountain": _fountain(0, 2, -2),
    "fountain2": _fountain(1, 3, -1),
    "leapfrog": _leapfrog(2, -2, core=[[[0, -2], [0, 0]], [[0, 0], [0, 2]]]),
    "leapfrog_golden": _leapfrog(1, -1),
    "blocks2": {"z": {"blocks": 2}, "core": [[[0, 0], [1, 0]]],
                "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                           "right_from": 2, "left_to": -1},
                          {"limit": 1, "type": "fountain", "base": [1, 0],
                           "right_from": 2, "left_to": -1}]},
}

# Golden figures: (file, extra arguments) of each `render` call.
RENDERS = {
    "pentagon_zigzag": ("pentagon", ["--zigzag", "1", "4", "--arc", "1", "4"]),
    "football": ("football", []),
    "fountain": ("fountain", ["--window", "-6", "6"]),
    "leapfrog": ("leapfrog_golden", ["--window", "-6", "6"]),
}

# Tail fixtures at m = 0: the partner for `duality`, the arc for
# `roots` and the number of blocks.  `roots` lists roots from both
# ends of the crossing set, so it needs one with a greatest element:
# the maximal pairs of the fountain and (-1, 1) of the leapfrog have
# one; the other maximal pairs of the leapfrog and the one of blocks2
# (order types omega and omega + Z) have none and exit 2, so blocks2
# uses an arc with a finite crossing set.
TAILS = {
    "fountain": ("fountain2", ("-1", "1"), 1),
    "leapfrog": ("leapfrog_golden", ("-1", "1"), 1),
    "blocks2": ("blocks2", ("0:1", "0:3"), 2),
}


class CliCold:
    def __init__(self, seed: int, tiny: bool, root: Path, in_process=False):
        self.in_process = in_process
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        self.dir = Path(tempfile.mkdtemp(prefix=".bench_cli_", dir=root))
        for name, obj in FILES.items():
            (self.dir / f"{name}.json").write_text(json.dumps(obj))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.runs = self._argv_list(random.Random(seed), tiny)
        if in_process:
            from infgon import cli  # imported here, not in the first query
            self.cli = cli

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _path(self, name: str) -> str:
        return str(self.dir / f"{name}.json")

    def _argv_list(self, rng: random.Random, tiny: bool
                   ) -> list[tuple[list[str], object]]:
        """(arguments, check of the output) of every process of a pass."""
        diagonals = facts.polygon_diagonals(OCTAGON)
        outside = [d for d in diagonals if list(d) not in FAN]
        crossing = [(a, b) for a in diagonals for b in diagonals
                    if facts.polygon_crosses(a, b)]
        fan, fan1 = self._path("fan"), self._path("fan1")
        arc = lambda d: ["--arc", str(d[0]), str(d[1])]
        u, ustar = rng.choice(crossing)
        e, f = rng.sample(range(OCTAGON), 2)
        runs = [
            (["validate", "--triangulation", fan], _ok),
            (["index", "--triangulation", fan] + arc(rng.choice(diagonals)),
             _json),
            (["dimvec", "--triangulation", fan] + arc(rng.choice(outside)),
             _json),
            (["cvector", "--triangulation", fan, "--second-triangulation",
              fan1] + arc(rng.choice(FAN1)), _json),
            (["image", "--triangulation", fan] + arc(u)
             + ["--second-arc", str(ustar[0]), str(ustar[1])], _json),
            (["realize", "--triangulation", fan] + arc(rng.choice(outside)),
             _json),
            (["decompose", "--triangulation", fan], _json),
            (["roots", "--triangulation", fan] + arc(rng.choice(outside)),
             _json),
            (["duality", "--triangulation", fan, "--second-triangulation",
              fan1], _ok),
            (["oracle", "--triangulation", fan, "--paths", "30", "--seed",
              str(rng.randrange(10 ** 6))], _oracle),
            (["render", "--triangulation", fan], _fan_svg),
            (["render", "--triangulation", fan, "--zigzag", str(e), str(f),
              "--arc", str(e), str(f)], _fan_svg),
        ]
        for figure, (name, extra) in RENDERS.items():
            runs.append((["render", "--triangulation", self._path(name)]
                         + extra, partial(_golden, figure)))
        for name, (partner, roots, k) in TAILS.items():
            t = self._path(name)
            verts = [(b, i) for b in range(k) for i in range(-6, 7)]
            p, q = rng.sample(verts, 2)
            tok = (lambda v: str(v[1])) if k == 1 else (lambda v: f"{v[0]}:{v[1]}")
            d = rng.choice(facts.block_window_diagonals(k, -6, 6))
            runs += [
                (["validate", "--triangulation", t], _ok),
                (["index", "--triangulation", t, "--arc", tok(p), tok(q)],
                 _json),
                (["dimvec", "--triangulation", t, "--arc", tok(d[0]),
                  tok(d[1])], _json),
                (["decompose", "--triangulation", t, "--window", "-4", "4"],
                 _json),
                (["roots", "--triangulation", t, "--arc", *roots], _json),
                (["duality", "--triangulation", t, "--second-triangulation",
                  self._path(partner), "--window", "-4", "4"], _ok),
            ]
        return runs[:1] if tiny else runs

    def pass_queries(self) -> list[Query]:
        run = self._in_process if self.in_process else self._spawn
        return [Query(partial(run, argv), partial(_check, expect))
                for argv, expect in self.runs]

    def end_pass(self) -> int:
        return 0

    def _spawn(self, argv: list[str]) -> tuple[int, bytes]:
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "infgon.cli", *argv],
                stdout=out, stderr=err, cwd=self.dir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_bytes()

    def _in_process(self, argv: list[str]) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue().encode()

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024


def _check(expect, answer: tuple[int, bytes]) -> bool:
    code, out = answer
    return code == 0 and expect(out)


def _json(out: bytes) -> bool:
    json.loads(out)
    return True


def _ok(out: bytes) -> bool:
    return json.loads(out)["ok"] is True


def _oracle(out: bytes) -> bool:
    doc = json.loads(out)
    return doc["mismatches"] == 0 and doc["paths"] == 30


def _golden(figure: str, out: bytes) -> bool:
    return hashlib.sha256(out).hexdigest() == facts.GOLDEN_SVG_SHA256[figure]


def _fan_svg(out: bytes) -> bool:
    """The fan has five diagonals and the octagon eight vertices."""
    svg = out.decode()
    return (svg.count('<line class="triangulation"') == len(FAN)
            and svg.count('<circle class="vertex"') == OCTAGON)
