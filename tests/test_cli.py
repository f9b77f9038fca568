"""Command-line interface: JSON schemas, round trips, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from infgon.cli import (COMMANDS, covector_to_json, main,
                        triangulation_from_json, triangulation_to_json)
from infgon.homindex import CoVector, TailRange
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations)
from infgon.zmodel import Vertex, ZModel

PENTAGON = {"z": {"finite": 5}, "core": [[0, 2], [0, 3]]}
PENTAGON2 = {"z": {"finite": 5}, "core": [[1, 3], [1, 4]]}
FOUNTAIN = {"z": {"blocks": 1}, "core": [],
            "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                       "right_from": 2, "left_to": -2}]}
FOUNTAIN2 = {"z": {"blocks": 1}, "core": [],
             "tails": [{"limit": 0, "type": "fountain", "base": [0, 1],
                        "right_from": 3, "left_to": -1}]}
LEAPFROG = {"z": {"blocks": 1}, "core": [],
            "tails": [{"limit": 0, "type": "leapfrog",
                       "right_from": 1, "left_to": -1}]}
BAD = {"z": {"finite": 6}, "core": [[0, 2], [1, 3]]}  # crossing diagonals
# member {(0,0),(0,0)} at index 0 is not an arc
DEGENERATE = {"z": {"blocks": 1}, "core": [],
              "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                         "right_from": 0, "left_to": 0}]}
LEAPFROG_CORE = {"z": {"blocks": 1}, "core": [[[0, -2], [0, 0]],
                                              [[0, 0], [0, 2]]],
                 "tails": [{"limit": 0, "type": "leapfrog",
                            "right_from": 2, "left_to": -2}]}
# the core arc {1, 3} crosses the fountain member {0, 2}
TAIL_CROSSING = {"z": {"blocks": 1}, "core": [[[0, -1], [0, 1]],
                                              [[0, 1], [0, 3]]],
                 "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                            "right_from": 2, "left_to": -2}]}
# the core diagonals {0, 2} and {0, 3} are also fountain members
TWICE = {"z": {"blocks": 1}, "core": [[[0, 0], [0, 2]], [[0, 0], [0, 3]]],
         "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                    "right_from": 2, "left_to": -2}]}
# 25 arcs inside [-6, 6], all far from the tails' finite ends
FAR = {"z": {"blocks": 2}, "core": [],
       "tails": [{"limit": 0, "type": "leapfrog", "right_from": -100,
                  "left_to": 100},
                 {"limit": 1, "type": "fountain", "base": [0, -100],
                  "right_from": 101, "left_to": -102}]}
OCTAGON_FAN = {"z": {"finite": 8}, "core": [[0, j] for j in range(2, 7)]}
BLOCKS2 = {"z": {"blocks": 2}, "core": [[[0, 0], [1, 0]]],
           "tails": [{"limit": 0, "type": "fountain", "base": [0, 0],
                      "right_from": 2, "left_to": -1},
                     {"limit": 1, "type": "fountain", "base": [1, 0],
                      "right_from": 2, "left_to": -1}]}


@pytest.fixture
def tri_file(tmp_path):
    def write(obj, name="t.json"):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith(("{", "["))
                  else out)


# -- round trips ------------------------------------------------------------


def test_triangulation_json_round_trip():
    for obj in (PENTAGON, FOUNTAIN, LEAPFROG):
        t = triangulation_from_json(obj)
        assert triangulation_from_json(triangulation_to_json(t)) == t


def test_round_trip_matches_direct_construction():
    z = ZModel.blocks(1)
    direct = Triangulation.make(z, set(),
                                {0: Fountain(Vertex(0, 0), 2, -2)})
    assert triangulation_from_json(FOUNTAIN) == direct
    z1 = ZModel.blocks(1)
    assert (triangulation_from_json(LEAPFROG)
            == Triangulation.make(z1, set(), {0: Leapfrog(1, -1)}))


# -- commands ---------------------------------------------------------------


def test_validate_ok_and_fail(tri_file, capsys):
    code, out = run(capsys, "validate", "--triangulation",
                    tri_file(PENTAGON))
    assert code == 0 and out["ok"] is True
    code, out = run(capsys, "validate", "--triangulation",
                    tri_file(BAD, "bad.json"))
    assert code == 1 and out["ok"] is False and out["reason"]


def test_index_command(tri_file, capsys):
    code, out = run(capsys, "index", "--triangulation",
                    tri_file(PENTAGON), "--arc", "1", "4")
    assert code == 0
    assert out == [[[0, 2], -1], [[0, 3], 1]] or out == [[[0, 2], -1]] \
        or [[0, 2], -1] in out


def test_index_frozen_values(tri_file, capsys):
    code, out = run(capsys, "index", "--triangulation",
                    tri_file(PENTAGON), "--arc", "1", "3")
    assert code == 0 and out == [[[0, 2], -1], [[0, 3], 1]]
    code, out = run(capsys, "index", "--triangulation",
                    tri_file(FOUNTAIN), "--arc", "1", "-1")
    assert code == 0 and out == [[[[0, 0], [0, 2]], -1]]


def test_dimvec_command(tri_file, capsys):
    code, out = run(capsys, "dimvec", "--triangulation",
                    tri_file(PENTAGON), "--arc", "1", "4")
    assert code == 0
    assert out == {"explicit": [[[0, 2], 1], [[0, 3], 1]]}


def test_dimvec_tail_terms(tri_file, capsys):
    code, out = run(capsys, "dimvec", "--triangulation",
                    tri_file(FOUNTAIN), "--arc", "1", "-1")
    assert code == 0 and len(out["tails"]) == 2
    for term in out["tails"]:
        assert term["coeff"] == 1 and term["gap"] == 0


def test_tail_terms_are_written_in_the_one_order():
    """Tail terms are written as CoVector orders them: an unbounded lo
    first and an unbounded hi last, at any index, however they were
    given."""
    t = triangulation_from_json(FOUNTAIN)
    far = -2 * 10 ** 9
    terms = (TailRange(0, "right", 5, None, 1),
             TailRange(0, "right", far, far + 3, 1),
             TailRange(0, "left", None, -2, 1),
             TailRange(0, "right", 5, 9, 1),
             TailRange(0, "right", None, far - 5, 1))
    got = [(tr["sub"], tr["lo"], tr["hi"])
           for tr in covector_to_json(CoVector(t, {}, terms))["tails"]]
    assert got == [("left", None, -2), ("right", None, far - 5),
                   ("right", far, far + 3), ("right", 5, 9),
                   ("right", 5, None)]
    assert CoVector(t, {}, terms) == CoVector(t, {}, terms[::-1])


def test_cvector_command(tri_file, capsys):
    code, out = run(capsys, "cvector",
                    "--triangulation", tri_file(PENTAGON),
                    "--second-triangulation",
                    tri_file(PENTAGON2, "u.json"),
                    "--arc", "1", "3")
    assert code == 0
    assert out["sign"] == 1 and out["arc"] == [2, 4]
    assert out["covector"] == {"explicit": [[[0, 3], 1]]}


def test_cvector_far_offset(tri_file, capsys):
    # U: a fountain at vertex 20 with the core diagonal u = {21, 23}
    far = {"z": {"blocks": 1}, "core": [[[0, 21], [0, 23]]],
           "tails": [{"limit": 0, "type": "fountain", "base": [0, 20],
                      "right_from": 23, "left_to": 18}]}
    code, out = run(capsys, "cvector", "--triangulation", tri_file(FOUNTAIN),
                    "--second-triangulation", tri_file(far, "u.json"),
                    "--arc", "21", "23")
    assert code == 0
    assert out == {"sign": -1, "arc": [[0, 21], [0, 23]],
                   "covector": {"explicit": [[[[0, 0], [0, 22]], -1]]}}


def test_cvector_of_leapfrog_tail_member(tri_file, capsys):
    # {3, -3} is a member of U's leapfrog, not a core diagonal
    code, out = run(capsys, "cvector", "--triangulation", tri_file(FOUNTAIN),
                    "--second-triangulation",
                    tri_file(LEAPFROG_CORE, "u.json"), "--arc", "3", "-3")
    assert code == 0
    assert out["sign"] == 1 and out["arc"] == [[0, -2], [0, 4]]
    assert out["covector"] == {"explicit": [], "tails": [
        {"gap": 0, "sub": "left", "lo": None, "hi": -3, "coeff": 1},
        {"gap": 0, "sub": "right", "lo": 5, "hi": None, "coeff": 1}]}


def test_image_command(tri_file, capsys):
    code, out = run(capsys, "image", "--triangulation",
                    tri_file(PENTAGON), "--arc", "1", "3",
                    "--second-arc", "2", "4")
    assert code == 0 and out["image"] == [2, 4]


def test_realize_command(tri_file, capsys):
    code, out = run(capsys, "realize", "--triangulation",
                    tri_file(PENTAGON), "--arc", "1", "4")
    assert code == 0 and out["u"] is not None
    u_tri = triangulation_from_json(out["U"])
    assert len(u_tri.core) == 2


def test_decompose_pentagon(tri_file, capsys):
    code, out = run(capsys, "decompose", "--triangulation",
                    tri_file(PENTAGON))
    assert code == 0
    pairs = out["maximal_pairs"]
    assert len(pairs) == 1
    assert pairs[0]["descriptor"] == "Finite(2)"
    assert pairs[0]["label"] == "sl_3 positive roots"
    assert len(pairs[0]["table"]) == 3


def test_decompose_leapfrog(tri_file, capsys):
    code, out = run(capsys, "decompose", "--triangulation",
                    tri_file(LEAPFROG), "--window", "-3", "3")
    assert code == 0
    pairs = out["maximal_pairs"]
    assert len(pairs) == 1
    assert pairs[0]["descriptor"] == "omega"
    assert pairs[0]["pair"] == [[0, 0], {"limit": 0}]
    assert pairs[0]["table"]


def test_roots_fountain(tri_file, capsys):
    code, out = run(capsys, "roots", "--triangulation",
                    tri_file(FOUNTAIN), "--arc", "1", "-1",
                    "--window", "-2", "2")
    assert code == 0
    assert out["descriptor"] == "omega + omega*"
    assert out["neg_inf_adjoined"] is True
    assert out["roots"]


@pytest.mark.parametrize("obj, e, f", [
    (LEAPFROG_CORE, "1", "L0"), (LEAPFROG_CORE, "-1", "L0")])
def test_roots_with_one_end(tri_file, capsys, obj, e, f):
    """A crossing set of order type omega lists the roots among -inf
    and its first elements."""
    code, out = run(capsys, "roots", "--triangulation", tri_file(obj),
                    "--arc", e, f, "--window", "-3", "3")
    assert code == 0
    assert out["descriptor"] == "omega"
    assert out["neg_inf_adjoined"] is True
    # -inf and the 6 least elements: 7 choose 2 roots
    assert len(out["roots"]) == 21
    assert sum(r["neg"] == "-inf" for r in out["roots"]) == 6


def test_roots_on_blocks2_pair(tri_file, capsys):
    """The maximal pair of the two-fountain Blocks(2) fixture, read as
    having no greatest element, still gets its roots listed."""
    code, out = run(capsys, "roots", "--triangulation", tri_file(BLOCKS2),
                    "--arc", "0:1", "1:1", "--window", "-3", "3")
    assert code == 0 and out["neg_inf_adjoined"] is True and out["roots"]


def test_roots_count_an_arc_held_twice_once(tri_file, capsys):
    code, out = run(capsys, "roots", "--triangulation", tri_file(TWICE),
                    "--arc", "1", "5")
    assert code == 0
    assert (out["descriptor"], out["label"], len(out["roots"])) == (
        "Finite(3)", "sl_4 positive roots", 6)


def test_window_commands_see_every_arc_in_the_window(tri_file, capsys):
    code, out = run(capsys, "render", "--triangulation", tri_file(FAR))
    assert code == 0 and out.count('class="triangulation"') == 25
    code, out = run(capsys, "duality", "--triangulation", tri_file(FAR),
                    "--second-triangulation", tri_file(FAR, "u.json"),
                    "--window", "-6", "6")
    assert code == 0 and out["ok"] is True


def test_duality_command(tri_file, capsys):
    code, out = run(capsys, "duality",
                    "--triangulation", tri_file(PENTAGON),
                    "--second-triangulation",
                    tri_file(PENTAGON2, "u.json"))
    assert code == 0 and out["ok"] is True
    code, out = run(capsys, "duality",
                    "--triangulation", tri_file(FOUNTAIN),
                    "--second-triangulation",
                    tri_file(FOUNTAIN2, "f2.json"),
                    "--window", "-4", "4")
    assert code == 0 and out["ok"] is True


def test_oracle_command(tri_file, capsys):
    code, out = run(capsys, "oracle", "--triangulation",
                    tri_file(PENTAGON), "--paths", "5", "--seed", "3")
    assert code == 0 and out["mismatches"] == 0


@pytest.mark.parametrize("flag", ["--paths", "--max-len"])
@pytest.mark.parametrize("count", ["-1", "-5"])
def test_oracle_refuses_a_negative_count(tri_file, capsys, flag, count):
    """A negative --paths checks nothing and a negative --max-len has no
    path length: both exit 2 naming the flag, and a count of 0 runs."""
    argv = ["oracle", "--triangulation", tri_file(PENTAGON), "--paths", "2"]
    assert main(argv + [flag, count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag}: expected a count >= 0, "
                            f"got {count}\n")
    code, out = run(capsys, *argv, flag, "0")
    assert code == 0 and out["mismatches"] == 0


@pytest.mark.parametrize("first, second", [
    (OCTAGON_FAN, PENTAGON), (PENTAGON, OCTAGON_FAN), (FOUNTAIN, BLOCKS2),
    (BLOCKS2, FOUNTAIN)], ids=["octagon-pentagon", "pentagon-octagon",
                               "blocks1-blocks2", "blocks2-blocks1"])
def test_duality_refuses_different_models(tri_file, capsys, first, second):
    code = main(["duality", "--triangulation", tri_file(first),
                 "--second-triangulation", tri_file(second, "u.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: triangulations live over different models\n")


def test_render_command_matches_golden(tri_file, tmp_path, capsys):
    import pathlib
    out_file = tmp_path / "out.svg"
    code = main(["render", "--triangulation", tri_file(PENTAGON),
                 "--zigzag", "1", "4", "--arc", "1", "4",
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / \
        "pentagon_zigzag.svg"
    assert out_file.read_text() == golden.read_text()


def test_render_deterministic_across_runs(tri_file, capsys):
    code1, out1 = run(capsys, "render", "--triangulation",
                      tri_file(PENTAGON))
    code2, out2 = run(capsys, "render", "--triangulation",
                      tri_file(PENTAGON))
    assert code1 == code2 == 0 and out1 == out2


# -- exit codes -------------------------------------------------------------


def test_exit_2_on_parse_error(tri_file, capsys):
    p = tri_file({"core": []}, "noz.json")
    assert main(["validate", "--triangulation", p]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("obj, pointer", [
    ({"z": {"finite": "x"}, "core": []}, "/z/finite"),
    ({"z": {"blocks": 1}, "core": [],
      "tails": [{"limit": 0, "type": "fountain", "right_from": 2,
                 "left_to": -2}]}, "/tails/0/base"),
    ({"z": {"blocks": 1}, "core": [],
      "tails": [{"limit": 0, "type": "leapfrog", "right_from": [],
                 "left_to": -1}]}, "/tails/0/right_from"),
    ({"z": {"blocks": 1}, "core": [[[0, "a"], [0, 2]]]}, "/core/0/0/1"),
    ({"z": {"finite": math.inf}}, "/z/finite"),  # JSON Infinity
    # JSON integer fields take integers only: no bool, float or string
    ({**FOUNTAIN, "z": {"blocks": True}}, "/z/blocks"),
    ({"z": {"finite": 5.9}, "core": [[0, 2], [0, 3]]}, "/z/finite"),
    ({**FOUNTAIN, "tails": [{**FOUNTAIN["tails"][0], "right_from": "2"}]},
     "/tails/0/right_from"),
    ({**FOUNTAIN, "tails": [{**FOUNTAIN["tails"][0], "limit": 0.7}]},
     "/tails/0/limit"),
    ({**FOUNTAIN, "tails": [{**FOUNTAIN["tails"][0], "base": [False, 0]}]},
     "/tails/0/base/0"),
    # a point outside the model, or an arc with equal endpoints
    ({"z": {"finite": 5}, "core": [[[1, 2], 3]]}, "/core/0/0"),
    ({"z": {"finite": 5}, "core": [[0, 5], [0, 3]]}, "/core/0"),
    ({"z": {"blocks": 1}, "core": [[[0, 2], [3, 4]]]}, "/core/0/1"),
    ({**FOUNTAIN, "tails": [{**FOUNTAIN["tails"][0], "base": [3, 0]}]},
     "/tails/0/base"),
])
def test_exit_2_with_pointer_on_malformed_field(tri_file, capsys, obj,
                                                pointer):
    p = tri_file(obj, "malformed.json")
    assert main(["validate", "--triangulation", p]) == 2
    assert f"error: {pointer}: " in capsys.readouterr().err


def test_exit_2_on_malformed_arc_token(tri_file, capsys):
    """A bad point token is reported with the flag it came from."""
    p = tri_file(PENTAGON)
    for argv, error in (
            (["index", "--arc", "x", "2"],
             "--arc: expected an integer, got 'x'"),
            (["render", "--zigzag", "x", "1"],
             "--zigzag: expected an integer, got 'x'"),
            (["render", "--zigzag", "1", "1"],
             "--zigzag: arc endpoints must be distinct"),
            (["render", "--zigzag", "1", "6"],
             "--zigzag: arc endpoints must be distinct"),
            (["image", "--arc", "1", "3", "--second-arc", "z", "4"],
             "--second-arc: expected an integer, got 'z'"),
            (["index", "--arc", "1:1", "3"],
             "--arc: V(1,1) is not a vertex of Finite(5)"),
            (["index", "--arc", "1", "6"],
             "--arc: arc endpoints must be distinct"),
            (["image", "--arc", "1", "3", "--second-arc", "2", "7"],
             "--second-arc: arc endpoints must be distinct")):
        assert main([argv[0], "--triangulation", p] + argv[1:]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_exit_2_on_bad_json(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    assert main(["validate", "--triangulation", str(p)]) == 2
    capsys.readouterr()


def test_exit_2_on_missing_file(capsys):
    assert main(["validate", "--triangulation", "/no/such/file"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content,message", [
    (b"\xff", "error: /: invalid JSON"),
    (b"[" * 200000, "error: /: invalid JSON"),
    (None, "error: [Errno"),
], ids=["not_utf8", "nested_too_deep", "directory"])
def test_exit_2_on_unreadable_input(tmp_path, capsys, content, message):
    p = tmp_path / "input.json"
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    assert main(["validate", "--triangulation", str(p)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_exit_2_on_output_to_a_directory(tri_file, tmp_path, capsys):
    p = tri_file(PENTAGON)
    assert main(["validate", "--triangulation", p, "--out",
                 str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")


def test_exit_2_on_limit_in_finite_model(tri_file, capsys):
    p = tri_file(PENTAGON)
    assert main(["index", "--triangulation", p, "--arc", "L0", "2"]) == 2
    capsys.readouterr()


def test_exit_2_on_degenerate_arc(tri_file, capsys):
    p = tri_file(PENTAGON)
    assert main(["dimvec", "--triangulation", p, "--arc", "0", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["index", "--arc", "1", "-1"],
    ["dimvec", "--arc", "1", "-1"],
    ["decompose"],
    ["render"],
])
def test_computing_commands_reject_invalid_tails(tri_file, capsys, argv):
    p = tri_file(DEGENERATE)
    code, out = run(capsys, "validate", "--triangulation", p)
    assert code == 1
    assert out["reason"] == "non-diagonal tail member"
    assert out["witness"] == "(0, 'right', 0)"
    assert main([argv[0], "--triangulation", p] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("non-diagonal tail member; witness (0, 'right', 0)"
            in captured.err)


@pytest.mark.parametrize("obj", [
    {"z": {"finite": 5}, "core": [[0, 1], [0, 2]]},
    {**FOUNTAIN, "core": [[[0, 0], [0, 1]]]},
], ids=["pentagon", "fountain"])
def test_computing_commands_reject_non_diagonal_core_arc(tri_file, capsys,
                                                         obj):
    """A boundary edge in the core is reported before any crossing."""
    p = tri_file(obj)
    code, out = run(capsys, "validate", "--triangulation", p)
    assert code == 1 and out["reason"] == "non-diagonal arc"
    assert out["witness"] == "Arc(V(0,0),V(0,1))"
    assert main(["index", "--triangulation", p, "--arc", "1", "3"]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid triangulation: non-diagonal arc; witness "
            "Arc(V(0,0),V(0,1))\n")


@pytest.mark.parametrize("argv", [
    ["realize", "--arc", "1", "3"],
    ["index", "--arc", "1", "3"],
])
def test_computing_commands_reject_crossing_core(tri_file, capsys, argv):
    p = tri_file(BAD)
    code, out = run(capsys, "validate", "--triangulation", p)
    assert code == 1 and out["reason"] == "crossing pair"
    assert main([argv[0], "--triangulation", p] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: invalid triangulation: crossing pair; witness "
            f"{out['witness']}\n") == captured.err


@pytest.mark.parametrize("argv", [
    ["index", "--arc", "1", "-1"],
    ["dimvec", "--arc", "0", "5"],
    ["decompose"],
    ["roots", "--arc", "1", "-1"],
    ["render"],
])
def test_computing_commands_reject_core_crossing_tail(tri_file, capsys,
                                                      argv):
    """A core arc crossing a tail member passes the checks of the core
    alone; every command runs the full ``validate`` and stops."""
    p = tri_file(TAIL_CROSSING)
    code, out = run(capsys, "validate", "--triangulation", p)
    assert code == 1 and out["reason"] == "crossing pair"
    assert out["witness"] == "(Arc(V(0,1),V(0,3)), (0, 'right', 2))"
    assert main([argv[0], "--triangulation", p] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: invalid triangulation: crossing pair; witness "
            f"{out['witness']}\n") == captured.err


@pytest.mark.parametrize("argv", [
    ["realize", "--arc", "1", "3"],
    ["dimvec", "--arc", "1", "3"],
    ["index", "--arc", "1", "3"],
    ["decompose"],
])
def test_computing_commands_reject_missing_diagonal(tri_file, capsys, argv):
    """One non-crossing diagonal of the hexagon passes the structural
    checks; the count n - 3 sends it to validate's face check."""
    p = tri_file({"z": {"finite": 6}, "core": [[0, 2]]})
    code, out = run(capsys, "validate", "--triangulation", p)
    assert code == 1 and out["reason"] == "non-triangular face"
    assert main([argv[0], "--triangulation", p] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: invalid triangulation: non-triangular face; witness "
            f"{out['witness']}\n") == captured.err


HEXAGON_FAN = {"z": {"finite": 6}, "core": [[0, 2], [0, 3], [0, 4]]}
# One minimal argument list per command but validate; "U" stands for a
# second triangulation.
MINIMAL_ARGV = {
    "index": ["--arc", "1", "3"],
    "cvector": ["--second-triangulation", "U", "--arc", "0", "3"],
    "dimvec": ["--arc", "1", "3"],
    "image": ["--arc", "1", "3", "--second-arc", "2", "4"],
    "realize": ["--arc", "1", "3"],
    "decompose": [],
    "roots": ["--arc", "1", "3"],
    "duality": ["--second-triangulation", "U"],
    "oracle": ["--paths", "2"],
    "render": [],
}


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"validate"}))
def test_no_command_answers_an_invalid_triangulation(tri_file, capsys,
                                                     command):
    """Every command but validate answers on the hexagon fan, and exits
    1 with validate's reason and no output when --triangulation (or
    --second-triangulation) is the crossing core."""
    assert set(MINIMAL_ARGV) == set(COMMANDS) - {"validate"}
    good, bad = tri_file(HEXAGON_FAN, "good.json"), tri_file(BAD, "bad.json")
    _, report = run(capsys, "validate", "--triangulation", bad)
    want = (f"error: invalid triangulation: {report['reason']}; witness "
            f"{report['witness']}\n")

    def argv(first, second):
        return [command, "--triangulation", first] + [
            second if a == "U" else a for a in MINIMAL_ARGV[command]]

    assert main(argv(good, good)) == 0
    capsys.readouterr()
    cases = [argv(bad, good)]
    if "U" in MINIMAL_ARGV[command]:
        cases.append(argv(good, bad))
    for case in cases:
        assert main(case) == 1
        assert capsys.readouterr() == ("", want)


# A leapfrog whose first member repeats the one core arc, 2 * 10^6
# vertices long: the face under it is not a triangle.
SPREAD = {"z": {"blocks": 1}, "core": [[[0, -10 ** 6], [0, 10 ** 6]]],
          "tails": [{"limit": 0, "type": "leapfrog", "right_from": 10 ** 6,
                     "left_to": -10 ** 6}]}


@pytest.mark.parametrize("doc, argv, reason", [
    ({"z": {"blocks": 100000000}, "core": [], "tails": []}, ["validate"],
     "tail coverage"),
    ({"z": {"blocks": 100000000}, "core": [], "tails": []},
     ["index", "--arc", "0:1", "0:3"], "tail coverage"),
    ({"z": {"finite": 1000000000}, "core": []}, ["validate"],
     "non-triangular face"),
    ({"z": {"finite": 1000000000}, "core": []}, ["index", "--arc", "1", "3"],
     "non-triangular face"),
    (SPREAD, ["validate"], "non-triangular face"),
    (SPREAD, ["index", "--arc", "0", "5"], "non-triangular face"),
    (SPREAD, ["dimvec", "--arc", "0", "5"], "non-triangular face"),
])
def test_huge_models_are_rejected_at_once(tri_file, capsys, doc, argv,
                                          reason):
    """Tail coverage is decided on the tails given, as gap ranges, the
    face walk of an n-gon stops at its first witness, and the faces of
    a Blocks(k) model are checked at the core and the tail end members
    only: none of them pays for the size of the model or the spread of
    the indices."""
    p = tri_file(doc)
    start = time.perf_counter()
    code = main([argv[0], "--triangulation", p] + argv[1:])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and reason in captured.out + captured.err
    if reason == "tail coverage":
        assert "'missing': [(0, 99999999)]" in captured.out + captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("doc", [{"z": {"finite": 6}, "core": 5},
                                 {"z": {"blocks": 1}, "tails": "x"}])
@pytest.mark.parametrize("argv", [
    ["validate"], ["index", "--arc", "1", "3"], ["decompose"], ["render"],
])
def test_non_list_core_or_tails_is_a_parse_error(tri_file, capsys, doc,
                                                 argv):
    pointer = "/core" if "core" in doc else "/tails"
    p = tri_file(doc)
    assert main([argv[0], "--triangulation", p] + argv[1:]) == 2
    assert f"error: {pointer}: expected a list" in capsys.readouterr().err


def test_import_loads_only_the_standard_library():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import infgon.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "extra = new - set(sys.stdlib_module_names) - {'infgon'}\n"
            "assert not extra, sorted(extra)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Each command's modules beyond cli, zmodel and triangulation.
HOMINDEX, CVECTOR = {"homindex"}, {"homindex", "cvector"}
DECOMPOSITION = CVECTOR | {"decomposition"}


@pytest.mark.parametrize("argv, extra", [
    (["validate"], set()),
    (["render"], {"render"}),
    (["render", "--zigzag", "1", "4"], HOMINDEX | {"render"}),
    (["index", "--arc", "1", "3"], HOMINDEX),
    (["duality", "--second-triangulation", "PENTAGON2"], HOMINDEX),
    (["dimvec", "--arc", "1", "3"], CVECTOR),
    (["cvector", "--second-triangulation", "PENTAGON2", "--arc", "1", "3"],
     CVECTOR),
    (["image", "--arc", "1", "3", "--second-arc", "0", "2"], CVECTOR),
    (["realize", "--arc", "1", "3"], CVECTOR),
    (["decompose"], DECOMPOSITION),
    (["roots", "--arc", "1", "4"], DECOMPOSITION),
    (["oracle", "--paths", "2"], CVECTOR | {"fzoracle"}),
])
def test_each_command_loads_only_its_modules(tri_file, argv, extra):
    """A fresh process running one command imports the modules that
    command calls and no other infgon module, and never dataclasses."""
    argv = [tri_file(PENTAGON2, "u.json") if a == "PENTAGON2" else a
            for a in argv]
    code = ("import json, sys\n"
            "from infgon import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "mods = sorted(m[7:] for m in sys.modules\n"
            "              if m.startswith('infgon.'))\n"
            "print(json.dumps([code, mods, 'dataclasses' in sys.modules]),\n"
            "      file=sys.stderr)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, argv[0], "--triangulation",
         tri_file(PENTAGON)] + argv[1:],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    exit_code, mods, dataclasses = json.loads(proc.stderr.splitlines()[-1])
    assert exit_code == 0, proc.stderr
    assert set(mods) == {"cli", "zmodel", "triangulation"} | extra
    assert not dataclasses


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: infgon" in capsys.readouterr().out


def test_format_flag_is_gone(tri_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--triangulation", tri_file(PENTAGON),
              "--arc", "1", "3", "--format", "json"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate"], ["index", "--arc", "1", "4"], ["dimvec", "--arc", "1", "4"],
    ["cvector", "--second-triangulation", "U", "--arc", "1", "3"],
    ["image", "--arc", "1", "3", "--second-arc", "2", "4"],
    ["realize", "--arc", "1", "4"], ["oracle", "--paths", "1"]],
    ids=lambda argv: argv[0])
def test_window_only_where_it_is_read(tri_file, capsys, argv):
    """Only decompose, roots, duality and render read --window; the
    other commands refuse it as an unknown argument (exit 2)."""
    u = tri_file(PENTAGON2, "u.json")
    argv = [argv[0], "--triangulation", tri_file(PENTAGON)] + [
        u if a == "U" else a for a in argv[1:]]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--window", "-1", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["decompose"], ["roots", "--arc", "1", "-1"],
    ["duality", "--second-triangulation", "U"], ["render"]],
    ids=lambda argv: argv[0])
def test_exit_2_on_window_with_lo_above_hi(tri_file, capsys, argv):
    """A window LO > HI holds no index: the four window commands exit 2
    naming --window instead of answering emptily, and a window of one
    index is still read."""
    u = tri_file(FOUNTAIN2, "u.json")
    argv = [argv[0], "--triangulation", tri_file(FOUNTAIN)] + [
        u if a == "U" else a for a in argv[1:]]
    assert main(argv + ["--window", "5", "-5"]) == 2
    assert "error: --window: LO 5 exceeds HI -5" in capsys.readouterr().err
    assert main(argv + ["--window", "3", "3"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_out_flag_writes_file(tri_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["validate", "--triangulation", tri_file(PENTAGON),
                 "--out", str(dest)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(dest.read_text())["ok"] is True


def test_output_is_deterministic_json(tri_file, capsys):
    _, a = run(capsys, "decompose", "--triangulation", tri_file(PENTAGON))
    _, b = run(capsys, "decompose", "--triangulation", tri_file(PENTAGON))
    assert a == b


# -- fuzzing ----------------------------------------------------------------
#
# Every input ends in an answer (exit 0), a rejected triangulation
# (exit 1), a parse or precondition error (exit 2) or the step cap
# (exit 3), never in an exception.  Models go up to n = 10^9 vertices
# and k = 10^6 blocks, and document indices up to 10^12 in size, which
# no check may pay for.  The `--arc` tokens stay within 20 of 0, near
# the data of the valid documents: a zig-zag across a leapfrog takes one
# step per member it passes (2d - 2 vertices from (0, 1) to (0, d)), so
# an arc far from the data is a long query, not a fault.

SMALL = st.integers(-20, 20)
WIDE = SMALL | st.integers(-10 ** 12, 10 ** 12)
SCALAR = (st.none() | st.booleans() | st.text(max_size=3) | st.floats(-20, 20)
          | st.sampled_from([math.inf, -math.inf, math.nan]))
JUNK = st.recursive(
    SCALAR | WIDE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
INT = WIDE | SCALAR  # an integer field, sometimes malformed
POINT = st.one_of(INT, st.lists(INT, min_size=2, max_size=2),
                  st.builds(lambda g: {"limit": g}, INT), JUNK)
ARC = st.one_of(st.lists(POINT, min_size=2, max_size=2), JUNK)
MODEL = st.one_of(
    st.builds(lambda n: {"finite": n},
              st.integers(-2, 12) | st.integers(13, 10 ** 9)),
    st.builds(lambda k: {"blocks": k},
              st.integers(-1, 3) | st.integers(4, 10 ** 6)),
    st.builds(lambda name, v: {name: v},
              st.sampled_from(["finite", "blocks"]), SCALAR),
    JUNK)


@st.composite
def _tail_json(draw):
    tail = {"limit": draw(st.integers(-1, 3) | SCALAR),
            "type": draw(st.sampled_from(["fountain", "leapfrog", "x"])),
            "base": draw(POINT), "right_from": draw(INT),
            "left_to": draw(INT)}
    for name in draw(st.lists(st.sampled_from(sorted(tail)), max_size=2)):
        if draw(st.booleans()):
            tail[name] = draw(JUNK)
        else:
            tail.pop(name, None)
    return tail


def _valid_documents():
    docs = [triangulation_to_json(t) for n in range(4, 9)
            for t in enumerate_triangulations(ZModel.finite(n))]
    return docs + [FOUNTAIN, FOUNTAIN2, LEAPFROG, LEAPFROG_CORE, BLOCKS2]


DOCUMENT = st.one_of(
    st.sampled_from(_valid_documents()),
    st.fixed_dictionaries(
        {"z": MODEL},
        optional={"core": st.lists(ARC, max_size=8) | JUNK,
                  "tails": st.lists(_tail_json(), max_size=3) | JUNK}),
    JUNK)
TOKEN = st.one_of(
    SMALL.map(str),
    st.builds("{}:{}".format, st.integers(-1, 3), SMALL),
    st.builds("L{}".format, st.integers(-1, 3)),
    st.text(alphabet="0123456789:Lx- ", max_size=4))


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code


@settings(max_examples=150, deadline=2000)
@given(doc=DOCUMENT, tokens=st.lists(TOKEN, min_size=2, max_size=2))
def test_fuzzed_documents_end_in_an_exit_code(tmp_path_factory, doc,
                                              tokens):
    path = tmp_path_factory.mktemp("fuzz") / "t.json"
    path.write_text(json.dumps(doc))
    p = str(path)
    for argv in (["validate"], ["index", "--arc", *tokens],
                 ["dimvec", "--arc", *tokens],
                 ["realize", "--arc", *tokens]):
        code = _exit_code([argv[0], "--triangulation", p] + argv[1:])
        assert code in (0, 1, 2, 3), (argv, code)
