"""The command line is a thin, deterministic adapter over the library."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prism import flagged_snapshot, flagged_to_json, Circle, guiding_examples, liegroups, priestley
from prism.cli import heights_table, main
from prism.cube import build_decomposition, cube_to_json, isomax_table
from prism.liegroups import O2
from prism.oracles import run_suite

GOLDEN = Path(__file__).parent / "golden"
SUBCOMMANDS = (
    "show", "heights", "check-dispersion", "closed-sets", "noetherian", "cube", "isomax", "oracle"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_heights_circle(capsys):
    code, out, err = run(capsys, "heights", "circle", "--bound", "3")
    assert code == 0 and err == ""
    assert out == "C(1) 0\nC(2) 0\nC(3) 0\nG 1\ncyclic 0\n"


def test_heights_json_schema(capsys):
    code, out, _ = run(capsys, "heights", "o2", "--bound", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["SO2"] == 1 and data["G"] == 1 and data["C(1)"] == 0
    code, out, _ = run(capsys, "heights", "so3", "--bound", "2", "--format", "json")
    assert json.loads(out)["A4"] == 0


def test_heights_inf_serialization(tmp_path, capsys):
    space = guiding_examples()[3]  # limit below: everything infinite
    path = tmp_path / "space.json"
    path.write_text(flagged_to_json(space))
    code, out, _ = run(capsys, "heights", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"inf": "inf", "tail": "inf"}


def test_isomax_table(capsys):
    code, out, _ = run(capsys, "isomax", "2")
    assert code == 0
    assert out == isomax_table(2)
    assert "2 l=2 members={2,02,12,012}" in out
    for n in ("-1", "13"):
        code, out, err = run(capsys, "isomax", n)
        assert code == 1 and out == "" and err.startswith("ValueError")


def test_noetherian(capsys):
    assert run(capsys, "noetherian", "o2") == (0, "false\n", "")
    assert run(capsys, "noetherian", "circle") == (0, "true\n", "")
    assert run(capsys, "noetherian", "torus:2") == (0, "true\n", "")
    assert run(capsys, "noetherian", "so3") == (0, "false\n", "")


def test_show_and_closed_sets(capsys):
    code, out, _ = run(capsys, "show", "circle", "--bound", "2")
    assert code == 0 and "C(1) < G" in out and "cyclic" in out
    code, out, _ = run(capsys, "closed-sets", "circle", "--bound", "2")
    assert code == 0
    assert "2 clopen down-set classes" in out
    assert "cyclic: all" in out and "cyclic: finite" in out


def test_show_torus2_bound6_golden(capsys):
    """The torus order's points and pairs, byte for byte, at a rung of the
    catalog benchmark."""
    code, out, _ = run(capsys, "show", "torus:2", "--bound", "6")
    assert code == 0
    assert out.encode() == (GOLDEN / "show_torus2_bound6.txt").read_bytes()


def test_check_dispersion(tmp_path, capsys):
    cand = {"C(1)": 0, "C(2)": 0, "G": 1, "cyclic": 0}
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(cand))
    code, out, _ = run(capsys, "check-dispersion", "circle", str(path), "--bound", "2")
    assert code == 0 and out == "true\n"
    path.write_text(json.dumps({**cand, "G": 0}))
    code, out, _ = run(capsys, "check-dispersion", "circle", str(path), "--bound", "2")
    assert code == 0 and out.startswith("false witness=")


def test_cube_formats(capsys):
    code, out, _ = run(capsys, "cube", "circle", "--bound", "2", "--format", "json")
    assert code == 0
    assert out == cube_to_json(build_decomposition(Circle(), 2)) + "\n"
    code, out, _ = run(capsys, "cube", "torus:2", "--bound", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph cube")
    code, out, _ = run(capsys, "cube", "finite:missing.json")
    assert code == 1


def test_flagged_json_input(tmp_path, capsys):
    space = flagged_snapshot(O2(), 2)
    path = tmp_path / "o2.json"
    path.write_text(flagged_to_json(space))
    code, out, _ = run(capsys, "heights", str(path))
    assert code == 0 and "SO2 1" in out


def test_show_lists_member_mediated_pairs_and_refuses_their_cycles(tmp_path, capsys):
    # g lies below f's members and l above them, so g < l although no
    # order pair says so
    path = tmp_path / "space.json"
    f = {"id": "f", "limit": "l", "memberGt": ["g"], "memberLt": ["l"]}
    path.write_text(json.dumps({"points": ["g", "l"], "families": [f]}))
    code, out, err = run(capsys, "show", str(path))
    assert (code, err) == (0, "") and "order:\n  g < l\nfamilies:\n" in out
    # a < (members of f1) < c < (members of f2) < b < a is a cycle
    path.write_text(json.dumps({"points": ["a", "b", "c"], "order": [["b", "a"]], "families": [
        {"id": "f1", "limit": "a", "memberGt": ["a"], "memberLt": ["c"]},
        {"id": "f2", "limit": "c", "memberGt": ["c"], "memberLt": ["b"]},
    ]}))
    code, out, err = run(capsys, "show", str(path))
    assert (code, out) == (1, "") and err.startswith("ValueError: order is not antisymmetric")


def test_finite_group_spec(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"classes": [
        {"id": "1", "weylOrder": 6, "weylName": "S3"},
        {"id": "S3", "weylOrder": 1},
    ]}))
    code, out, _ = run(capsys, "noetherian", "finite:%s" % path)
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "heights", "finite:%s" % path)
    assert out == "1 0\nS3 0\n"


def test_finite_class_named_like_a_shared_key(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"classes": [{"id": "e", "weylOrder": 2}, {"id": "G", "weylOrder": 1}]}))
    code, out, err = run(capsys, "cube", "finite:%s" % path)
    assert code == 0 and err == ""
    assert "G ~ D(Q)\n" in out and "e ~ D(Q[W2])\n" in out


# sha256 of the stdout of "closed-sets torus:2 --bound 2": 1.7 MB, too big
# for a golden file; the CI workflow checks the same digest
CLOSED_SETS_TORUS2_SHA256 = "97a186046719c79b61e8304289758bf08f90f3278170a092c0a2d0e1c6710d5e"


def test_closed_sets_past_the_class_limit(monkeypatch, capsys):
    code, out, _ = run(capsys, "closed-sets", "torus:2", "--bound", "2")
    assert code == 0 and out.startswith("4097 clopen down-set classes\n")
    assert hashlib.sha256(out.encode()).hexdigest() == CLOSED_SETS_TORUS2_SHA256
    monkeypatch.setattr(priestley, "CLOPEN_MAX_CLASSES", 4096)
    code, out, err = run(capsys, "closed-sets", "torus:2", "--bound", "2")
    assert code == 1 and out == ""
    assert err == "ValueError: more than 4096 clopen down-set classes\n"


# sha256 of the stdout of "show torus:3" at bounds 2 and 3 (117 kB and
# 869 kB): the torus order build, pinned byte for byte; the CI workflow
# checks the same digests
SHOW_TORUS3_SHA256 = {
    "2": "e53009abc56416f4b4c2142fee10fb12fae1c19b80e708553ab932303962c155",
    "3": "1f41ca45fa9934f26959c5b80746064079a052347a0b04ce413afabe68876ae5",
}


@pytest.mark.parametrize("bound", sorted(SHOW_TORUS3_SHA256))
def test_show_torus3_digest(capsys, bound):
    code, out, err = run(capsys, "show", "torus:3", "--bound", bound)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SHOW_TORUS3_SHA256[bound]


# sha256 of the stdout of "cube <group> --format json" for T^3 at bound 2
# (four strata, 279 points) and SO(3) at bound 4 (exceptional classes);
# the CI workflow checks T^3 at bound 3 the same way
CUBE_JSON_SHA256 = {
    ("torus:3", "2"): "6a579197021beb876df628046a82ca9be2752efb9e2bb29b68257e035a77c2c7",
    ("so3", "4"): "72e777cd28cd212833b5799df9a3096bf0e5a34addf6ca9998383edfb3e774c4",
}


@pytest.mark.parametrize("group, bound", sorted(CUBE_JSON_SHA256))
def test_cube_json_digest(capsys, group, bound):
    code, out, err = run(capsys, "cube", group, "--bound", bound, "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CUBE_JSON_SHA256[group, bound]


def test_snapshot_past_the_key_limit():
    # the key count is checked before any key is listed, so a huge bound
    # fails at once instead of running until the memory is gone
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["heights", "circle", "--bound", str(10**12)],
                 ["heights", "torus:1", "--bound", str(10**12)],
                 ["cube", "torus:3", "--bound", str(10**6)]):
        result = subprocess.run(
            [sys.executable, "-m", "prism.cli", *argv], capture_output=True, text=True,
            timeout=30, env={**os.environ, "PYTHONPATH": path},
        )
        expected = "ValueError: more than %d snapshot keys\n" % liegroups.SNAPSHOT_MAX_KEYS
        assert (result.returncode, result.stdout, result.stderr) == (1, "", expected), argv


def test_exit_codes(tmp_path, capsys):
    space = guiding_examples()[2]
    path = tmp_path / "chain.json"
    path.write_text(flagged_to_json(space))
    code, out, err = run(capsys, "check-dispersion", str(path), str(tmp_path / "x.json"))
    assert code == 1 and out == "" and err.startswith("FileNotFoundError: ")
    # a candidate that is no dispersion is a verdict, not an error
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"inf": 1, "tail": 0}))
    code, out, err = run(capsys, "check-dispersion", str(path), str(candidate))
    assert code == 0 and err == ""
    assert out == "false witness=('family-order', 'inf', 'tail')\n"
    candidate.write_text(json.dumps({"inf": 1, "tail": 0, "bogus": 5}))
    code, out, err = run(capsys, "check-dispersion", str(path), str(candidate))
    assert (code, out) == (1, "")
    assert err == "ValueError: candidate names no point or family: 'bogus'\n"
    code, _, err = run(capsys, "noetherian", "nosuchgroup")
    assert code == 1 and err.startswith("KeyMismatch")
    for argv in (["heights", "torus:4"], ["heights", "circle", "--bound", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("ValueError: ")
    for argv in (["heights", "torus:x"], ["noetherian", "torus:"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "ValueError: torus rank is not an integer\n"), argv
    # every finite group has the class of its trivial subgroup
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"classes": []}))
    for command in ("heights", "cube"):
        code, out, err = run(capsys, command, "finite:%s" % empty)
        assert (code, out) == (1, "")
        assert err == "ValueError: a finite group has at least the class of its trivial subgroup\n"
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_errors_do_not_depend_on_the_hash_seed(tmp_path):
    # the point an error names is the least offender by repr, not the first
    # one met in a set, whose order the hash seed decides
    space, candidate, order = (tmp_path / name for name in ("space.json", "c.json", "o.json"))
    space.write_text(flagged_to_json(guiding_examples()[1]))
    candidate.write_text(json.dumps({"inf": 1, "tail": 0}))
    order.write_text(json.dumps({"points": ["a"], "order": [["a", "x"], ["a", "y"], ["z", "a"]]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, expected in (
        (["check-dispersion", str(space), str(candidate)],
         "ValueError: candidate is not total: missing '0'\n"),
        (["heights", str(order)], "ValueError: order mentions unknown point in ('a', 'x')\n"),
    ):
        for seed in "0123":
            result = subprocess.run(
                [sys.executable, "-m", "prism.cli", *argv], capture_output=True, text=True,
                timeout=60, env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            )
            assert (result.returncode, result.stdout, result.stderr) == (1, "", expected), seed


@pytest.mark.parametrize(
    "argv,name",
    [pytest.param([], "usage_no_command.txt", id="no-command"),
     pytest.param(["--help"], "help.txt", id="help")]
    + [pytest.param([c, "--help"], "help_%s.txt" % c, id=c) for c in SUBCOMMANDS],
)
def test_parser_surface_golden(monkeypatch, capsys, argv, name):
    # the help pages and the usage error, as argparse lays them out in 80
    # columns; from Python 3.13 on it keeps the "..." after the command
    # choices on their line, so the two pages that show it have a 3.13 copy
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    path = GOLDEN / "py313" / name
    if sys.version_info < (3, 13) or not path.exists():
        path = GOLDEN / name
    expected = path.read_text(encoding="utf-8")
    if argv:
        assert exc.value.code == 0 and captured == (expected, "")
    else:
        assert exc.value.code == 2 and captured == ("", expected)


def test_deterministic_output(capsys):
    first = run(capsys, "cube", "so3", "--bound", "3")
    second = run(capsys, "cube", "so3", "--bound", "3")
    assert first == second
    a = run(capsys, "closed-sets", "o2", "--bound", "3")
    b = run(capsys, "closed-sets", "o2", "--bound", "3")
    assert a == b


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "heights.txt"
    code, out, _ = run(capsys, "heights", "circle", "--bound", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "C(1) 0\nC(2) 0\nG 1\ncyclic 0\n"


def test_cli_is_a_thin_adapter(capsys):
    # the heights command must print exactly the library's table
    space = flagged_snapshot(Circle(), 3)
    _, lines = heights_table(space)
    code, out, _ = run(capsys, "heights", "circle", "--bound", "3")
    assert out == "\n".join(lines) + "\n"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "isomax")
    assert (code, out) == (0, "ok isomax (247 cases)\n")
    code, out, _ = run(capsys, "oracle", "downsets")
    assert (code, out) == (0, "ok downsets (12 cases)\n")
    with pytest.raises(ValueError, match="unknown oracle suite 'nope'"):
        list(run_suite("nope"))


def test_out_writes_the_printed_bytes(tmp_path, capsys):
    target = tmp_path / "out.txt"
    for argv in (["heights", "circle", "--bound", "2"],
                 ["cube", "torus:2", "--bound", "2", "--format", "json"]):
        code, printed, _ = run(capsys, *argv)
        assert code == 0 and printed
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode()
        target.unlink()
    code, out, err = run(capsys, "heights", "circle", "--bound", "0", "--out", str(target))
    assert (code, out) == (1, "") and err.startswith("ValueError: ") and not target.exists()
    code, out, err = run(capsys, "heights", "circle", "--bound", "2", "--out", str(tmp_path))
    assert (code, out) == (1, "") and err.startswith("IsADirectoryError: ")


def _family(**fields):
    return {"points": ["a"], "families": [{"id": "f", "limit": "a", **fields}]}


class Raw(str):
    """File contents written as they are, not as JSON."""


DEEP = Raw("[" * 100000)

# (case, command, file contents: JSON data or Raw text); the file path ends
# the command
MALFORMED_INPUTS = [
    ("deep-flagged", ["heights"], DEEP),
    ("deep-finite", ["noetherian", "finite:"], DEEP),
    ("deep-semidirect", ["noetherian", "semidirect:"], DEEP),
    ("deep-candidate", ["check-dispersion", "circle"], DEEP),
    ("flagged-array", ["heights"], []),
    ("duplicate-family-ids", ["heights"],
     {"points": ["a"], "families": [{"id": "f", "limit": "a"}, {"id": "f", "limit": "a"}]}),
    ("family-id-is-a-point", ["heights"],
     {"points": ["a"], "families": [{"id": "a", "limit": "a"}]}),
    ("unknown-limit", ["heights"], {"points": ["a"], "families": [{"id": "f", "limit": "b"}]}),
    ("bound-unknown-point", ["heights"], _family(memberLt=["b"])),
    ("unknown-member-order", ["heights"], _family(memberOrder="zigzag")),
    ("overlapping-bounds", ["heights"],
     {"points": ["a", "b"],
      "families": [{"id": "f", "limit": "a", "memberLt": ["b"], "memberGt": ["b"]}]}),
    ("family-without-limit", ["heights"], {"points": ["a"], "families": [{"id": "f"}]}),
    ("family-without-id", ["heights"], {"points": ["a"], "families": [{"limit": "a"}]}),
    ("numeric-limit", ["heights"], {"points": ["a"], "families": [{"id": "f", "limit": 1}]}),
    ("string-hint", ["heights"], _family(heightHint="x")),
    ("bool-hint", ["heights"], _family(heightHint=True)),
    ("string-bounds", ["heights"], _family(memberLt="a")),
    ("numeric-samples", ["heights"], _family(samples=3)),
    ("family-not-object", ["heights"], {"points": ["a"], "families": ["f"]}),
    ("points-string", ["heights"], {"points": "ab"}),
    ("numeric-point", ["heights"], {"points": ["a", 2]}),
    ("order-triple", ["heights"], {"points": ["a", "b"], "order": [["a", "b", "a"]]}),
    ("order-pair-string", ["heights"], {"points": ["a", "b"], "order": ["ab"]}),
    ("class-without-weyl-order", ["noetherian", "finite:"], {"classes": [{"id": "1"}]}),
    ("array-weyl-order", ["noetherian", "finite:"],
     {"classes": [{"id": "1", "weylOrder": [1]}]}),
    ("classes-not-array", ["noetherian", "finite:"], {"classes": 3}),
    ("numeric-class-id", ["cube", "finite:"],
     {"classes": [{"id": 1, "weylOrder": 1}, {"id": "x", "weylOrder": 2}]}),
    ("numeric-weyl-name", ["cube", "finite:"],
     {"classes": [{"id": "e", "weylOrder": 1, "weylName": 7}]}),
    ("zero-weyl-order", ["cube", "finite:"],
     {"classes": [{"id": "e", "weylOrder": 0}, {"id": "G", "weylOrder": -3}]}),
    ("negative-weyl-order", ["noetherian", "finite:"], {"classes": [{"id": "G", "weylOrder": -3}]}),
    ("no-classes", ["noetherian", "finite:"], {}),
    ("duplicate-class-ids", ["noetherian", "finite:"],
     {"classes": [{"id": "1", "weylOrder": 1}, {"id": "1", "weylOrder": 1}]}),
    ("relation-fails", ["noetherian", "semidirect:"],
     {"rank": 1, "generators": [[[-1]]], "relations": [[0]]}),
    ("rank-4", ["noetherian", "semidirect:"], {"rank": 4, "generators": []}),
    ("infinite-order", ["noetherian", "semidirect:"], {"rank": 2, "generators": [[[1, 1], [0, 1]]]}),
    ("generator-shape", ["noetherian", "semidirect:"], {"rank": 2, "generators": [[[1]]]}),
    ("no-generators", ["noetherian", "semidirect:"], {"rank": 1}),
    ("numeric-generators", ["noetherian", "semidirect:"], {"rank": 1, "generators": 5}),
    ("unknown-generator", ["noetherian", "semidirect:"],
     {"rank": 1, "generators": [[[-1]]], "relations": [[3]]}),
    ("float-rank", ["noetherian", "semidirect:"], {"rank": 1.9, "generators": [[[-1]]]}),
    ("string-rank", ["noetherian", "semidirect:"], {"rank": "1", "generators": [[[-1]]]}),
    ("bool-rank", ["noetherian", "semidirect:"], {"rank": True, "generators": [[[-1]]]}),
    ("float-entry", ["noetherian", "semidirect:"], {"rank": 1, "generators": [[[-1.5]]]}),
    ("string-entry", ["noetherian", "semidirect:"], {"rank": 1, "generators": [[["-1"]]]}),
    ("bool-entry", ["noetherian", "semidirect:"], {"rank": 1, "generators": [[[True]]]}),
    ("string-relation-index", ["noetherian", "semidirect:"],
     {"rank": 1, "generators": [[[-1]]], "relations": [["0", "0"]]}),
    ("float-relation-index", ["noetherian", "semidirect:"],
     {"rank": 1, "generators": [[[-1]]], "relations": [[0.0, 0]]}),
    ("candidate-array", ["check-dispersion", "circle"], [0, 1]),
    ("candidate-array-value", ["check-dispersion", "circle"], {"C(1)": [0]}),
]


@pytest.mark.parametrize(
    "command,contents", [pytest.param(c, j, id=i) for i, c, j in MALFORMED_INPUTS]
)
def test_malformed_input_is_a_value_error(tmp_path, capsys, command, contents):
    path = tmp_path / "input.json"
    path.write_text(contents if isinstance(contents, Raw) else json.dumps(contents))
    if command[-1].endswith(":"):
        argv = command[:-1] + [command[-1] + str(path)]
    else:
        argv = command + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ValueError:"), err
