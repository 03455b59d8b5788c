"""The command line is a thin, deterministic adapter over the library."""

import json

import pytest

from prism import flagged_snapshot, flagged_to_json, Circle, guiding_examples, priestley
from prism.cli import heights_table, main
from prism.cube import build_decomposition, cube_to_json, isomax_table
from prism.liegroups import O2


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


def test_closed_sets_past_the_class_limit(monkeypatch, capsys):
    code, out, _ = run(capsys, "closed-sets", "torus:2", "--bound", "2")
    assert code == 0 and out.startswith("4097 clopen down-set classes\n")
    monkeypatch.setattr(priestley, "CLOPEN_MAX_CLASSES", 4096)
    code, out, err = run(capsys, "closed-sets", "torus:2", "--bound", "2")
    assert code == 1 and out == ""
    assert err == "ValueError: more than 4096 clopen down-set classes\n"


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
    code, _, err = run(capsys, "noetherian", "su2")
    assert code == 1 and err.startswith("KeyMismatch")
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


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
    assert code == 0 and out.startswith("ok isomax (")
    code, out, _ = run(capsys, "oracle", "downsets")
    assert code == 0 and "ok downsets" in out



def _family(**fields):
    return {"points": ["a"], "families": [{"id": "f", "limit": "a", **fields}]}


# (case, command, JSON file contents); the file path ends the command
MALFORMED_INPUTS = [
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
    ("zero-weyl-order", ["cube", "finite:"],
     {"classes": [{"id": "e", "weylOrder": 0}, {"id": "G", "weylOrder": -3}]}),
    ("negative-weyl-order", ["noetherian", "finite:"], {"classes": [{"id": "G", "weylOrder": -3}]}),
    ("no-classes", ["noetherian", "finite:"], {}),
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
    path.write_text(json.dumps(contents))
    if command[-1].endswith(":"):
        argv = command[:-1] + [command[-1] + str(path)]
    else:
        argv = command + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ValueError:"), err
