import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import multcone
from multcone import cli, eigencone, unitary_oracle, weyl
from multcone.cli import main
from multcone.eigencone import compile_system

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # cold start: neither the in-process registry nor a shared disk cache
    # may leak between tests
    monkeypatch.setenv("MULTCONE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(eigencone, "_TABLES", {})
    monkeypatch.setattr(eigencone, "_SYSTEMS", {})
    return tmp_path / "cache"


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


def schema(name):
    ref = resources.files("multcone") / "schemas" / name
    return json.loads(ref.read_text())


def check(payload, name):
    jsonschema.validate(json.loads(payload), schema(name))


def points_file(tmp_path, rows, name="pts.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"points": rows}))
    return str(path)


def _normalize(text):
    lines = [re.sub(r" +", " ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def test_tables_matches_fixture(run):
    code, out, _ = run("tables", "--type", "B2", "--parabolic", "2")
    assert code == 0
    assert _normalize(out) == _normalize((FIXTURES / "b2p2.txt").read_text())


def test_tables_f4_p1(run):
    code, out, _ = run("tables", "--type", "F4", "--parabolic", "1")
    assert code == 0
    assert "# s23:" in out and "# s24:" not in out


def test_tables_json_schema(run):
    code, out, _ = run("tables", "--type", "G2", "--parabolic", "1",
                       "--format", "json")
    assert code == 0
    check(out, "table.schema.json")


def count_restores(monkeypatch):
    """Record every table restored from a disk cache entry."""
    restored = []
    real = cli._table_from_payload

    def counting(*args):
        restored.append(real(*args))
        return restored[-1]

    monkeypatch.setattr(cli, "_table_from_payload", counting)
    return restored


def test_tables_cache_round_trip(run, isolated_cache, monkeypatch):
    code, first, _ = run("tables", "--type", "G2", "--parabolic", "2")
    assert code == 0
    cached = list(isolated_cache.glob("table-*.json"))
    assert len(cached) == 1
    inode = cached[0].stat().st_ino
    restored = count_restores(monkeypatch)
    # drop the in-process table so the second call has to read the entry
    monkeypatch.setattr(eigencone, "_TABLES", {})
    code, second, _ = run("tables", "--type", "G2", "--parabolic", "2")
    assert code == 0 and second == first
    assert len(restored) == 1
    assert cached[0].stat().st_ino == inode, "a good entry was rewritten"
    monkeypatch.setattr(eigencone, "_TABLES", {})
    code, third, _ = run("tables", "--type", "G2", "--parabolic", "2",
                         "--no-cache")
    assert code == 0 and third == first
    assert len(restored) == 1


def test_tables_survives_corrupt_cache(run, isolated_cache, monkeypatch):
    code, first, _ = run("tables", "--type", "B2", "--parabolic", "1")
    assert code == 0
    (entry,) = isolated_cache.glob("table-*.json")
    written = entry.read_bytes()
    entry.write_text("{not json")
    restored = count_restores(monkeypatch)
    monkeypatch.setattr(eigencone, "_TABLES", {})
    code, again, _ = run("tables", "--type", "B2", "--parabolic", "1")
    assert code == 0 and again == first
    assert restored == []
    assert entry.read_bytes() == written, "the corrupt entry was not rewritten"
    monkeypatch.setattr(eigencone, "_TABLES", {})
    code, third, _ = run("tables", "--type", "B2", "--parabolic", "1")
    assert code == 0 and third == first
    assert len(restored) == 1


def test_tables_cache_write_ignores_stale_temp(run, isolated_cache):
    # a leftover "<entry>.tmp" (here a directory, which cannot be opened
    # for writing) must not stop the entry from being written
    entry = isolated_cache / "table-B2-P2-v1.json"
    (isolated_cache / (entry.name + ".tmp")).mkdir(parents=True)
    code, out, _ = run("tables", "--type", "B2", "--parabolic", "2")
    assert code == 0
    assert json.loads(entry.read_text())["type"] == "B"
    assert sorted(p.name for p in isolated_cache.iterdir()) == \
        [entry.name, entry.name + ".tmp"]
    code, again, _ = run("tables", "--type", "B2", "--parabolic", "2")
    assert code == 0 and again == out


def test_tables_requires_parabolic(run):
    code, _, err = run("tables", "--type", "B2")
    assert code == 2
    assert err == "error: tables requires --parabolic\n"


def test_tables_unknown_node(run):
    code, _, err = run("tables", "--type", "B2", "--parabolic", "3")
    assert code == 2
    assert err == "error: no such node P3 for B2\n"


def test_inequalities_text(run):
    code, out, _ = run("inequalities", "--type", "A1", "-n", "3")
    assert code == 0
    assert out.splitlines() == [
        "4 inequalities for A1, n=3",
        "P1; (e, s1, s1); d=0",
        "P1; (s1, e, s1); d=0",
        "P1; (s1, s1, e); d=0",
        "P1; (e, e, e); d=1",
    ]


def test_inequalities_json_schema(run):
    code, out, _ = run("inequalities", "--type", "B2", "-n", "3",
                       "--format", "json")
    assert code == 0
    check(out, "inequalities.schema.json")
    obj = json.loads(out)
    assert obj["count"] == len(obj["inequalities"]) > 0


def test_inequalities_deterministic(run):
    _, first, _ = run("inequalities", "--type", "A2", "-n", "3")
    _, second, _ = run("inequalities", "--type", "A2", "-n", "3")
    assert first == second


def test_type_parsing(run):
    assert run("inequalities", "--type", "a1", "-n", "3")[0] == 0
    assert run("inequalities", "--type", "B", "--rank", "2", "-n", "2")[0] == 0
    code, _, err = run("inequalities", "--type", "B2", "--rank", "3", "-n", "3")
    assert code == 2 and err == "error: --rank 3 contradicts --type B2\n"
    code, _, err = run("inequalities", "--type", "H3", "-n", "3")
    assert code == 2 and "malformed type 'H3'" in err


@pytest.mark.parametrize("command",
                         ["inequalities", "member", "verify", "oracle-compare"])
@pytest.mark.parametrize("n", ["1", "0"])
def test_too_few_factors_rejected(run, tmp_path, command, n):
    argv = [command, "--type", "A2", "-n", n]
    if command in ("member", "oracle-compare"):
        argv += ["--point", points_file(tmp_path, [["1/2", "1/4"]])]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err == f"error: -n must be at least 2, got {n}\n"


def test_member_inside(run, tmp_path):
    path = points_file(tmp_path, [["1/2"], ["1/2"], ["1/2"]])
    code, out, _ = run("member", "--type", "A1", "-n", "3", "--point", path)
    assert code == 0 and out == "inside\n"


def test_member_outside(run, tmp_path):
    path = points_file(tmp_path, [["1"], ["1"], ["1"]])
    code, out, _ = run("member", "--type", "A1", "-n", "3", "--point", path)
    assert code == 0
    assert out == "outside\nviolated: P1; (e, e, e); d=1\n"


def test_member_boundary_json(run, tmp_path):
    path = points_file(tmp_path, [["1"], ["1"], ["0"]])
    code, out, _ = run("member", "--type", "A1", "-n", "3", "--point", path,
                       "--format", "json")
    assert code == 0
    check(out, "member.schema.json")
    obj = json.loads(out)
    assert obj["status"] == "boundary"
    assert len(obj["tight"]) == 3 and obj["violated"] == []


# member --format json stdout pinned to its sha256, which covers the lhs
# strings of every listed row: an A3 n=4 tuple on the boundary, and a B2
# n=3 tuple outside, with violated and tight rows
@pytest.mark.parametrize("label, n, rows, status, digest", [
    ("A3", 4, [["0", "1/4", "0"], ["1/4", "1/4", "0"], ["1/4", "0", "1/4"],
               ["0", "1/4", "3/4"]], "boundary",
     "2537f355f59cd2a099360bccfa2f5a9f3ad3b1001278742a0e027708dfd6d417"),
    ("B2", 3, [["0", "0"], ["0", "1/2"], ["1/2", "0"]], "outside",
     "48a4ea2f00628e182c6d472799c2cd752a148300b05f2f0bf466190c55d88a47"),
], ids=["A3-boundary", "B2-outside"])
def test_member_json_digest(run, tmp_path, label, n, rows, status, digest):
    path = points_file(tmp_path, rows)
    code, out, _ = run("member", "--type", label, "-n", str(n),
                       "--point", path, "--format", "json")
    assert code == 0 and json.loads(out)["status"] == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_member_bad_point_files(run, tmp_path):
    code, _, err = run("member", "--type", "A1", "-n", "3",
                       "--point", str(tmp_path / "nope.json"))
    assert code == 2 and "No such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [\n  broken\n]}')
    code, _, err = run("member", "--type", "A1", "-n", "3",
                       "--point", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}:2:")
    short = points_file(tmp_path, [["1/2"]], "one.json")
    code, _, err = run("member", "--type", "A1", "-n", "3", "--point", short)
    assert code == 2 and "holds 1 points, expected 3" in err
    off = points_file(tmp_path, [["2"], ["0"], ["0"]], "off.json")
    code, _, err = run("member", "--type", "A1", "-n", "3", "--point", off)
    assert code == 2 and "not in the fundamental alcove" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\n")
    code, out, err = run("member", "--type", "A1", "-n", "3",
                         "--point", str(binary))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {binary}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["member", "oracle-compare"])
@pytest.mark.parametrize("points, message", [
    ("111", 'point file must be an object with a "points" list'),
    (["1", "0", "1"], "point 1 is not a list of coordinates"),
])
def test_point_files_need_a_list_of_lists(run, tmp_path, command, points,
                                          message):
    path = points_file(tmp_path, points)
    code, out, err = run(command, "--type", "A1", "-n", "3", "--point", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("value, message", [
    ("1e10000000", "a coordinate has more than 4300 digits"),
    ("1e-10000000", "a coordinate has more than 4300 digits"),
    ("1/0", "zero denominator"),
])
def test_point_coordinates_are_refused_before_they_are_built(run, tmp_path,
                                                             value, message):
    # Fraction would first expand 10**10000000, which takes seconds
    path = points_file(tmp_path, [[value], ["0"], ["0"]])
    start = time.perf_counter()
    code, out, err = run("member", "--type", "A1", "-n", "3", "--point", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {path}: point 1: {message}\n")


def test_point_file_numbers_are_read_as_written(run, tmp_path):
    # a JSON float would underflow to 0 and put the tuple on the boundary
    path = tmp_path / "tiny.json"
    path.write_text('{"points": [[1e-400], [0], [0]]}')
    code, out, _ = run("member", "--type", "A1", "-n", "3", "--point",
                       str(path), "--format", "json")
    assert code == 0 and json.loads(out)["status"] == "outside"
    # a JSON integer past Python's int-string limit reaches the digit bound
    # instead of failing inside json.load
    path = tmp_path / "long.json"
    path.write_text('{"points": [[1%s], [0], [0]]}' % ("0" * 4999))
    start = time.perf_counter()
    code, out, err = run("member", "--type", "A1", "-n", "3", "--point",
                         str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: point 1: "
                   "a coordinate has more than 4300 digits\n")


def test_verify_text(run):
    code, out, _ = run("verify", "--type", "A1", "-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4/4 irredundant, 0 duplicate pairs"
    assert all(" :: separating-point" in ln for ln in lines[1:])


def test_verify_json_schema(run):
    code, out, _ = run("verify", "--type", "A1", "-n", "4",
                       "--format", "json", "--workers", "2")
    assert code == 0
    check(out, "verify.schema.json")
    obj = json.loads(out)
    assert obj["irredundant"] == obj["total"] == 8
    assert obj["duplicate_pairs"] == []


def test_verify_a3_n3(run):
    code, out, _ = run("verify", "--type", "A3", "-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "72/72 irredundant, 0 duplicate pairs"
    assert len(lines) == 73


def test_verify_exits_1_when_a_certificate_fails_its_check(run, monkeypatch):
    # the integer re-check of every orbit member's witness rejects them all
    monkeypatch.setattr(
        eigencone, "_separated",
        lambda system, witness, members: [False] * len(members))
    code, out, _ = run("verify", "--type", "A1", "-n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "0/4 irredundant, 0 duplicate pairs"
    assert all(ln.endswith(" :: uncertified") for ln in lines[1:])


def count_compiles(monkeypatch):
    """Record every inequality list compiled."""
    compiled = []

    def counting_compile(*args):
        compiled.append(args)
        return compile_system(*args)
    monkeypatch.setattr(eigencone, "compile_system", counting_compile)
    return compiled


def test_oracle_compare_text(run, tmp_path, monkeypatch):
    # the inequality list is compiled once per process, not per tuple or
    # per invocation
    compiled = count_compiles(monkeypatch)
    path = points_file(
        tmp_path, [["1/2"], ["1/2"], ["1/2"], ["1"], ["1"], ["1"]])
    argv = ("oracle-compare", "--type", "A1", "-n", "3", "--point", path,
            "--restarts", "30")
    code, out, _ = run(*argv)
    assert code == 0 and len(compiled) == 1
    lines = out.splitlines()
    assert lines[-1] == "2/2 concordant, 0 false-feasible"
    assert lines[0].startswith("#1: exact=inside numeric=feasible")
    assert lines[1].startswith("#2: exact=outside numeric=no-witness")
    assert run(*argv) == (0, out, "")
    code, member_out, _ = run("member", "--type", "A1", "-n", "3",
                              "--point", points_file(tmp_path, [["1"]] * 3))
    assert code == 0 and member_out.startswith("outside\n")
    assert len(compiled) == 1


def test_inequalities_compiles_nothing(run, monkeypatch):
    compiled = count_compiles(monkeypatch)
    for _ in range(2):
        code, out, _ = run("inequalities", "--type", "A2", "-n", "3")
        assert code == 0 and out.startswith("18 inequalities for A2, n=3\n")
    assert compiled == []


@pytest.mark.parametrize("argv", [
    ("member", "--type", "A3", "-n", "4", "--format", "json"),
    ("verify", "--type", "B2", "-n", "3", "--format", "json"),
])
def test_memo_served_calls_print_what_a_cold_one_prints(run, tmp_path,
                                                        monkeypatch, argv):
    # a call served by the system memo is byte for byte a call that
    # generated and compiled its system afresh
    if argv[0] == "member":
        argv += ("--point", points_file(tmp_path, [
            ["0", "1/4", "0"], ["1/4", "1/4", "0"], ["1/4", "0", "1/4"],
            ["0", "1/4", "3/4"]]))
    compiled = count_compiles(monkeypatch)
    cold = run(*argv)
    assert cold[0] == 0 and len(compiled) == 1
    assert run(*argv) == cold and len(compiled) == 1
    monkeypatch.setattr(eigencone, "_SYSTEMS", {})
    assert run(*argv) == cold and len(compiled) == 2


def test_oracle_compare_json_schema(run, tmp_path):
    path = points_file(tmp_path, [["1/4", "1/4"]] * 3)
    code, out, _ = run("oracle-compare", "--type", "A2", "-n", "3",
                       "--point", path, "--restarts", "40",
                       "--format", "json")
    assert code == 0
    check(out, "oracle.schema.json")
    obj = json.loads(out)
    assert obj["group"] == "SU3" and obj["false_feasible"] == 0


@pytest.mark.parametrize("label, group, point", [
    ("A4", "SU5", ["1/8"] * 4), ("C3", "Sp6", ["1/8"] * 3)])
def test_oracle_compare_models_a_and_c_past_rank_two(run, tmp_path, label,
                                                     group, point):
    path = points_file(tmp_path, [point] * 3)
    code, out, _ = run("oracle-compare", "--type", label, "-n", "3",
                       "--point", path, "--restarts", "40",
                       "--format", "json")
    assert code == 0
    check(out, "oracle.schema.json")
    obj = json.loads(out)
    assert obj["group"] == group and obj["false_feasible"] == 0
    assert obj["rows"][0]["exact"] == "inside" and obj["rows"][0]["feasible"]


@pytest.mark.parametrize("group", ["SU2", "SU5", "SU12", "Sp4", "Sp6",
                                   "Sp10", "Sp5", "SO5", "SU1", "Sp2",
                                   "SU05", "Sp", "G2", "su3"])
def test_oracle_schema_group_matches_the_oracle(group):
    # the schema admits exactly the labels unitary_oracle.group_rep builds
    obj = {"group": group, "n": 3, "total": 0, "concordant": 0,
           "false_feasible": 0, "rows": []}
    try:
        unitary_oracle.group_rep(group)
    except ValueError:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema("oracle.schema.json"))
    else:
        jsonschema.validate(obj, schema("oracle.schema.json"))


def test_oracle_compare_input_errors(run, tmp_path):
    four = points_file(tmp_path, [["1/2"]] * 4, "four.json")
    code, _, err = run("oracle-compare", "--type", "A1", "-n", "3",
                       "--point", four)
    assert code == 2 and "multiple of" in err
    three = points_file(tmp_path, [["1/2", "0"]] * 3, "b2.json")
    code, _, err = run("oracle-compare", "--type", "B2", "-n", "3",
                       "--point", three)
    assert code == 2 and err == "error: no unitary model wired for B2\n"


def test_oracle_compare_refuses_unchecked_polish(run, tmp_path, monkeypatch):
    # a polish that claims residual 0 with non-unitary factors must not
    # end the search or certify an outside tuple
    def fake_polish(rep, ds, mats, cycles):
        return 0.0, [2 * np.eye(rep.dim)] * len(mats)
    monkeypatch.setattr(unitary_oracle, "_polish", fake_polish)
    path = points_file(tmp_path, [["3/4", "0"], ["3/4", "0"], ["0", "3/4"]])
    code, out, _ = run("oracle-compare", "--type", "A2", "-n", "3",
                       "--point", path, "--restarts", "10",
                       "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["false_feasible"] == 0
    assert obj["rows"][0]["exact"] == "outside"
    assert not obj["rows"][0]["feasible"]


def test_points_schema_accepts_point_files(tmp_path):
    payload = {"points": [["1/2", "-3/4"], ["0"]]}
    jsonschema.validate(payload, schema("points.schema.json"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"points": [["x"]]}, schema("points.schema.json"))


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", "-3", "--restarts must be at least 1, got -3"),
    ("--restarts", "0", "--restarts must be at least 1, got 0"),
    ("--restarts", "1000000000",
     "--restarts must be at most 10000, got 1000000000"),
    ("--tol", "-1", "--tol must be a positive finite number, got -1.0"),
    ("--tol", "0", "--tol must be a positive finite number, got 0.0"),
    ("--tol", "nan", "--tol must be a positive finite number, got nan"),
    ("--tol", "inf", "--tol must be a positive finite number, got inf"),
    ("--seed", "-1", "--seed must be at least 0, got -1"),
])
def test_oracle_compare_rejects_bad_search_settings(run, tmp_path, flag,
                                                    value, message):
    path = points_file(tmp_path, [["1/2"]] * 3)
    code, out, err = run("oracle-compare", "--type", "A1", "-n", "3",
                         "--point", path, flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("exc", [ValueError, RuntimeError])
def test_library_error_is_one_line_exit_2(run, monkeypatch, exc):
    def refuse(rs, ip):
        raise exc(f"quantum products of {rs.type_label}{rs.rank}/P[{ip}] "
                  "are underdetermined\nat degree (1,)")
    monkeypatch.setattr(eigencone, "structure_table", refuse)
    code, out, err = run("tables", "--type", "B4", "--parabolic", "3")
    assert (code, out) == (2, "")
    assert err == ("error: quantum products of B4/P[3] are underdetermined "
                   "at degree (1,)\n")


@pytest.mark.parametrize("argv", [
    ["tables", "--type", "B2", "--format", "xml"],
    ["tables", "--type", "B2", "--parabolic", "x"],
    ["tables", "--parabolic", "1"],
    ["tables", "--type", "B2", "--parabolic", "1", "--bogus"],
    ["verify", "--type", "A1", "-n", "3", "--workers", "0"],
    ["verify", "--type", "A1", "-n", "3", "--workers", "-2"],
])
def test_bad_arguments_are_one_line_exit_2(run, argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_refuses_two_factors_before_any_table(run, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a structure table was loaded")
    monkeypatch.setattr(cli, "load_table", no_table)
    code, out, err = run("verify", "--type", "A1", "-n", "2")
    assert (code, out) == (2, "")
    assert err == "error: verify needs -n at least 3, got 2\n"


@pytest.mark.parametrize("argv, ignored", [
    (["tables", "--type", "B2", "--parabolic", "1"], ["--workers", "0"]),
    (["inequalities", "--type", "A1", "-n", "3"], ["--point", "pts.json"]),
    (["member", "--type", "A1", "-n", "3", "--point", "pts.json"],
     ["--parabolic", "1"]),
    (["verify", "--type", "A1", "-n", "3"], ["--seed", "1"]),
    (["oracle-compare", "--type", "A1", "-n", "3", "--point", "pts.json"],
     ["--workers", "2"]),
])
def test_options_a_command_does_not_read_exit_2(run, argv, ignored):
    # refused by the parser, before the point file is read
    code, out, err = run(*argv, *ignored)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {' '.join(ignored)}\n"


# a fresh process: this one has numpy loaded already
NUMPY_PROBE = textwrap.dedent("""
    import json, sys
    import multcone, multcone.cli
    points = sys.argv[1]
    codes = [multcone.cli.main(argv) for argv in (
        ["tables", "--type", "B2", "--parabolic", "1"],
        ["inequalities", "--type", "B2", "-n", "3"],
        ["member", "--type", "A1", "-n", "3", "--point", points],
        ["verify", "--type", "B2", "-n", "3"],
    )]
    before = "numpy" in sys.modules
    codes.append(multcone.cli.main(["oracle-compare", "--type", "A1", "-n",
                                    "3", "--point", points,
                                    "--restarts", "30"]))
    print(json.dumps([codes, before, "numpy" in sys.modules]))
""")


def test_numpy_is_loaded_only_by_oracle_compare(tmp_path):
    src = str(Path(multcone.__file__).parents[1])
    env = dict(os.environ, MULTCONE_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = points_file(tmp_path, [["1/2"], ["1/2"], ["1/2"]])
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, path], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 5
    assert not before, "a command other than oracle-compare loaded numpy"
    assert after


def test_public_names_resolve_to_their_home_modules():
    for name in multcone.__all__:
        obj = getattr(multcone, name)
        assert obj.__module__.startswith("multcone.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        multcone.no_such_name


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: multcone tables")


@pytest.mark.parametrize("t, order", [("E7", 2903040), ("E8", 696729600)])
def test_groups_above_the_bound_are_refused_before_enumeration(run, monkeypatch,
                                                               t, order):
    def no_products(a, b):
        raise AssertionError("a Weyl matrix product was computed")
    monkeypatch.setattr(weyl, "_matmul", no_products)
    code, out, err = run("tables", "--type", t, "--parabolic", "7", "--no-cache")
    assert (code, out) == (2, "")
    assert err == (f"error: the Weyl group of {t} has {order} elements, "
                   "above the bound 1000000\n")


@pytest.mark.parametrize("argv, order", [
    (["tables", "--type", "A300", "--parabolic", "1"], math.factorial(301)),
    (["inequalities", "--type", "A300", "-n", "3"], math.factorial(301)),
    (["verify", "--type", "D", "--rank", "123456789012", "-n", "3"],
     "more than 10^123456789012"),
])
def test_huge_ranks_are_refused_before_the_root_system(run, argv, order):
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    label = "A300" if "A300" in argv else "D123456789012"
    assert err == (f"error: the Weyl group of {label} has {order} elements, "
                   "above the bound 1000000\n")


# every command, real and unknown flags, junk values and huge ranks; the
# valid types and -n stay small and --workers never asks for a pool.  Each
# flag maps to (valid values, junk values); one value in four is junk.
ARGV_VALUES = {
    "--type": (["A1", "a2", "B2"],
               ["A", "A0", "E5", "X3", "", "A300", "C2000", "D123456789012",
                "G" + "9" * 30]),
    "--rank": (["2"], ["0", "-1", "400", "x"]),
    "--parabolic": (["1", "2"], ["0", "-1", "9", "x"]),
    "-n": (["2", "3"], ["0", "-1", "x"]),
    "--point": (["a1.json"], ["missing.json", "junk.json"]),
    "--seed": (["0"], ["-1", "x"]),
    "--restarts": (["1", "8"], ["0", "-3", "x"]),
    "--tol": (["1e-8"], ["0", "-1", "nan", "x"]),
    "--workers": (["1"], ["0", "-2", "x"]),
    "--format": (["text", "json"], ["xml"]),
    "--bogus": ([], ["1"]),
    "--no-cache": ([None], []),
    "--": ([], [None]),
    "stray": ([], [None]),
}
ARGV_READS = {
    "tables": ["--parabolic"], "inequalities": ["-n"],
    "member": ["-n", "--point"], "verify": ["-n", "--workers"],
    "oracle-compare": ["-n", "--point", "--seed", "--restarts", "--tol"],
    "bogus": [],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_READS)))
    often = st.sampled_from([True, True, True, False])
    # the command's own flags, each most of the time, then up to two more
    flags = [f for f in ["--type"] + ARGV_READS[command] if draw(often)]
    flags += draw(st.lists(st.sampled_from(sorted(ARGV_VALUES)), max_size=2))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        valid, junk = ARGV_VALUES[flag]
        value = draw(st.sampled_from((valid if draw(often) else junk)
                                     or valid or junk))
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    (path / "junk.json").write_text("{not json")
    (path / "a1.json").write_text(json.dumps({"points": [["1/4"]] * 3}))
    return path


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_random_argv_never_crashes(run, argv_files, argv):
    argv = [str(argv_files / a) if a.endswith(".json") else a for a in argv]
    code, _, err = run(*argv)
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
