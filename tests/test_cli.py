import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadsym import cli
from quadsym.cli import default_catalog, load_catalog, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_default_catalog_contents():
    cat = default_catalog()
    assert len(cat) == 56
    assert cat[0] == "cyclic:1"
    assert "q8" in cat
    assert "sl2:16" in cat
    assert "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]" in cat
    assert cat[-1] == "cyclic:3*dihedral:4"


def test_load_catalog_skips_comments():
    text = "# header\n\ncyclic:3\n  sym:4  \n# tail\n"
    assert load_catalog(text) == ["cyclic:3", "sym:4"]


def test_disc_json(capsys):
    code, out, _ = run(capsys, "disc", "alt:5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 60
    assert obj["d"] == "18000"
    assert obj["d_factored"] == {"sign": 1, "factors": [[2, 4], [3, 2], [5, 3]]}
    assert obj["d_K"] == 5
    assert obj["conductor"] == 60


def test_symbol_single_and_table(capsys):
    code, out, _ = run(capsys, "symbol", "cyclic:5", "--table", "--json")
    assert code == 0
    assert json.loads(out)["values"] == [0, 1, -1, -1, 1]
    code, out, _ = run(capsys, "symbol", "cyclic:5", "--a", "3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", "sym:3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 3 and obj["r1"] == 3
    assert [c["size"] for c in obj["classes"]] == [1, 3, 2]
    assert all(c["real"] for c in obj["classes"])


def test_verify_single_group(capsys):
    code, out, _ = run(capsys, "verify", "q8", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["theorem_ok"] is True
    assert obj["d"] == "4096"
    assert obj["d_K"] == 1
    assert [c["ok"] for c in obj["checks"]] == [True] * len(obj["checks"])


def test_verify_json_is_deterministic(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "verify", "sym:4", "--json", "--seed", "5")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_verify_catalog_file(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("cyclic:6\nq8\n")
    code, out, _ = run(capsys, "verify", "--catalog", str(path), "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["label"] == "cyclic:6"
    assert json.loads(lines[1])["label"] == "q8"


def test_verify_catalog_keeps_going_past_a_bad_line(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("cyclic:3\nwat:3\ncyclic:5\n")
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["cyclic:3", "cyclic:5"]
    assert lines[2] == "3 groups, 2 ok, 1 failed"
    assert err == "error: line 2: wat:3: unknown family 'wat' at position 0\n"
    code, out, _ = run(capsys, "verify", "--catalog", str(path), "--json")
    assert code == 2
    assert [json.loads(line)["label"] for line in out.splitlines()] == ["cyclic:3", "cyclic:5"]


def test_chartab_json(capsys):
    code, out, _ = run(capsys, "chartab", "sym:3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["degrees"] == [1, 1, 2]
    assert obj["conductor"] == 6 and obj["prime"] == 7
    assert obj["rows"][0] == [[1, 0], [1, 0], [1, 0]]
    assert obj["det_squared"] == 36 and obj["ell"] == 1
    assert all(c["ok"] for c in obj["checks"])


def test_kronecker_and_jacobi(capsys):
    code, out, _ = run(capsys, "kronecker", "--", "-16", "3")
    assert code == 0 and out.strip() == "(-16 / 3) = -1"
    code, out, _ = run(capsys, "kronecker", "1", "0", "--json")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out, _ = run(capsys, "jacobi", "2", "15", "--json")
    assert code == 0 and json.loads(out)["value"] == 1


def test_sl2_formula(capsys):
    code, out, _ = run(capsys, "sl2-formula", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == "18000" and obj["d_K"] == 5 and obj["is_square"] is False
    code, out, _ = run(capsys, "sl2-formula", "3", "--json")
    assert json.loads(out)["is_square"] is True


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "verify", "wat:3")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "disc", "perm:[(1 100000000)]")
    assert code == 2 and "limit" in err
    code, _, err = run(capsys, "jacobi", "2", "8")
    assert code == 2 and "odd positive" in err
    code, _, err = run(capsys, "kronecker", "7", "5")
    assert code == 2 and "discriminant" in err
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "disc", "sym:7", "--max-order", "1000")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, "chartab", "cyclic:20")
    assert code == 3 and "class count" in err


def test_human_output_mentions_label(capsys):
    code, out, _ = run(capsys, "verify", "alt:5")
    assert code == 0
    assert "alt:5" in out and "[ok]" in out


def test_exit_code_on_failed_check(capsys, monkeypatch):
    import quadsym.cli as cli
    from quadsym.ntheory import factorize
    from quadsym.reciprocity import CheckResult, VerificationReport

    def fake_verify(G, S=None):
        return VerificationReport(
            label=G.label, n=G.n, m=1, r1=1, r2=0, exponent=G.exponent,
            d=factorize(5), d_K=5, conductor=1,
            checks=(CheckResult("synthetic", False, "forced failure"),),
        )

    monkeypatch.setattr(cli, "verify_group", fake_verify)
    code, out, _ = run(capsys, "verify", "cyclic:2")
    assert code == 1
    assert "FAILED synthetic: forced failure" in out


def test_classes_json_golden(capsys):
    # classes --json as recorded before products moved to element rows: scalar,
    # one-point, nested product and matrix encodings print unchanged
    golden = Path(__file__).with_name("classes_golden.jsonl").read_text().splitlines()
    assert len(golden) == 6
    for line in golden:
        code, out, _ = run(capsys, "classes", json.loads(line)["label"], "--json")
        assert code == 0
        assert out == line + "\n"


def test_verify_spec_with_catalog_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "cyclic:3", "--catalog", "/nonexistent")
    assert code == 2 and out == ""
    assert "cyclic:3" in err and "--catalog" in err and "/nonexistent" in err


@pytest.mark.parametrize(
    "argv, cap", [(["--max-order", "0"], 0), (["--max-order=-5"], -5), (["--max-order", " -5"], -5)]
)
def test_max_order_below_one_is_a_usage_error(argv, cap, capsys, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("built a group under a cap below 1")

    monkeypatch.setattr(cli, "make_group", refuse)
    code, out, err = run(capsys, "verify", "cyclic:3", *argv)
    assert code == 2 and out == ""
    assert err == f"error: --max-order must be at least 1, got {cap}\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--max-order=5", "disc", "sym:3"], "--max-order"),
        (["--json", "--seed", "1", "classes", "q8"], "--json"),
        (["--seed", "2"], "--seed"),
    ],
)
def test_common_option_before_the_command_is_named(argv, name, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"quadsym: error: {name} goes after the command")


def test_help_wins_over_a_misplaced_option(capsys):
    assert run(capsys, "--json", "-h") == run(capsys, "-h")


def test_usage_golden(capsys, monkeypatch):
    # help and argparse's usage errors, byte for byte, as Python 3.11's argparse
    # prints them at COLUMNS=80
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(Path(__file__).with_name("cli_usage_golden.json").read_text())
    assert {tuple(g["argv"]) for g in golden} >= {("-h",)} | {(c, "-h") for c in cli._COMMANDS}
    for g in golden:
        assert run(capsys, *g["argv"]) == (g["code"], g["out"], g["err"]), g["argv"]


_PARSER = cli.build_parser()
_ARGS = {name: cli._COMMON + c.args for name, c in cli._COMMANDS.items()}
_FLAGS = sorted({arg.name for args in _ARGS.values() for arg in args if arg.name.startswith("-")})


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--json", "--seed", "0"],
        ["verify", "cyclic:5", "--json", "--seed", "1", "--max-order", "100"],
        ["verify", "--catalog", "cat.txt", "--json"],
        ["symbol", "--table", "cyclic:5"],
        ["symbol", "cyclic:5", "--a", "+3", "--json"],
        ["chartab", "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]", "--seed", "7"],
        ["kronecker", "5", "--json", "8"],
        ["sl2-formula", "3"],
    ],
)
def test_table_parser_takes_canonical_command_lines(argv):
    assert vars(cli._parse_table(argv)) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["verify", "-h"],
        ["verify", "--js"],
        ["verify", "--seed=3"],
        ["verify", "--seed", "-3"],
        ["verify", "--json", "--json"],
        ["verify", "--", "cyclic:5"],
        ["verify", "a", "b"],
        ["disc"],
        ["disc", "q8", "--catalog", "x"],
        ["jacobi", "x", "3"],
        ["kronecker", "-16", "3"],
        ["symbol", "q8"],
        ["symbol", "q8", "--a", "2", "--table"],
        ["--json", "verify"],
    ],
)
def test_table_parser_declines_the_rest(argv):
    assert cli._parse_table(argv) is None


def _spellings(flag):
    """A flag in full, abbreviated, and with ``=value``."""
    return [flag, *(flag[:k] for k in range(3, len(flag))), flag + "=3", flag + "=-3", flag + "="]


_VALUES = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(-30, -1).map(str),
    st.sampled_from(["sym:3", "cyclic:5", "q8", "", " 7", "+3", "1_0", "x"]),
)
_TOKENS = st.one_of(
    st.sampled_from([s for flag in _FLAGS for s in _spellings(flag)]),
    st.sampled_from(["-h", "--help", "--", "-", *cli._COMMANDS]),
    _VALUES,
    st.text(max_size=3),
)


@st.composite
def _argvs(draw):
    """A command with one value per positional, some of its options, and up
    to two tokens of any kind, in any order; or tokens without a command."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(_TOKENS, max_size=4))
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []
    for arg in _ARGS[name]:
        if not arg.name.startswith("-"):
            pieces.append([draw(_VALUES)])
        elif draw(st.booleans()):
            # one_of picks its branches evenly: mostly a value, sometimes any token
            value = [] if arg.kind is None else [draw(st.one_of(_VALUES, _VALUES, _TOKENS))]
            pieces.append([arg.name, *value])
    pieces += draw(st.lists(_TOKENS.map(lambda token: [token]), max_size=2))
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_table_parser_agrees_with_argparse(argv):
    got = cli._parse_table(argv)
    if got is not None:
        assert vars(got) == vars(_PARSER.parse_args(argv))


def test_well_formed_call_leaves_argparse_unloaded():
    src = Path(cli.__file__).parents[1]
    code = (
        "import sys; from quadsym import cli; cli.main(['verify','cyclic:5','--json']); "
        "assert not {'argparse','gettext','locale'} & set(sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "cyclic:5"


def test_commands_import_no_module_after_startup():
    # a module imported on first use is paid inside a command's time (numpy's
    # np.unique imports numpy.ma, 14 ms; numpy.random takes 12 ms): once
    # quadsym.cli is imported, verify over the catalog, chartab and the
    # symbol table import nothing more
    src = Path(cli.__file__).parents[1]
    code = (
        "import contextlib, io, sys; from quadsym import cli; before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in (['verify', '--json'], ['chartab', 'sym:7', '--json'],"
        " ['symbol', 'sl2:16', '--table', '--json'])]\n"
        "print(codes, sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"
