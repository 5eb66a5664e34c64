import json

import pytest

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
