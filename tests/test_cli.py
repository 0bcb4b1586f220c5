import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from hilbfock import adhm
from hilbfock.adhm import (MatrixTriple, from_monomial_ideal, trace_invariant,
                           write_triple)
from hilbfock.cli import main, parse_surface_file
from hilbfock.linalg import GaussianRational, matrix, scalar_from_str
from hilbfock.partitions import Partition


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_goettsche_golden(capsys):
    code, out, err = run_cli(["goettsche", "--surface", "p2", "--order", "2"],
                             capsys)
    assert code == 0
    assert out == ("n\tpoincare\n"
                   "0\t1\n"
                   "1\t1 + t^2 + t^4\n"
                   "2\t1 + 2t^2 + 3t^4 + 2t^6 + t^8\n")


def test_euler_golden(capsys):
    code, out, err = run_cli(["euler", "--surface", "k3", "--order", "3"],
                             capsys)
    assert code == 0
    assert out == "n\teuler\n0\t1\n1\t24\n2\t324\n3\t3200\n"


def test_strata_golden(capsys):
    code, out, err = run_cli(["strata", "--n", "3", "--h", "2"], capsys)
    assert code == 0
    assert out == "partition\n(3)\n"


def test_punctual_golden(capsys):
    code, out, err = run_cli(["punctual", "--order", "4"], capsys)
    assert code == 0
    assert out == ("n\tpoincare\n"
                   "1\t1\n"
                   "2\t1 + t^2\n"
                   "3\t1 + t^2 + t^4\n"
                   "4\t1 + t^2 + 2t^4 + t^6\n")


def test_sym_and_fock_and_ktheory(capsys):
    code, out, _ = run_cli(["sym", "--surface", "p2", "--order", "2"], capsys)
    assert code == 0
    assert out.splitlines()[2] == "1\t1 + t^2 + t^4"
    code, out, _ = run_cli(["fock", "--surface", "abelian", "--order", "1"],
                           capsys)
    assert code == 0
    assert out.splitlines()[2] == "1\t1 + 4t + 6t^2 + 4t^3 + t^4"
    code, out, _ = run_cli(["ktheory", "--surface", "p2", "--order", "2"],
                           capsys)
    assert code == 0
    assert out == "n\tdim\n0\t1\n1\t3\n2\t9\n"


def test_hodge_subcommand(capsys):
    code, out, _ = run_cli(["hodge", "--surface", "p2", "--order", "2"],
                           capsys)
    assert code == 0
    assert out.splitlines()[3] == "2\t1 + 2xy + 3x^2y^2 + 2x^3y^3 + x^4y^4"
    code, _, err = run_cli(["hodge", "--surface", "delta", "--order", "2"],
                           capsys)
    assert code == 2
    assert "hodge" in err


def test_adhm_subcommand(capsys):
    code, out, _ = run_cli(["adhm", "--mu", "2,1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "size\t3" in lines
    assert "commuting\tTrue" in lines
    assert "stable\tTrue" in lines
    assert "support\t3*(0,0)" in lines
    assert "in_bidisk\tTrue" in lines
    assert "trace[1,1]\t0" in lines
    code, _, err = run_cli(["adhm"], capsys)
    assert code == 2


def test_adhm_triple_file(tmp_path, capsys):
    path = tmp_path / "triple.txt"
    path.write_text("2\n1 0\n0 2\n3 0\n0 4\n1 1\n")
    code, out, _ = run_cli(["adhm", "--triple", str(path)], capsys)
    assert code == 0
    assert "support\t1*(1,3) + 1*(2,4)" in out.splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 0\n")
    code, _, err = run_cli(["adhm", "--triple", str(bad)], capsys)
    assert code == 2
    assert "--triple" in err


@pytest.mark.parametrize("text", ["1\n1/0\n0\n1\n", "1\n0\n1/0i\n1\n",
                                  "-1\n1\n"],
                         ids=["zero_denominator", "zero_imaginary_denominator",
                              "negative_size"])
def test_adhm_malformed_triple_exits_2(text, tmp_path, capsys):
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    code, out, err = run_cli(["adhm", "--triple", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--triple" in err


def test_adhm_trace_rows_match_trace_invariant(tmp_path, capsys):
    def check(argv, tr):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()
                if line.startswith("trace[")]
        want = [("trace[%d,%d]" % (k, l), trace_invariant(tr, k, l))
                for k in range(tr.n + 1) for l in range(tr.n + 1 - k)]
        assert [key for key, _ in rows] == [key for key, _ in want]
        assert [scalar_from_str(val) for _, val in rows] == \
            [val for _, val in want]

    for mu in ("1", "2,1", "3,3,1", "4,2"):
        tr = from_monomial_ideal(Partition(
            sorted((int(x) for x in mu.split(",")), reverse=True)))
        check(["adhm", "--mu", mu], tr)
    i = GaussianRational(0, 1)
    tr = MatrixTriple([[Fraction(1, 2), 0, 0], [0, i, 0], [0, 0, 0]],
                      [[3, 0, 0], [0, 0, 0], [0, 0, Fraction(1, 3)]],
                      [1, 1, 1]).conjugate_by(matrix([[1, 1, 0], [0, 1, i],
                                                      [1, 0, 1]]))
    path = tmp_path / "conjugated.txt"
    path.write_text(write_triple(tr))
    check(["adhm", "--triple", str(path)], tr)


def test_adhm_root_search_triple(tmp_path, capsys):
    path = tmp_path / "point.txt"
    path.write_text("1\n720720\n0\n1\n")
    code, out, _ = run_cli(["adhm", "--triple", str(path)], capsys)
    assert code == 0
    assert out == ("key\tvalue\nsize\t1\ncommuting\tTrue\n"
                   "stable\tTrue\nsupport\t1*(720720,0)\n"
                   "in_bidisk\tFalse\ntrace[0,0]\t1\ntrace[0,1]\t0\n"
                   "trace[1,0]\t720720\n")


def test_adhm_empty_partition_exits_2(capsys):
    code, out, err = run_cli(["adhm", "--mu", ","], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--mu" in err


def test_adhm_identity_failure_exits_1(monkeypatch, capsys):
    real_trace_table = adhm.trace_table

    def corrupted(tr, max_total):
        table = real_trace_table(tr, max_total)
        table[(0, 0)] = table[(0, 0)] + 1
        return table

    monkeypatch.setattr(adhm, "trace_table", corrupted)
    code, out, err = run_cli(["adhm", "--mu", "2,1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: a verified identity failed")
    assert err.count("\n") == 1


def test_commutators_subcommand(capsys):
    code, out, _ = run_cli(["commutators", "--surface", "abelian",
                            "--trials", "10", "--seed", "1"], capsys)
    assert code == 0
    assert "supercommuting\tpass" in out


@pytest.mark.parametrize("args", (
    ["sym", "--surface", "p2", "--order", "-1"],
    ["punctual", "--order", "-1"],
    ["euler", "--surface", "k3", "--order", "-1"],
    ["hodge", "--surface", "p2", "--order", "-1"],
    ["ktheory", "--surface", "k3", "--order", "-1"],
    ["goettsche", "--surface", "p2", "--order", "-1"],
    ["fock", "--surface", "p2", "--order", "-1"],
    ["selfcheck", "--order", "0"],
    ["commutators", "--surface", "p2", "--trials", "0"],
    ["commutators", "--surface", "p2", "--trials", "-5"],
    ["strata", "--n", "0", "--h", "0"],
    ["strata", "--n", "3", "--h", "-1"],
), ids=" ".join)
def test_count_below_least_value_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")
    assert err.count("\n") == 1


def test_output_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.tsv"
    f2 = tmp_path / "b.tsv"
    for f in (f1, f2):
        code, _, _ = run_cli(["goettsche", "--surface", "abelian", "--order",
                              "4", "--output", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_unknown_surface_exits_2(capsys):
    code, _, err = run_cli(["goettsche", "--surface", "nosuch", "--order",
                            "2"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_surface_config_file(tmp_path, capsys):
    cfg = tmp_path / "quadric.surface"
    cfg.write_text("# the quadric\n"
                   "name=quadric\n"
                   "betti=1,0,2,0,1\n"
                   "euler=4\n"
                   "hodge=0,0,1\n"
                   "hodge=1,1,2\n"
                   "hodge=2,2,1\n")
    model = parse_surface_file(str(cfg))
    assert model.betti == (1, 0, 2, 0, 1)
    assert model.euler == 4
    code, out, _ = run_cli(["euler", "--surface", str(cfg), "--order", "2"],
                           capsys)
    assert code == 0
    assert out.splitlines()[-1] == "2\t14"


def test_surface_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.surface"
    bad.write_text("betti=1,0\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "betti" in err

    bad.write_text("frob=1\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "frob" in err

    bad.write_text("betti=1,0,2,0,1\neuler=3\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "euler" in err

    bad.write_text("betti=2,0,1,0,1\n")     # pairing block 0 not square
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "square" in err

    bad.write_text("betti=1,0,1,0,1\nhodge=1,2\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "hodge" in err


def test_selfcheck_failure_exits_1(monkeypatch, capsys):
    def fake_run_all(order, seed=0):
        return [("fake_identity", False, "lhs 1 vs rhs 2")]

    monkeypatch.setattr("hilbfock.selfcheck.run_all", fake_run_all)
    code, out, err = run_cli(["selfcheck", "--order", "2"], capsys)
    assert code == 1
    assert "fake_identity\tFAIL" in out
    assert "lhs 1 vs rhs 2" in err


def test_selfcheck_small(capsys):
    code, out, _ = run_cli(["selfcheck", "--order", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity\tstatus\tdetail"
    assert len(lines) >= 10
    assert all("\tpass\t" in line for line in lines[1:])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock.cli", "strata", "--n", "4", "--h",
         "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "partition\n(4)\n(3,1)\n(2,2)\n"


def test_adhm_request_multiplies_a_and_b_once_each_way(monkeypatch, capsys):
    # the commutation test runs once per triple, not once per caller
    tr = from_monomial_ideal(Partition((3, 3, 1)))
    real_mat_mul = adhm.mat_mul
    products = []

    def counting(x, y):
        if (x, y) in ((tr.a, tr.b), (tr.b, tr.a)):
            products.append((x, y))
        return real_mat_mul(x, y)

    monkeypatch.setattr(adhm, "mat_mul", counting)
    code, out, _ = run_cli(["adhm", "--mu", "3,3,1"], capsys)
    assert code == 0
    assert "commuting\tTrue" in out.splitlines()
    assert len(products) == 2


def test_internal_error_exits_3_with_a_traceback(monkeypatch, capsys):
    from hilbfock import goettsche

    def broken(e, order):
        raise TypeError("broken layer")

    monkeypatch.setattr(goettsche, "hilbert_euler_table", broken)
    code, out, err = run_cli(["euler", "--surface", "k3", "--order", "3"],
                             capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback")
    assert "TypeError: broken layer" in err


# sha256 of each --help text at COLUMNS=80; the option order is part of it
HELP_DIGESTS = {
    "": "812dfbbc5fbd6f30c95ebbfa57b4b3574f44bb67d73d7192900ca7acd235f67e",
    "goettsche":
        "725ba92ec031dba2f993ea63a8ba05f3348193b9e5f22e93f5e7be09bf377867",
    "sym": "30142ae9c7155f7d5e2159222a9e55480a23b15416a4ff29e1c8da07cccae9a9",
    "punctual":
        "759ced0f9400449a15126b047f24c4055260b1715b26c1f7dbb7d344a027f03f",
    "euler":
        "a490fabe09b30bcdbef72aca2f52ecf692568d8079d6d433df8b1af3de31e9e7",
    "hodge":
        "33898428c3d7cd0cc5332f5c68c25cd366c2ee0131aca41a24dc6f186d3c3ecc",
    "fock": "e70e1599e4a71803f72dfb8339f22a1ea284e2a54653bf95b35bfbfcb75a047d",
    "commutators":
        "087b661d92496a628c57edbcabef151f34cbeb504153fc0afc3ec3cfae85d9f4",
    "strata":
        "eeb36c513afaa7c1e1f5e5b6a5fb261f9e83f3a51257f096f04fd4899797a8fa",
    "adhm": "7f8afdc3f792446895ccbd6d79d80b881ed38634953bba27dec60b9978e935b8",
    "ktheory":
        "5285449cd61864b0d4bf807bc949b9075490ba1af8a7345267e39057bfd210dd",
    "selfcheck":
        "e20f68095b2f148ba3a5a5a336867e825f46396c848c122e97c193d907607360",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS),
                         ids=lambda c: c or "top")
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
