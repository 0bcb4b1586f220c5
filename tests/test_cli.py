import argparse
import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from hilbfock import adhm
from hilbfock.adhm import (MatrixTriple, from_monomial_ideal, trace_invariant,
                           write_triple)
from hilbfock.cli import COMMANDS, _read_args, main
from hilbfock.linalg import GaussianRational, scalar_from_str
from hilbfock.matrices import matrix
from hilbfock.partitions import Partition
from hilbfock.surface_file import parse_surface_file
from hilbfock.usage import build_parser


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


@pytest.mark.parametrize("mu", [",", "2,,1", "2,1,", " ", "2,0,1", "-1"],
                         ids=["only_comma", "inner_empty", "trailing_empty",
                              "blank", "zero_part", "negative_part"])
def test_adhm_empty_partition_exits_2(capsys, mu):
    code, out, err = run_cli(["adhm", "--mu", mu], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "bad partition for --mu" in err


# a commuting triple whose support has a nonzero point, and one whose
# matrices do not commute: its report stops after the commuting row
REPORTED = {"commuting": "2\n1 0\n0 2\n0 0\n0 1/2\n1 1\n",
            "not_commuting": "2\n0 1\n0 0\n0 0\n1 0\n1 0\n"}


@pytest.mark.parametrize("kind", REPORTED)
def test_the_adhm_report_is_what_the_cli_prints(kind, tmp_path, capsys):
    path = tmp_path / "triple.txt"
    path.write_text(REPORTED[kind])
    rows = adhm.report(adhm.read_triple(REPORTED[kind]))
    code, out, _ = run_cli(["adhm", "--triple", str(path)], capsys)
    assert code == 0
    assert out == "".join("\t".join(map(str, row)) + "\n" for row in rows)
    assert rows[2] == ("commuting", kind == "commuting")
    # the commuting triple has 6 trace rows of total degree at most 2
    assert len(rows) == (3 if kind == "not_commuting" else 6 + 6)


@pytest.mark.parametrize("argv, message", [
    (["--mu", "x"], "bad partition for --mu: invalid literal for int() "
                    "with base 10: 'x'"),
    (["--mu", "1,,2"], "bad partition for --mu: invalid literal for int() "
                       "with base 10: ''"),
    ([], "give exactly one of --triple or --mu"),
    (["--mu", "2,1", "--triple", "{triple}"],
     "give exactly one of --triple or --mu"),
], ids=["letter", "empty_part", "neither", "both"])
def test_adhm_flag_errors_exit_2_with_one_line(argv, message, tmp_path,
                                                capsys):
    path = tmp_path / "triple.txt"
    path.write_text(REPORTED["commuting"])
    argv = [str(path) if arg == "{triple}" else arg for arg in argv]
    code, out, err = run_cli(["adhm"] + argv, capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


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


@pytest.mark.parametrize("args", [
    [command, *surface, "--order", "99999999999999999999"]
    for command, surface in (
        ("goettsche", ["--surface", "p2"]), ("sym", ["--surface", "p2"]),
        ("punctual", []), ("euler", ["--surface", "k3"]),
        ("hodge", ["--surface", "p2"]), ("fock", ["--surface", "p2"]),
        ("ktheory", ["--surface", "k3"]), ("selfcheck", []))] + [
    ["strata", "--h", "1", "--n", "99999999999999999999"],
    # rows 0..sys.maxsize are one more than a list holds
    ["goettsche", "--surface", "p2", "--order", str(sys.maxsize)],
], ids=" ".join)
def test_a_size_no_list_can_hold_exits_2(args):
    proc = subprocess.run([sys.executable, "-m", "hilbfock", *args],
                          capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: %s must be below %d, got %s\n" % (
        args[-2], sys.maxsize, args[-1])


@pytest.mark.parametrize("args", [
    ["sym", "--surface", "p2", "--order"], ["punctual", "--order"],
    ["euler", "--surface", "p2", "--order"],
    ["ktheory", "--surface", "k3", "--order"], ["strata", "--h", "1", "--n"],
], ids=" ".join)
def test_a_size_no_memory_can_hold_fails_at_once(args):
    # each of these once built its table a small allocation at a time, so
    # it grew for as long as memory lasted; the child alone gets 1 GiB
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock", *args, str(sys.maxsize - 1)],
        capture_output=True, text=True, timeout=5, preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory: %s is too large\n" % args[-1]


def limit_child_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("h, code, out, err", [
    (150, 2, "", "error: out of memory: --n is too large\n"),
    (193, 2, "", "error: out of memory: --n is too large\n"),
    (199, 0, "partition\n(200)\n", ""),
])
def test_strata_claims_only_the_rows_it_lists(h, code, out, err):
    # 200 has about 4e12 partitions, listed in full before the filter once,
    # until the child's 1 GiB ran out; those with at most 200 - h parts are
    # now counted and claimed first, and no other partition is listed.  At
    # h = 193 their 26,366,879 list slots (211 MB) fit, and the listing ran
    # 40 s before the rows filled the 1 GiB: each row's memory is claimed
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock", "strata", "--n", "200", "--h",
         str(h)], capture_output=True, text=True, timeout=5,
        preexec_fn=limit_child_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("mu, err", [
    ("2000000", "out of memory: --mu is too large"),
    ("100000000", "out of memory: --mu is too large"),
    (str(sys.maxsize - 1), "out of memory: --mu is too large"),
    ("99999999999999999999", "--mu must sum below %d, got 99999999999999999999"
     % sys.maxsize),
    ("%d,1" % (sys.maxsize - 1), "--mu must sum below %d, got %d"
     % (sys.maxsize, sys.maxsize)),
], ids=["2e6", "1e8", "maxsize-1", "1e20", "sum_maxsize"])
def test_a_partition_no_memory_can_hold_exits_2_at_once(mu, err):
    # the staircase was listed a cell at a time until memory ran out, which
    # took seconds under the child's 1 GiB and without a limit never ended;
    # then 2,000,000 cells fit a claim of the cells alone, and the index and
    # columns filled the 1 GiB over 6-8 s.  The whole triple is claimed now
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock", "adhm", "--mu", mu],
        capture_output=True, text=True, timeout=2,
        preexec_fn=limit_child_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: %s\n" % err


def test_a_staircase_whose_trace_rows_cannot_fit_exits_2_at_once():
    # 1,000,000 cells: the triple alone (784 MB) fit the child's 1 GiB, and
    # is_stable, quadratic on a one-row staircase, then ran past a 60 s
    # timeout.  Its 500,001,500,001 trace rows are claimed before the triple
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock", "adhm", "--mu", "1000000"],
        capture_output=True, text=True, timeout=2,
        preexec_fn=limit_child_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory: --mu is too large\n"


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

    # an explicit betti_c that is not dual: pairing block 0 not square
    bad.write_text("betti=2,0,1,0,1\nbetti_c=2,0,1,0,1\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "square" in err

    bad.write_text("betti=1,0,1,0,1\nhodge=1,2\n")
    code, _, err = run_cli(["euler", "--surface", str(bad), "--order", "1"],
                           capsys)
    assert code == 2
    assert "hodge" in err


@pytest.mark.parametrize("first, again, field", [
    ("name=a", "name=b", "'name'"),
    ("betti=1,0,1,0,1", "betti=1,0,2,0,1", "'betti'"),
    ("betti_c=1,0,1,0,1", "betti_c=1,0,2,0,1", "'betti_c'"),
    ("euler=3", "euler=3", "'euler'"),
    ("hodge=1,1,1", "hodge=1,1,1", "'hodge=1,1'"),
])
def test_repeated_surface_key_exits_2(tmp_path, capsys, first, again, field):
    cfg = tmp_path / "twice.surface"
    base = "" if field == "'betti'" else "betti=1,0,1,0,1\n"
    cfg.write_text("%s%s\n%s\n" % (base, first, again))
    line = cfg.read_text().count("\n")  # the repeat is the last line
    code, out, err = run_cli(["euler", "--surface", str(cfg), "--order",
                              "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: %s:%d: duplicate field %s\n" % (cfg, line, field)


def test_hodge_entry_above_degree_4_exits_2(tmp_path, capsys):
    cfg = tmp_path / "high.surface"
    cfg.write_text("betti=1,0,1,0,1\nhodge=0,0,1\nhodge=1,1,1\n"
                   "hodge=2,2,1\nhodge=3,3,5\n")
    for command in ("euler", "hodge"):
        code, out, err = run_cli([command, "--surface", str(cfg), "--order",
                                  "2"], capsys)
        assert (code, out) == (2, "")
        assert "bad hodge entry (3,3)" in err
        assert err.count("\n") == 1


def test_hodge_bidegree_above_2_exits_2(tmp_path, capsys):
    # every p + q <= 4 and every degree sums to its Betti number, but a
    # complex surface has h^(p,q) = 0 unless 0 <= p, q <= 2
    cfg = tmp_path / "skew.surface"
    cfg.write_text("name=skew\nbetti=1,0,0,0,3\nhodge=0,0,1\nhodge=4,0,1\n"
                   "hodge=0,4,1\nhodge=2,2,1\n")
    code, out, err = run_cli(["hodge", "--surface", str(cfg), "--order", "2"],
                             capsys)
    assert (code, out) == (2, "")
    assert "bad hodge entry" in err
    assert err.count("\n") == 1


def test_commutators_on_a_surface_without_classes_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.surface"
    cfg.write_text("name=empty\nbetti=0,0,0,0,0\n")
    code, out, err = run_cli(["commutators", "--surface", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: surface 'empty' has no classes (--surface)\n"


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
    a, b, _ = from_monomial_ideal(Partition((3, 3, 1))).cols
    real_mul_rows = adhm.mul_rows
    products = []

    def counting(x, y):
        if (x, y) in ((a, b), (b, a)):
            products.append((x, y))
        return real_mul_rows(x, y)

    monkeypatch.setattr(adhm, "mul_rows", counting)
    code, out, _ = run_cli(["adhm", "--mu", "3,3,1"], capsys)
    assert code == 0
    assert "commuting\tTrue" in out.splitlines()
    assert len(products) == 2


def test_running_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    from hilbfock import product

    def exhausted(model, order):
        raise MemoryError

    monkeypatch.setattr(product, "hilbert_poincare_series", exhausted)
    # an --order whose rows fit, so the table, not main's claim, runs out
    code, out, err = run_cli(["goettsche", "--surface", "k3", "--order",
                              "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: out of memory: --order is too large\n"


def test_a_table_request_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["euler", "--surface", "k3", "--order", "20"]
    # a well-formed request reads its own arguments and builds no parser
    assert run_cli(argv, capsys)[0] == 0 and built == []
    assert build_parser(argv).parse_args(argv).order == 20
    assert built == ["hilbfock", "hilbfock euler"]
    # --help, no argument and an unknown name list every subcommand
    for argv in (["--help"], [], ["bogus"]):
        built.clear()
        build_parser(argv)
        assert len(built) == 12


def test_internal_error_exits_3_with_a_traceback(monkeypatch, capsys):
    from hilbfock import counts

    def broken(e, order):
        raise TypeError("broken layer")

    monkeypatch.setattr(counts, "hilbert_euler_table", broken)
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


def request_forms():
    """Every subcommand with all its options in and out of declared order,
    and with its required options only."""
    value = {"--surface": "k3", "--output": "out.tsv", "--triple": "t.txt",
             "--mu": "2,1"}
    for name, (_, *options) in COMMANDS.items():
        pairs = [[flag, value.get(flag, "3")] for flag, _, _ in options]
        required = [pair for pair, (_, _, kw) in zip(pairs, options)
                    if kw.get("required")]
        for chosen in (pairs, pairs[::-1], required):
            yield [name] + [token for pair in chosen for token in pair]


# the form a request takes, read without argparse
READ = list(request_forms()) + [
    ["euler", "--order", "3", "--surface", "p2", "--order", "5"],
    ["strata", "--n", "4", "--h", "1", "--h", "2"],
    ["punctual", "--order", " 7 "],
    ["punctual", "--order", "+7"],
    ["adhm", "--mu", "2,1", "--triple", "t.txt"],
    ["hodge", "--surface", "", "--order", "0"],
]
# everything else goes to argparse: help, abbreviations, --option=value,
# negative and non-integer counts, unknown options, a missing value, a
# trailing token, a missing required option, no argument, an unknown name
DECLINED = [
    ["--help"], ["-h"], ["hodge", "--help"], ["hodge", "-h"],
    ["hodge", "--surface", "k3", "--order", "3", "-h"],
    ["hodge", "--surface", "k3", "--ord", "3"],
    ["hodge", "--surf", "k3", "--order", "3"],
    ["hodge", "--surface=k3", "--order=3"],
    ["hodge", "--surface", "k3", "--order=3"],
    ["euler", "--surface", "k3", "--order", "-1"],
    ["strata", "--n", "4", "--h", "-2"],
    ["euler", "--surface", "k3", "--order", "x"],
    ["euler", "--surface", "k3", "--order", "2.0"],
    ["euler", "--surface", "k3", "--order", "x", "--order", "3"],
    ["euler", "--surface", "k3", "--order", "3", "--bogus", "1"],
    ["euler", "--surface", "k3", "--order", "3", "--mu", "2,1"],
    ["euler", "--surface", "k3", "--order"],
    ["euler", "--surface", "--order", "3"],
    ["euler", "--surface", "k3", "--order", "3", "extra"],
    ["euler", "--surface", "k3", "--order", "3", "--"],
    ["euler", "--surface", "k3"], ["strata", "--n", "4"], ["selfcheck"],
    ["adhm", "--mu", "-1"], ["adhm", "--triple", "-"],
    [], ["bogus"], ["bogus", "--order", "3"], ["eul", "--order", "3"],
]


def argparse_reads(argv, capsys):
    """vars of parse_args, or None where argparse exits (help, errors)."""
    try:
        return vars(build_parser(argv).parse_args(argv))
    except SystemExit:
        capsys.readouterr()
        return None


@pytest.mark.parametrize("argv", READ, ids=" ".join)
def test_a_request_reads_what_argparse_reads(argv, capsys):
    args = _read_args(argv)
    assert args is not None
    assert vars(args) == argparse_reads(argv, capsys)


@pytest.mark.parametrize("argv", DECLINED, ids=lambda argv: " ".join(argv)
                         or "none")
def test_any_other_argv_is_left_to_argparse(argv, capsys):
    assert _read_args(argv) is None
    argparse_reads(argv, capsys)  # reads it or exits, and raises nothing else


def test_a_handler_rebound_after_import_is_the_one_read(monkeypatch):
    from hilbfock import cli

    def handler(args):
        return 0, []

    monkeypatch.setattr(cli, "cmd_punctual", handler)
    argv = ["punctual", "--order", "3"]
    assert _read_args(argv).handler is handler
    assert build_parser(argv).parse_args(argv).handler is handler
