"""
The package loads its modules on demand: top-level names resolve on first
access, and a CLI request imports only the layers its subcommand uses.
Integer tables and monomial triples load no rational arithmetic
(fractions), which is imported only where a rational can appear, and a
monomial triple loads neither the root search nor the matrix wrappers.  The
integer tables and the punctual polynomials load neither series nor the
strata route, and only help and usage errors load argparse and its reader,
usage.  Import sets are read in fresh interpreters, so earlier tests
cannot leak modules into them.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbfock

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hilbfock.__file__)))

# the top-level names the package exported when it imported every module
EXPORTED = """
ABELIAN Annihilate Central CoeffPoly Create DELTA FactorFamily FockMonomial
FockState GaussianRational IdentityFailed IndexOutOfRange K3 MIXED
MatrixTriple MismatchedWeight MissingHodgeData ModeNonPositive NotCommuting
NotInBidisk OrderMismatch P1XP1 P2 PRESETS Partition PartitionTuple QTSeries
SpectrumNotSplit StalkTable SupportCycle SurfaceModel UnknownClass
UnknownVariable WrongModel ZeroScalar commutator count_with_length degree_of
enumerate_monomials equivariant_k_dim from_monomial_ideal general_binomial
global_degeneration_check goettsche_families graded_character hilbert_euler
hilbert_hodge hilbert_poincare_from_strata hilbert_poincare_series hodge_sym
in_bidisk is_commuting is_stable level_dim local_fiber_check
multiplicity_factorial orbifold_euler partitions_of product_expand
punctual_poincare random_state read_triple refines retract splittings
splittings_merging_to splittings_with_drop stalk_table stratum_class
stratum_poincare support_cycle support_strata sym_poincare
sym_poincare_product sym_poincare_table sym_total_dim torus_scale
trace_invariant trace_table write_triple
""".split()

HOME = {
    "partitions": "MismatchedWeight Partition refines splittings_with_drop",
    "poly": "CoeffPoly UnknownVariable",
    "series": "CoeffPoly QTSeries product_expand",
    "surfaces": "K3 PRESETS SurfaceModel",
    "counts": "hilbert_euler punctual_poincare sym_total_dim",
    "goettsche": "sym_poincare_table sym_total_dim",
    "product": "goettsche_families hilbert_hodge",
    "heisenberg": "MIXED Create graded_character",
    "linalg": "GaussianRational IdentityFailed SpectrumNotSplit",
    "roots": "GaussianRational IdentityFailed SpectrumNotSplit",
    "matrices": "",  # exports no top-level name and imports none
    "surface_file": "SurfaceModel",
    "adhm": "IdentityFailed SupportCycle trace_table",
    "stratification": "StalkTable support_strata",
    "usage": "",  # exports no top-level name and imports none
}

ALL_LAYERS = {"partitions", "poly", "series", "surfaces", "surface_file",
              "counts", "goettsche", "product", "tables", "heisenberg",
              "linalg", "roots", "matrices", "adhm", "stratification",
              "selfcheck", "usage"}

# the modules every request loads: the package, its base and the CLI
ALWAYS = {"__init__", "__main__", "_base", "cli"}


def test_every_module_is_a_layer():
    # so a module split off later cannot miss the layer checks below
    modules = {path.stem for path in Path(hilbfock.__file__).parent.glob(
        "*.py")}
    assert modules - ALWAYS == ALL_LAYERS

# a commuting triple with the eigenvalues 1 and 2 of A, and a 1/2 entry:
# its characteristic polynomials have nonzero roots, so it reaches the
# root search
TRIPLE = "2\n1 0\n0 2\n0 0\n0 1/2\n1 1\n"


def fresh_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(argv):
    """The modules a fresh interpreter holds after one request."""
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from hilbfock import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(%r)\n"
        "assert code == 0, code\n"
        "print(' '.join(sys.modules))\n" % (argv,))
    return set(out.split())


def loaded_after(argv):
    """The hilbfock modules a fresh interpreter holds after one request."""
    return {m[len("hilbfock."):] for m in modules_after(argv)
            if m.startswith("hilbfock.")}


@pytest.mark.parametrize("argv, needed, unneeded", [
    (["adhm", "--mu", "2,1"], {"linalg", "adhm"},
     {"partitions", "series", "surfaces", "goettsche", "product", "tables",
      "heisenberg", "stratification", "selfcheck", "roots", "matrices"}),
    # Goettsche's product route loads no strata route, and the reverse
    (["hodge", "--surface", "p2", "--order", "2"],
     {"product", "tables", "series"},
     {"goettsche", "linalg", "adhm", "heisenberg", "stratification",
      "selfcheck"}),
    (["strata", "--n", "4", "--h", "2"], {"stratification", "partitions"},
     {"linalg", "adhm", "heisenberg", "selfcheck", "goettsche", "product",
      "tables", "series"}),
    (["fock", "--surface", "delta", "--order", "3"], {"heisenberg", "series"},
     {"linalg", "adhm", "goettsche", "product", "tables", "stratification",
      "selfcheck", "partitions"}),
    # the relation battery lives in selfcheck but needs only the Fock layer
    (["commutators", "--surface", "abelian", "--trials", "3"],
     {"heisenberg", "series", "partitions", "selfcheck"},
     {"linalg", "adhm", "goettsche", "product", "tables", "stratification"}),
    # the positive control of the --mu case: only a nonzero eigenvalue
    # loads the root search, and no request loads the matrix wrappers
    (["adhm", "--triple", "{triple}"], {"linalg", "roots", "adhm"},
     {"partitions", "series", "surfaces", "goettsche", "product", "tables",
      "heisenberg", "stratification", "selfcheck", "matrices"}),
    (["goettsche", "--surface", "k3", "--order", "2"],
     {"product", "tables", "series"},
     {"goettsche", "linalg", "adhm", "heisenberg", "stratification",
      "selfcheck"}),
    (["sym", "--surface", "p2", "--order", "2"],
     {"goettsche", "counts", "tables", "series", "poly"},
     {"product", "linalg", "adhm", "heisenberg", "stratification",
      "selfcheck"}),
    # the integer tables are convolutions: no series, no strata route
    (["euler", "--surface", "k3", "--order", "4"], {"counts", "tables"},
     {"goettsche", "series", "poly", "product", "partitions", "linalg",
      "adhm", "heisenberg", "stratification", "selfcheck"}),
    (["ktheory", "--surface", "abelian", "--order", "4"],
     {"counts", "tables"},
     {"goettsche", "series", "poly", "product", "partitions", "linalg",
      "adhm", "heisenberg", "stratification", "selfcheck"}),
    # counted by length: polynomials, but no series and no strata route
    (["punctual", "--order", "4"], {"counts", "tables", "poly"},
     {"goettsche", "series", "product", "partitions", "surfaces", "linalg",
      "adhm", "heisenberg", "stratification", "selfcheck"}),
])
def test_request_loads_only_its_layers(argv, needed, unneeded, tmp_path):
    triple = tmp_path / "triple.txt"
    triple.write_text(TRIPLE)
    argv = [str(triple) if arg == "{triple}" else arg for arg in argv]
    loaded = loaded_after(argv) & ALL_LAYERS
    assert needed <= loaded
    assert not loaded & unneeded


def lines_loaded(argv):
    """
    {module: source lines} of the hilbfock modules a fresh interpreter
    holds after one request, or after importing the CLI for argv None.
    """
    request = "" if argv is None else (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(%r)\n"
        "assert code == 0, code\n" % (argv,))
    out = fresh_python(
        "import sys\nfrom hilbfock import cli\n" + request +
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('hilbfock'):\n"
        "        with open(module.__file__) as fh:\n"
        "            print(name, len(fh.readlines()))\n")
    return {name: int(n) for name, n in map(str.split, out.splitlines())}


# the most hilbfock source lines each request form may compile: a fresh
# request without a bytecode cache compiles every module it loads in full,
# so a layer that loads for nothing costs its whole length
COMPILE_BUDGETS = [
    (["goettsche", "--surface", "k3", "--order", "4"], 1205),
    (["hodge", "--surface", "p2", "--order", "4"], 1205),
    (["euler", "--surface", "p2", "--order", "4"], 695),
    (["ktheory", "--surface", "p1xp1", "--order", "4"], 695),
    (["sym", "--surface", "abelian", "--order", "4"], 1450),
    (["punctual", "--order", "4"], 715),
    (["fock", "--surface", "abelian", "--order", "4"], 1535),
    (["strata", "--n", "4", "--h", "2"], 705),
    (["adhm", "--mu", "2,1"], 1145),
    (["adhm", "--triple", "{triple}"], 1310),
    (None, 350),
]


@pytest.mark.parametrize("argv, budget", COMPILE_BUDGETS, ids=[
    " ".join(argv) if argv else "import hilbfock.cli"
    for argv, _ in COMPILE_BUDGETS])
def test_each_request_compiles_within_its_budget(argv, budget, tmp_path):
    triple = tmp_path / "triple.txt"
    triple.write_text(TRIPLE)
    if argv is not None:
        argv = [str(triple) if arg == "{triple}" else arg for arg in argv]
    lines = lines_loaded(argv)
    assert "hilbfock.cli" in lines  # the count reads the modules it loaded
    assert sum(lines.values()) <= budget, lines


def test_importing_the_cli_loads_no_layer_beyond_surfaces():
    out = fresh_python(
        "import sys\nimport hilbfock.cli\n"
        "print(' '.join(m for m in sys.modules if m.startswith('hilbfock')))")
    assert set(out.split()) == {"hilbfock", "hilbfock._base", "hilbfock.cli"}


# the rational arithmetic stack: fractions imports decimal and numbers
RATIONAL = {"fractions", "decimal", "numbers"}


def test_importing_the_cli_loads_no_rational_arithmetic():
    out = fresh_python("import sys\nimport hilbfock.cli\n"
                       "print(' '.join(sys.modules))")
    assert not set(out.split()) & RATIONAL


TABLE_REQUESTS = [
    ["goettsche", "--surface", "k3", "--order", "4"],
    ["sym", "--surface", "abelian", "--order", "4"],
    ["punctual", "--order", "4"],
    ["euler", "--surface", "p2", "--order", "4"],
    ["hodge", "--surface", "p2", "--order", "4"],
    ["hodge", "--surface", "k3", "--order", "4"],
    ["fock", "--surface", "abelian", "--order", "4"],
    ["ktheory", "--surface", "p1xp1", "--order", "4"],
    ["strata", "--n", "4", "--h", "2"],
]


# the monomial triples of the benchmark's adhm requests
MONOMIAL_REQUESTS = [["adhm", "--mu", mu] for mu in (
    "1", "2", "1,1", "2,1", "1,1,1", "3", "2,2", "3,1", "2,1,1", "3,2",
    "2,2,1", "3,2,1", "4,2", "3,3,1", "3,3,3")]


@pytest.mark.parametrize("argv", TABLE_REQUESTS + MONOMIAL_REQUESTS,
                         ids=" ".join)
def test_integer_tables_load_no_rational_arithmetic(argv):
    assert not modules_after(argv) & RATIONAL


@pytest.mark.parametrize("argv", MONOMIAL_REQUESTS, ids=" ".join)
def test_a_monomial_triple_loads_no_root_search_and_no_matrix_wrappers(argv):
    # each characteristic polynomial is z^n: all its roots are at zero
    loaded = loaded_after(argv)
    assert {"linalg", "adhm"} <= loaded
    assert not loaded & {"roots", "matrices"}


@pytest.mark.parametrize("argv", TABLE_REQUESTS, ids=" ".join)
def test_a_preset_request_loads_no_surface_file_reader(argv):
    assert "surface_file" not in loaded_after(argv)


def test_a_surface_file_loads_its_reader(tmp_path):
    # the positive control: the check above can fail
    cfg = tmp_path / "surface.cfg"
    cfg.write_text("betti=1,0,1,0,1\n")
    argv = ["euler", "--surface", str(cfg), "--order", "2"]
    assert "surface_file" in loaded_after(argv)


@pytest.mark.parametrize("argv", [
    ["adhm", "--triple", "{triple}"],
    ["commutators", "--surface", "p2", "--trials", "2"],
], ids=" ".join)
def test_rational_requests_load_fractions(argv, tmp_path):
    # the positive control: the checks above can fail; the triple has a
    # 1/2 entry
    triple = tmp_path / "triple.txt"
    triple.write_text(TRIPLE)
    argv = [str(triple) if arg == "{triple}" else arg for arg in argv]
    assert "fractions" in modules_after(argv)


def test_exact_keeps_its_rules_with_fractions_loaded_on_demand():
    out = fresh_python(
        "import sys\n"
        "from hilbfock._base import exact\n"
        "from hilbfock.heisenberg import FockMonomial, FockState\n"
        "from hilbfock.series import CoeffPoly\n"
        "one, mono = CoeffPoly.one(), FockMonomial([(1, 0)])\n"
        "def rejects(f, value):\n"
        "    try:\n"
        "        f(value)\n"
        "    except TypeError:\n"
        "        return True\n"
        "    return False\n"
        "print(rejects(exact, 0.5), rejects(exact, '1'),\n"
        "      rejects(lambda c: FockState({mono: c}), 0.5),\n"
        "      exact(True) == 1 and type(exact(True)) is int,\n"
        "      one == 1, one != 1.0, 'fractions' in sys.modules)\n"
        "from fractions import Fraction\n"
        "two, half = exact(Fraction(4, 2)), exact(Fraction(1, 2))\n"
        "print(type(two) is int and two == 2,\n"
        "      type(half) is Fraction and half == Fraction(1, 2),\n"
        "      rejects(exact, 0.5),\n"
        "      FockState({mono: Fraction(3, 3)}) == FockState({mono: 1}),\n"
        "      one == 1, one == Fraction(1), one != 1.0,\n"
        "      CoeffPoly({(0,): Fraction(1, 2)}) * 2 == one)\n")
    before, after = (line.split() for line in out.splitlines())
    assert before == ["True"] * 6 + ["False"]
    assert after == ["True"] * 8


# the argument parser: argparse imports gettext (and with it locale), and
# the CLI's reader of it is the module usage
PARSER = {"argparse", "gettext", "hilbfock.usage"}


@pytest.mark.parametrize("argv", TABLE_REQUESTS + [
    ["adhm", "--mu", "2,1"], ["adhm", "--triple", "{triple}"],
], ids=" ".join)
def test_a_well_formed_request_loads_no_argparse(argv, tmp_path):
    triple = tmp_path / "triple.txt"
    triple.write_text(TRIPLE)
    argv = [str(triple) if arg == "{triple}" else arg for arg in argv]
    assert not modules_after(argv) & PARSER


def test_only_help_and_usage_errors_load_argparse():
    for argv in (["--help"], ["hodge", "--help"]):
        out = fresh_python(
            "import contextlib, io, sys\n"
            "import hilbfock.cli\n"
            "print(' '.join(sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        hilbfock.cli.main(%r)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(' '.join(sys.modules))\n" % (argv,))
        imported, helped = (set(line.split()) for line in out.splitlines())
        assert not imported & PARSER
        assert PARSER <= helped  # the positive control: the check can fail


@pytest.mark.parametrize("argv", [["--help"], ["hodge", "--help"]])
def test_help_exits_0_and_lists_presets(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hilbfock"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "hodge":
        for preset in ("abelian", "c2", "delta", "k3", "p1xp1", "p2"):
            assert preset in proc.stdout
    else:
        assert "hodge" in proc.stdout and "adhm" in proc.stdout


def test_all_is_the_exported_names():
    assert sorted(hilbfock.__all__) == sorted(EXPORTED)
    assert len(hilbfock.__all__) == len(set(hilbfock.__all__)) == 80


def test_names_are_the_objects_of_their_home_modules():
    for module, names in HOME.items():
        mod = importlib.import_module("hilbfock." + module)
        for name in names.split():
            assert getattr(hilbfock, name) is getattr(mod, name), name
    for name in EXPORTED:  # functions and classes name their home module
        obj = getattr(hilbfock, name)
        home = getattr(obj, "__module__", "")
        if home.startswith("hilbfock."):
            assert getattr(sys.modules[home], name) is obj, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from hilbfock import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert not set(namespace) - set(EXPORTED) - {"__builtins__"}
    assert set(EXPORTED) <= set(dir(hilbfock))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        hilbfock.no_such_name
    with pytest.raises(ImportError):
        exec("from hilbfock import no_such_name", {})


def test_identity_failed_is_one_class_and_version_unchanged():
    import hilbfock.adhm
    import hilbfock.linalg
    assert hilbfock.IdentityFailed is hilbfock.linalg.IdentityFailed
    assert hilbfock.IdentityFailed is hilbfock.adhm.IdentityFailed
    assert hilbfock.__version__ == "0.1.0"


def test_submodules_load_on_attribute_access():
    out = fresh_python(
        "import hilbfock\n"
        "print(hilbfock.linalg.IdentityFailed is hilbfock.IdentityFailed,\n"
        "      hilbfock.stratification.__name__)")
    assert out.split() == ["True", "hilbfock.stratification"]
