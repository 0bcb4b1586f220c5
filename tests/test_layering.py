"""
The packed layout belongs to series alone: no other module turns a digit
width into a bit offset, imports digit_offset or takes a bits or width
parameter; callers give exponents, totals and a y-slope.  So does the
growth protocol: no other module sizes, re-spaces or unpacks packed digits
itself.  The split-row form of
the matrix kernels belongs to linalg alone: no other module imports or
reads a _-prefixed linalg name.  The raw factor-tuple keys of a FockState
belong to heisenberg alone: no other module reads the _terms field or
calls FockMonomial._make.  The two routes of Goettsche's formula, product
and goettsche (with counts, its convolution), never import each other, and
poly, the polynomial leaf, imports nothing but _base.  Every module-level cache is listed
here, so a new one cannot be added without this file knowing.
"""

import ast
from importlib import import_module
from pathlib import Path

import hilbfock

SRC = Path(hilbfock.__file__).parent


def names_outside_calls(node):
    """The names in an expression, except inside the calls it makes."""
    if isinstance(node, ast.Name):
        yield node.id
    elif not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from names_outside_calls(child)


def layout_arithmetic(tree):
    """(line, op) of every * or << with the name bits in an operand."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            operands = node.left, node.right
        elif isinstance(node, ast.AugAssign):
            operands = node.target, node.value
        else:
            continue
        if isinstance(node.op, (ast.Mult, ast.LShift)) and any(
                "bits" in names_outside_calls(x) for x in operands):
            out.add((node.lineno, type(node.op).__name__))
    return sorted(out)


def test_the_layout_detector_sees_each_kind_of_arithmetic():
    code = ("a = 1 << bits * k\n"
            "b = bits * (p * width + q)\n"
            "c <<= bits\n"
            "d = digit_offset((p, q), bits, width) * j\n"
            "e = c << digit_offset((2,), bits)\n"
            "f = bits + 8\n"
            "g = digit_bits(total) * 2\n")
    assert layout_arithmetic(ast.parse(code)) == [
        (1, "LShift"), (1, "Mult"), (2, "Mult"), (3, "LShift")]


def test_no_module_but_series_lays_out_packed_digits():
    found = {path.name: uses
             for path in sorted(SRC.glob("*.py")) if path.name != "series.py"
             if (uses := layout_arithmetic(ast.parse(path.read_text())))}
    assert found == {}


def layout_names(tree):
    """
    (line, name) of every import or read of digit_offset, and of every
    parameter named bits or width: the digit layout a caller would know.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update((node.lineno, alias.name) for alias in node.names
                       if alias.name == "digit_offset")
        elif isinstance(node, (ast.Name, ast.Attribute)) and getattr(
                node, "id", getattr(node, "attr", None)) == "digit_offset":
            out.add((node.lineno, "digit_offset"))
        elif isinstance(node, ast.arg) and node.arg in ("bits", "width"):
            out.add((node.lineno, node.arg))
    return sorted(out)


def test_the_layout_name_detector_sees_each_kind_of_use():
    code = ("from .series import digit_offset, grow\n"
            "from hilbfock import series\n"
            "e = series.digit_offset((1,), 8)\n"
            "def step(bits, state, n): pass\n"
            "f = lambda exps, width=None: 0\n"
            "def g(*, width): return offset\n"
            "d = digit_offset\n"
            "bits, width = 8, 5\n"
            "offset((2,))\n")
    assert layout_names(ast.parse(code)) == [
        (1, "digit_offset"), (3, "digit_offset"), (4, "bits"), (5, "width"),
        (6, "width"), (7, "digit_offset")]


def test_no_module_but_series_names_the_digit_layout():
    found = {path.name: uses
             for path in sorted(SRC.glob("*.py")) if path.name != "series.py"
             if (uses := layout_names(ast.parse(path.read_text())))}
    assert found == {}


PROTOCOL = {"respace", "unpack", "digit_bits"}


def protocol_uses(tree):
    """(line, name) of every import or read of a name in PROTOCOL."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update((node.lineno, alias.name) for alias in node.names
                       if alias.name in PROTOCOL)
        elif isinstance(node, ast.Name) and node.id in PROTOCOL:
            out.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PROTOCOL:
            out.add((node.lineno, node.attr))
    return sorted(out)


def test_the_protocol_detector_sees_each_kind_of_use():
    code = ("from .series import grow, respace\n"
            "from hilbfock.series import unpack as read\n"
            "state = respace(state, 8, 16)\n"
            "bits = series.digit_bits(total)\n"
            "f = unpack\n"
            "rows, state = grow(kept, order, total, [1], step)\n"
            "unpacked = pack(poly, bits)\n")
    assert protocol_uses(ast.parse(code)) == [
        (1, "respace"), (2, "unpack"), (3, "respace"), (4, "digit_bits"),
        (5, "unpack")]


def test_no_module_but_series_runs_the_growth_protocol():
    found = {path.name: uses
             for path in sorted(SRC.glob("*.py")) if path.name != "series.py"
             if (uses := protocol_uses(ast.parse(path.read_text())))}
    assert found == {}


def private_linalg_uses(tree):
    """(line, name) of every _-prefixed linalg name a module imports or reads."""
    aliases, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module in (".linalg", "hilbfock.linalg"):
                    if alias.name.startswith("_"):
                        out.append((node.lineno, alias.name))
                elif module in (".", "hilbfock") and alias.name == "linalg":
                    aliases.add(alias.asname or "linalg")
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == "hilbfock.linalg" and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append((node.lineno, node.attr))
    return out


def test_the_detector_sees_each_kind_of_use():
    code = ("from . import linalg\n"
            "from .linalg import _cols, matrix\n"
            "import hilbfock.linalg as la\n"
            "linalg._split(a)\n"
            "la._entry(r, 0)\n"
            "linalg.mat_mul(a, b)\n")
    assert private_linalg_uses(ast.parse(code)) == [
        (2, "_cols"), (4, "_split"), (5, "_entry")]


def test_no_module_but_linalg_uses_a_private_linalg_name():
    found = {path.name: uses
             for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
             if (uses := private_linalg_uses(ast.parse(path.read_text())))}
    assert found == {}


def fock_key_uses(tree):
    """(line, name) of every read of a _terms field or FockMonomial._make."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "_terms":
            out.append((node.lineno, "_terms"))
        elif node.attr == "_make" and (
                getattr(node.value, "id", None) == "FockMonomial"
                or getattr(node.value, "attr", None) == "FockMonomial"):
            out.append((node.lineno, "FockMonomial._make"))
    return sorted(out)


def test_the_key_detector_sees_each_kind_of_use():
    code = ("from .heisenberg import FockMonomial\n"
            "import hilbfock as hf\n"
            "keys = state._terms\n"
            "FockMonomial._make(((1, 0),))\n"
            "make = hf.FockMonomial._make\n"
            "CoeffPoly._make({}, 1)\n"
            "state.terms\n")
    assert fock_key_uses(ast.parse(code)) == [
        (3, "_terms"), (4, "FockMonomial._make"), (5, "FockMonomial._make")]


def test_no_module_but_heisenberg_reads_fock_keys():
    found = {path.name: uses
             for path in sorted(SRC.glob("*.py"))
             if path.name != "heisenberg.py"
             if (uses := fock_key_uses(ast.parse(path.read_text())))}
    assert found == {}


def imported_modules(tree):
    """
    (line, module) of every hilbfock module an import names, at any depth
    (function-level imports included), relative or absolute.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = "." * node.level + (node.module or "")
            if path.startswith((".", "hilbfock")):
                module = path.removeprefix("hilbfock").strip(".")
                # from . import a, b names the modules a and b
                out.update((node.lineno, module or alias.name)
                           for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update((node.lineno, alias.name.removeprefix("hilbfock."))
                       for alias in node.names
                       if alias.name.startswith("hilbfock."))
    return sorted(out)


def test_the_import_detector_sees_each_kind_of_import():
    code = ("from .series import grow\n"
            "def f():\n"
            "    from .goettsche import sym_total_dim\n"
            "    from . import product, tables\n"
            "import hilbfock.surfaces as surfaces\n"
            "from hilbfock.product import hilbert_hodge\n"
            "from collections import Counter\n"
            "import os\n")
    assert imported_modules(ast.parse(code)) == [
        (1, "series"), (3, "goettsche"), (4, "product"), (4, "tables"),
        (5, "surfaces"), (6, "product")]


def test_the_two_routes_never_import_each_other():
    # counts, which holds the strata convolution, is on the strata side
    for module, others in (("product", {"goettsche", "counts"}),
                           ("goettsche", {"product"}),
                           ("counts", {"product"})):
        tree = ast.parse((SRC / (module + ".py")).read_text())
        found = [name for _, name in imported_modules(tree)]
        assert "tables" in found and not others & set(found), (module, found)


def test_poly_imports_no_module_but_base():
    tree = ast.parse((SRC / "poly.py").read_text())
    assert [name for _, name in imported_modules(tree)] == ["_base"]


MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "append",
            "extend", "insert", "add"}


def module_caches(tree):
    """
    The caches a module defines: each function decorated with lru_cache or
    cache, and each module-level dict, list or set that code writes into.
    """
    containers = {target.id for node in tree.body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, (ast.Dict, ast.DictComp,
                                              ast.List, ast.Set))
                  for target in node.targets if isinstance(target, ast.Name)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "id", getattr(dec, "attr", None)) in (
                        "lru_cache", "cache"):
                    out.add(node.name)
        elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            if getattr(node.value, "id", None) in containers:
                out.add(node.value.id)
        elif isinstance(node, ast.Attribute) and node.attr in MUTATORS:
            if getattr(node.value, "id", None) in containers:
                out.add(node.value.id)
    return out


def test_the_cache_detector_sees_each_kind_of_cache():
    code = ("import functools\n"
            "from functools import lru_cache\n"
            "A = {}\n"
            "B = []\n"
            "C = {1: 2}\n"
            "D = {}\n"
            "@lru_cache(maxsize=None)\n"
            "def f(n): return n\n"
            "@functools.cache\n"
            "def g(n): return n\n"
            "def h(n):\n"
            "    A[n] = n\n"
            "    B.append(n)\n"
            "    return C[n] + D.get(n, 0)\n")
    assert module_caches(ast.parse(code)) == {"A", "B", "f", "g"}


CACHES = {"tables._TABLES", "counts.sym_total_dim", "partitions._fill",
          "partitions.partition_census", "partitions.partitions_of",
          "partitions.splitting_drops"}


def test_every_module_level_cache_is_listed():
    found = {"%s.%s" % (path.stem, name)
             for path in sorted(SRC.glob("*.py"))
             for name in module_caches(ast.parse(path.read_text()))}
    assert found == CACHES


def cache_sizes():
    """{name: number of entries} of every cache in CACHES, read now."""
    sizes = {}
    for name in sorted(CACHES):
        module, attr = name.split(".")
        cache = getattr(import_module("hilbfock." + module), attr)
        sizes[name] = (len(cache) if isinstance(cache, dict)
                       else cache.cache_info().currsize)
    return sizes


def test_the_reset_empties_every_cache(reset_caches):
    from hilbfock import selfcheck
    from hilbfock.partitions import Partition, refines
    selfcheck.run_all(4)
    assert refines(Partition((1, 1)), Partition((2,)))
    assert all(cache_sizes().values()), cache_sizes()
    reset_caches()
    assert cache_sizes() == dict.fromkeys(CACHES, 0)
