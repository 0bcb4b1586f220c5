"""
The two-route checks of the selfcheck battery: each reports the first row
where its routes disagree, naming the surface, the row and both routes, and
the battery prints the same table with assertions stripped (python -O).
"""

import os
import subprocess
import sys

import pytest

import hilbfock
from hilbfock import goettsche, heisenberg, selfcheck
from hilbfock.series import QTSeries
from hilbfock.surfaces import P2

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hilbfock.__file__)))


def break_row_3(monkeypatch, module, name, key):
    """Patch the route module.name so that its row 3 for key is off by one."""
    real = getattr(module, name)

    def broken(model, order):
        rows = real(model, order)
        if model != key:
            return rows
        coeffs = rows.coeffs if isinstance(rows, QTSeries) else rows
        bumped = [c + 1 if n == 3 else c for n, c in enumerate(coeffs)]
        if isinstance(rows, QTSeries):
            return QTSeries(order, bumped, rows.nvars)
        return bumped

    monkeypatch.setattr(module, name, broken)


@pytest.mark.parametrize("check, module, route, key, expect", [
    (selfcheck.check_goettsche, goettsche, "strata_poincare_table", P2,
     ("p2 n=3: ", "product ", " vs strata ")),
    (selfcheck.check_fock_character, heisenberg, "graded_character", P2,
     ("p2 n=3: ", "character ", " vs product ")),
    (selfcheck.check_sym_routes, goettsche, "sym_poincare_table", P2,
     ("p2 m=3: ", "stepping ", " vs product ")),
    (selfcheck.check_ktheory, goettsche, "equivariant_k_table", P2,
     ("p2 n=3: ", "K-dim ", " vs total Betti ")),
    (selfcheck.check_hodge, goettsche, "hilbert_hodge_table", P2,
     ("p2 n=3: ", "collapsed ", " vs strata ")),
    # the Euler check runs over Euler numbers; 3 is that of P2
    (selfcheck.check_euler, goettsche, "orbifold_euler_table", P2.euler,
     ("e=3 n=3: ", "product ", " vs orbifold ")),
], ids=["goettsche", "fock", "sym", "ktheory", "hodge", "euler"])
def test_check_reports_the_first_differing_row(monkeypatch, check, module,
                                               route, key, expect):
    assert check(5)[0] is True
    break_row_3(monkeypatch, module, route, key)
    ok, detail = check(5)
    assert ok is False
    where, left, right = expect
    assert detail.startswith(where)
    assert left in detail and right in detail


def run_selfcheck(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "hilbfock", "selfcheck", "--order",
         "4"], capture_output=True, text=True, env=env)


def test_selfcheck_output_does_not_rely_on_assert():
    plain = run_selfcheck()
    optimized = run_selfcheck("-O")
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


CHECKS = ("goettsche", "fock_character", "sym_routes", "commutators",
          "local_stalks", "punctual", "euler", "ktheory", "hodge", "adhm",
          "leray")


@pytest.mark.parametrize("order, capped", [
    (4, {"punctual": 12}),
    (12, {"hodge": 6, "adhm": 8, "euler": 10}),
])
def test_run_all_holds_every_bound(monkeypatch, order, capped):
    received = {}
    for name in CHECKS:
        def recorder(*args, name=name):
            received[name] = args
            return True, "recorded"
        monkeypatch.setattr(selfcheck, "check_" + name, recorder)
    rows = selfcheck.run_all(order, seed=7)
    assert [ok for _, ok, _ in rows] == [True] * len(CHECKS)
    assert received.pop("commutators") == (50, 7, selfcheck.ALL_PRESETS)
    assert received == {name: (capped.get(name, order),)
                        for name in CHECKS if name != "commutators"}
