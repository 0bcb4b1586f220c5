"""
Byte identity of the CLI output: every table request of the benchmark's
cli_tables workload and every adhm --mu request of its cli_adhm workload,
run in-process through cli.main, must print exactly the bytes whose
sha256 perfbench/digests.json records.  The digest file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hilbfock.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "digests.json").read_text())["cli"]
TABLES = sorted(key for key in DIGESTS if not key.startswith("adhm "))


def test_every_table_subcommand_has_a_digest():
    assert {key.split()[0] for key in TABLES} == {
        "euler", "strata", "goettsche", "fock", "ktheory", "sym", "hodge",
        "punctual"}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_table_output_matches_recorded_digest(argv, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
