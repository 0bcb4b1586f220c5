"""
Byte identity of the CLI output: every table request of the benchmark's
cli_tables workload and every adhm --mu request of its cli_adhm workload,
run in-process through cli.main, must print exactly the bytes whose
sha256 perfbench/digests.json records.  The digest file is only read here.
The selfcheck and commutators digests are pinned in this file.
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


# stdout sha256 of the selfcheck battery and of the relation battery
CHECK_DIGESTS = {
    "selfcheck --order 4":
        "9b3d8002543e09348ceab3a6660d26e40c856cbdd7d612605848be402a4634c1",
    "selfcheck --order 8":
        "cbd653c04af2b2c847930a8bdeb3f4e6a540390bd743d82cc430b1af3407b3bd",
    "commutators --surface abelian --trials 200 --seed 3":
        "84bb5d8cd396ca3f6274eac0d11c4c7c1cd3b923089db82e0e3447708576d9a6",
}


@pytest.mark.parametrize("argv", sorted(CHECK_DIGESTS))
def test_check_output_matches_pinned_digest(argv, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[argv]
