"""
The generated triples of the benchmark's cli_adhm workload, run in-process
through cli.main: for each seed, every `adhm --triple` request must print
exactly the text that perfbench/workloads.py derives in plain Fractions
from the block points.  The workload and digest files are only read
here.
"""

import json
import sys
from pathlib import Path

import pytest

from hilbfock.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())["cli"]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_triples_print_the_derived_text(workloads, seed, tmp_path,
                                                  capsys):
    requests = [r for r in workloads.cli_adhm(seed, DIGESTS)
                if r.triple_text is not None]
    assert len(requests) == len(workloads.GENERATED) + 1
    for i, req in enumerate(requests):
        path = tmp_path / ("triple-%d.txt" % i)
        path.write_text(req.triple_text)
        assert main(["adhm", "--triple", str(path)]) == 0
        out, err = capsys.readouterr()
        assert (out.encode(), err) == (req.expect_text, ""), req.triple_text
