"""
Tests of the benchmark itself:

    PYTHONPATH=src python -m pytest perfbench/tests

The traced-pass tests run whole passes of the workloads, so this takes
about a minute.
"""

import json
import time

import pytest

import run
import tracing
import workloads
from hilbfock import cli

DIGESTS = json.loads((run.BENCH / "digests.json").read_text())


def far_deadline():
    return time.perf_counter() + 600


def test_generator_is_deterministic_per_seed():
    def snapshot(seed):
        return [(r.argv, r.triple_text, r.expect_text, r.expect_digest)
                for r in workloads.cli_adhm(seed, DIGESTS["cli"])]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)
    assert workloads.library_session(7) == workloads.library_session(7)
    assert workloads.library_session(7) != workloads.library_session(8)
    assert ([r.argv for r in workloads.cli_tables(7, DIGESTS["cli"])]
            == [r.argv for r in workloads.cli_tables(7, DIGESTS["cli"])])


def test_every_generated_triple_matches_the_program(tmp_path, capsys):
    requests = [r for r in workloads.cli_adhm(3, DIGESTS["cli"])
                if r.triple_text is not None]
    assert len(requests) == len(workloads.GENERATED) + 1
    for req in requests:
        path = tmp_path / "triple.txt"
        path.write_text(req.triple_text)
        capsys.readouterr()
        assert cli.main(["adhm", "--triple", str(path)]) == 0
        assert capsys.readouterr().out.encode() == req.expect_text


def test_verifier_flags_one_corrupt_byte(capsys):
    req = workloads.cli_tables(0, DIGESTS["cli"])[0]
    assert cli.main(req.argv) == 0
    out = capsys.readouterr().out.encode()
    assert req.check(out)
    for i in (0, len(out) // 2, len(out) - 1):
        bad = out[:i] + bytes([out[i] ^ 1]) + out[i + 1:]
        assert not req.check(bad)
    triple = next(r for r in workloads.cli_adhm(0, DIGESTS["cli"])
                  if r.triple_text is not None)
    assert not triple.check(triple.expect_text[:-2] + b"x\n")


def test_nonzero_exit_and_wrong_output_count_as_failed(tmp_path):
    good = workloads.cli_tables(0, DIGESTS["cli"])[0]
    bad_exit = workloads.CliRequest(
        ["goettsche", "--surface", "nosuch", "--order", "3"],
        expect_digest=workloads.sha256(b""))
    wrong = workloads.CliRequest(good.argv, expect_digest="0" * 64)
    result = run.cli_pass([good, bad_exit, wrong], tmp_path, far_deadline(),
                          traced=False)
    assert (result.attempted, result.failed) == (3, 2)


def traced_and_untraced(workload, tmp_path):
    if workload == "library_session":
        keys = workloads.library_session(0)
        return [run.session_pass(0, keys, DIGESTS["session"], tmp_path,
                                 far_deadline(), traced)
                for traced in (False, True)]
    requests = getattr(workloads, workload)(0, DIGESTS["cli"])
    return [run.cli_pass(requests, tmp_path, far_deadline(), traced)
            for traced in (False, True)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_matches_untraced_and_separates_layers(workload,
                                                           tmp_path):
    untraced, traced = traced_and_untraced(workload, tmp_path)
    assert untraced.failed == traced.failed == 0
    assert untraced.outputs == traced.outputs
    layers = tracing.summarize(traced.dumps)
    assert set(layers) >= {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]} - {
            "trace.overhead_ratio"}
    if workload == "cli_tables":
        assert layers["linalg.mat_mul.calls"] == 0
        assert layers["linalg.calls"] == layers["adhm.calls"] == 0
        assert layers["series.calls"] > 0
    elif workload == "cli_adhm":
        assert layers["series.calls"] == 0
        assert layers["linalg.mat_mul.calls"] > 0
        assert layers["adhm.trace_invariant.calls"] > 0
    else:
        assert all(layers[m] == 0 for m in layers
                   if m.startswith(("adhm.", "linalg.")))
        assert layers["heisenberg.apply.calls"] > 0
        assert layers["stratification.stalk_table.calls"] > 0
