"""
The hilbfock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  Workloads (see workloads.py and README.md):

    cli_tables       fresh `python -m hilbfock` table requests
    cli_adhm         fresh `python -m hilbfock adhm` requests
    library_session  library queries in one long-lived process per pass

One closed-loop client sends one request at a time.  A pass is the whole
request list of the seed; passes repeat until --seconds is used up, and at
least until MIN_SAMPLES latencies are in hand.  Every output is checked; a
nonzero exit, a traceback or a wrong output counts as a failed request.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of stdout is
one JSON object; the line before it is a readable summary.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_tables", "cli_adhm", "library_session")

# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 5
# A request that runs away is killed after this much CPU time and counts as
# failed; no request starts after DEADLINE_S, so the run ends in time.
REQUEST_CPU_LIMIT_S = 60
DEADLINE_S = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU,
                       (REQUEST_CPU_LIMIT_S, REQUEST_CPU_LIMIT_S))


def spawn(cmd, tmp):
    """
    Run one child to completion.  Returns (seconds, exit code, max RSS in
    MB, stdout bytes, stderr bytes); the RSS comes from wait4's rusage.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT, preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, usage.ru_maxrss / 1024,
            out_path.read_bytes(), err_path.read_bytes())


def measure_setup(tmp):
    """
    Median time, raw and calibrated, of a fresh interpreter that imports
    hilbfock.cli.
    """
    cmd = [sys.executable, "-c", "import hilbfock.cli"]
    spawn(cmd, tmp)  # writes the bytecode caches
    cal = clock.Calibrator()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        seconds, code, _, _, err = spawn(cmd, tmp)
        if code != 0:
            raise RuntimeError("importing hilbfock.cli failed:\n"
                               + err.decode(errors="replace"))
        raw.append(seconds)
        scaled.append(cal.scale(seconds))
    return statistics.median(raw), statistics.median(scaled)


class Pass:
    """The outcome of one pass over the request list."""

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.failed = 0
        self.attempted = 0
        self.peak_rss_mb = 0.0
        self.dumps = []
        self.outputs = []

    @property
    def wall_s(self):
        return sum(self.latencies)


def cli_pass(requests, tmp, deadline, traced):
    result = Pass()
    cal = clock.Calibrator()
    for i, req in enumerate(requests):
        result.attempted += 1
        if time.perf_counter() > deadline:
            result.failed += 1
            continue
        argv = list(req.argv)
        if req.triple_text is not None:
            path = tmp / ("triple-%d.txt" % i)
            path.write_text(req.triple_text)
            argv = [str(path) if a == "{triple}" else a for a in argv]
        spans = tmp / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli",
                   str(spans), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "hilbfock"] + argv
        seconds, code, rss, out, err = spawn(cmd, tmp)
        result.raw_latencies.append(seconds)
        result.latencies.append(cal.scale(seconds))
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.outputs.append(out)
        if code != 0 or b"Traceback" in err or not req.check(out):
            result.failed += 1
        elif traced:
            result.dumps.append(json.loads(spans.read_text()))
    return result


def session_pass(seed, keys, expected, tmp, deadline, traced):
    result = Pass()
    result.attempted = len(keys)
    if time.perf_counter() > deadline:
        result.failed = len(keys)
        return result
    out_path, spans = tmp / "session.json", tmp / "spans.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "session", str(seed),
           str(out_path)] + ([str(spans)] if traced else [])
    _, code, rss, _, err = spawn(cmd, tmp)
    result.peak_rss_mb = rss
    if code != 0 or b"Traceback" in err:
        result.failed = len(keys)
        return result
    rows = json.loads(out_path.read_text())
    for row in rows:
        result.raw_latencies.append(row["raw_seconds"])
        result.latencies.append(row["seconds"])
        result.outputs.append(row["digest"].encode())
        if not row["agree"] or row["digest"] != expected[row["key"]]:
            result.failed += 1
    result.failed += len(keys) - len(rows)
    if traced:
        result.dumps.append(json.loads(spans.read_text()))
    return result


def percentile_ms(samples, k):
    """The k-th decile of the samples, in ms."""
    return statistics.quantiles(samples, n=10)[k - 1] * 1000


def end_to_end(passes, setup_s, raw=False):
    """
    wall_s is the median over passes of the summed request latencies, which
    leaves out the benchmark's own checks between requests.
    """
    lat = [p.raw_latencies if raw else p.latencies for p in passes]
    samples = [s for one in lat for s in one]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(one) for one in lat),
        "p50_ms": percentile_ms(samples, 5),
        "p90_ms": percentile_ms(samples, 9),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def per_layer(traced, untraced):
    """
    Self times are medians over the traced passes; counts repeat exactly
    from pass to pass, so the first pass gives them.
    """
    layers = [tracing.summarize(p.dumps) for p in traced]
    out = {m: layers[0][m] for m in layers[0]}
    for metric in out:
        if metric.endswith(".self_s"):
            out[metric] = statistics.median(m[metric] for m in layers)
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced))
    return out


def with_units(values, specs):
    """The metrics BENCHMARK.json declares, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def run(workload, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "digests.json").read_text())
    tmp = ROOT / ".bench_tmp" / ("run-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        raw_setup_s, setup_s = measure_setup(tmp)
        if workload == "library_session":
            keys = workloads.library_session(seed)
            n_requests = len(keys)

            def one_pass(traced):
                return session_pass(seed, keys, expected["session"], tmp,
                                    deadline, traced)
        else:
            build = getattr(workloads, workload)
            requests = build(seed, expected["cli"])
            n_requests = len(requests)

            def one_pass(traced):
                return cli_pass(requests, tmp, deadline, traced)

        start = time.perf_counter()
        deadline = start + DEADLINE_S
        min_passes = math.ceil(MIN_SAMPLES / n_requests)
        untraced, traced = [], []
        while True:
            t0 = time.perf_counter()
            untraced.append(one_pass(False))
            if trace:
                traced.append(one_pass(True))
            now = time.perf_counter()
            enough = trace or len(untraced) >= min_passes
            next_end = now + (now - t0)
            if now > deadline or (enough and next_end > start + seconds):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        identical = all(a.outputs == b.outputs
                        for a, b in zip(untraced, traced))
        metrics = with_units(per_layer(traced, untraced), spec["per_layer"])
    else:
        identical = True
        metrics = with_units(end_to_end(untraced, setup_s),
                             spec["end_to_end"])
    samples = sum(len(p.latencies) for p in untraced)
    summary = {"workload": workload, "seed": seed, "passes": len(untraced),
               "traced_passes": len(traced), "requests_per_pass": n_requests,
               "samples": samples, "fail_frac": failed / attempted,
               "traced_outputs_identical": identical}
    if not trace:
        summary.update({k: round(m["value"], 4) for k, m in metrics.items()})
        raw = end_to_end(untraced, raw_setup_s, raw=True)
        summary.update({"raw_" + k: round(raw[k], 4)
                        for k in ("setup_s", "wall_s", "p50_ms", "p90_ms")})
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hilbfock" / "__init__.py").is_file():
        print("error: no hilbfock sources under %s" % SRC, file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
