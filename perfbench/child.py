"""
Child processes of the benchmark; each starts from a fresh interpreter, so
the library's caches are cold.

    child.py cli SPANS -- ARGV...
        Install the tracing wrappers, run `hilbfock ARGV` through
        hilbfock.cli.main, write its stdout through and its spans to SPANS.

    child.py session SEED OUT [SPANS]
        Run the library_session query list for SEED in this process, write
        per-query results to OUT and, when SPANS is given, trace the run and
        write the spans there.
"""

import io
import json
import sys
import time


def run_cli(spans_path, argv):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    from hilbfock import cli
    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
        out = captured.getvalue().encode()
        sys.stdout.buffer.write(out)
        sys.stdout.flush()
    # emit is the CLI's only writer to stdout
    tracer.dump(spans_path, {"cli.emit.bytes": len(out)})
    return code


def run_session(seed, out_path, spans_path=None):
    tracer = None
    if spans_path:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import clock
    import session
    import workloads
    results = []
    cal = clock.Calibrator()
    for i, key in enumerate(workloads.library_session(seed)):
        fn = session.QUERY_FNS[key]
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        agree, value = fn()
        seconds = time.perf_counter() - t0
        results.append({"key": key, "raw_seconds": seconds,
                        "seconds": cal.scale(seconds), "agree": agree,
                        "digest": workloads.sha256(
                            session.canon(value).encode())})
    with open(out_path, "w") as fh:
        json.dump(results, fh)
    if tracer:
        tracer.dump(spans_path)
    return 0


def main(argv):
    if argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if argv[0] == "session":
        return run_session(int(argv[1]), argv[2], *argv[3:4])
    print("usage: see child.py docstring", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
