"""
Record the expected-output digests in digests.json from the current
sources:

    python3 perfbench/record_digests.py

The fixed CLI requests are digested byte for byte; each session query must
see its two routes agree before its result is digested.  Run it only on a
commit whose outputs are trusted; the benchmark compares every later
commit against these digests.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main():
    sys.path.insert(0, str(SRC))
    import session
    import workloads
    import run

    cli = {}
    for key in workloads.CLI_TABLES + ["adhm --mu " + mu
                                       for mu in workloads.ADHM_MU]:
        out = subprocess.run([sys.executable, "-m", "hilbfock"] + key.split(),
                             env=run.child_env(), check=True,
                             capture_output=True).stdout
        cli[key] = workloads.sha256(out)
    queries = {}
    for key, fn in session.QUERIES:
        agree, value = fn()
        if not agree:
            raise SystemExit("routes disagree in %s" % key)
        queries[key] = workloads.sha256(session.canon(value).encode())
    with open(BENCH / "digests.json", "w") as fh:
        json.dump({"cli": cli, "session": queries}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
