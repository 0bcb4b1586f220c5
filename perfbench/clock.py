"""
Calibrated timing.

The machines this benchmark runs on share their cores: the same request
takes up to 1.6x longer while a neighbour is busy, in spells of a few
seconds.  So each timing is scaled by the speed of the machine at that
moment: a fixed reference program (a fresh interpreter doing exact
Fraction arithmetic into a dict of tuple keys, like the library's own
work) runs after every request, and a request's time is multiplied by
NOMINAL_S over the mean of the two reference times around it.  NOMINAL_S
is the reference's median time on the idle 2-vCPU x86 host where the
benchmark was defined, so a calibrated time reads as seconds on that host.
The reference does not touch hilbfock, so no change to the program can
move it.
"""

import subprocess
import sys
import time

REFERENCE = """from fractions import Fraction
table = {}
for i in range(4000):
    table[(i % 251, i % 241, i)] = Fraction(i, 7) + i
total = 0
for key in list(table)[::2]:
    total += table[key].numerator
"""

NOMINAL_S = 0.05


def reference_s():
    """Wall time of one run of the reference program."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", REFERENCE], check=True)
    return time.perf_counter() - t0


class Calibrator:
    """
    Scales a sequence of timings.  Call `scale(raw)` right after each timed
    request; it runs the reference program and returns the calibrated time
    of that request.
    """

    def __init__(self):
        self.last = reference_s()

    def scale(self, raw):
        ref = reference_s()
        factor = NOMINAL_S * 2 / (self.last + ref)
        self.last = ref
        return raw * factor
