"""
Request lists of the three workloads, and the expected output of every
request.  Everything here is a pure function of the seed.

cli_tables    fixed table requests; the seed permutes their order.
cli_adhm      fixed --mu requests plus seeded generated triples; the seed
              picks the conjugating matrices and the unit rotations of the
              support points, and permutes the order.
library_session
              a pool of library queries (see session.py); the seed permutes
              their order, so a different query pays for each shared
              sub-result.

Only the order, the conjugators and unit rotations vary with the seed, so
the work in a pass stays the same from seed to seed and the figures of two
seeds can be compared.
"""

import hashlib
import random
from fractions import Fraction

import session

# Each entry is one `hilbfock` argv.  Orders are kept small enough that
# one pass takes about ten seconds: every request is a fresh interpreter
# that pays about 0.1 s of start-up.  The list is ordered by cost.  Two
# requests appear four times each, so that the p50 and p90 ranks fall
# inside a plateau of like samples instead of on the edge between two
# requests of different cost.
CLI_TABLES = [
    # 16 cheap requests, each below 0.17 s
    "euler --surface k3 --order 20",
    "euler --surface p2 --order 30",
    "euler --surface abelian --order 30",
    "euler --surface delta --order 25",
    "euler --surface p1xp1 --order 12",
    "strata --n 12 --h 3",
    "strata --n 20 --h 5",
    "strata --n 16 --h 0",
    "strata --n 18 --h 8",
    "strata --n 8 --h 2",
    "goettsche --surface delta --order 20",
    "fock --surface delta --order 10",
    "ktheory --surface p2 --order 10",
    "sym --surface p2 --order 20",
    "hodge --surface p2 --order 10",
    "fock --surface p1xp1 --order 20",
    # the p50 plateau, about 0.2 s
    "hodge --surface p2 --order 15",
    "hodge --surface p2 --order 15",
    "hodge --surface p2 --order 15",
    "hodge --surface p2 --order 15",
    # 10 requests of 0.25-0.4 s
    "goettsche --surface p2 --order 30",
    "goettsche --surface k3 --order 30",
    "ktheory --surface p1xp1 --order 25",
    "ktheory --surface abelian --order 20",
    "sym --surface abelian --order 30",
    "sym --surface k3 --order 30",
    "hodge --surface k3 --order 10",
    "hodge --surface abelian --order 10",
    "fock --surface k3 --order 20",
    "fock --surface abelian --order 20",
    # the p90 plateau, about 0.5 s
    "punctual --order 30",
    "punctual --order 30",
    "punctual --order 30",
    "punctual --order 30",
    # the tail: the k3 hash cost and the abelian product expansion
    "ktheory --surface k3 --order 18",
    "goettsche --surface abelian --order 35",
]

# Sparse 0/1 nilpotent monomial triples, n <= 9.  "3,3,1" appears four
# times so that p90 falls inside a plateau of like samples; only "3,3,3"
# and the root-search case cost more.
ADHM_MU = ["1", "2", "1,1", "2,1", "1,1,1", "3", "2,2", "3,1", "2,1,1",
           "3,2", "2,2,1", "3,2,1", "4,2", "3,3,1", "3,3,1", "3,3,1",
           "3,3,1", "3,3,3"]

# Support points of generated triples by class.  The seed multiplies a
# base point by a unit and may conjugate it, which keeps its norm and
# denominators and therefore the length of the root search.
BASE_POINTS = {
    "in": (Fraction(1, 2), Fraction(0)),
    "in_mixed": (Fraction(1, 2), Fraction(1, 3)),
    "out": (Fraction(2), Fraction(1)),
    "out_unit": (Fraction(1), Fraction(1)),
}

# Generated dense triples: block sums of shifted monomial triples, one
# block per (partition, x class, y class), at distinct points.
GENERATED = [
    [((2, 1), "in", "out")],
    [((2, 1), "out_unit", "in")],
    [((3,), "in_mixed", "in")],
    [((1, 1, 1), "out", "out_unit")],
    [((2, 2), "in", "in")],
    [((3, 1), "out_unit", "in")],
    [((2, 1, 1), "in", "out_unit")],
    [((2, 2), "in_mixed", "out")],
    [((3, 2), "in", "out_unit")],
    [((2, 2, 1), "out_unit", "in")],
    [((2,), "in", "out"), ((1, 1), "out", "in")],
    [((2, 1), "in", "in"), ((1,), "out", "out_unit")],
    [((1,), "in_mixed", "in"), ((1,), "out", "out"), ((1,), "in", "out_unit")],
    [((2,), "out_unit", "in"), ((2,), "in", "out_unit")],
    [((1, 1), "in", "out_unit")],
    [((2,), "out", "in")],
    [((1,), "out_unit", "in"), ((1,), "in", "out")],
]

# One bounded 1x1 case whose cost is all root search: the norm of 55440
# has 1215 divisors.  Fixed, because that cost depends on the number.
ROOT_SEARCH_POINT = ((Fraction(55440), Fraction(0)),
                     (Fraction(1), Fraction(0)))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class CliRequest:
    """One `hilbfock` invocation and the stdout it must print."""

    def __init__(self, argv, expect_digest=None, expect_text=None,
                 triple_text=None):
        self.argv = argv
        self.expect_digest = expect_digest
        self.expect_text = expect_text
        self.triple_text = triple_text

    def check(self, stdout):
        if self.expect_text is not None:
            return stdout == self.expect_text
        return sha256(stdout) == self.expect_digest


def cli_tables(seed, digests):
    keys = list(CLI_TABLES)
    random.Random(seed).shuffle(keys)
    return [CliRequest(k.split(), expect_digest=digests[k]) for k in keys]


def cli_adhm(seed, digests):
    """
    The --mu requests carry recorded digests; each generated triple carries
    its expected output, derived here in plain Fraction arithmetic.  The
    argv of a triple request names "{triple}", which the runner replaces
    with the path of a file holding `triple_text`.
    """
    rng = random.Random(seed)
    out = []
    for mu in ADHM_MU:
        key = "adhm --mu " + mu
        out.append(CliRequest(key.split(), expect_digest=digests[key]))
    cases = [generated_triple(blocks, rng) for blocks in GENERATED]
    cases.append(triple_case([((1,), ROOT_SEARCH_POINT)],
                             (identity(1), identity(1))))
    for text, expect in cases:
        out.append(CliRequest(["adhm", "--triple", "{triple}"],
                              expect_text=expect, triple_text=text))
    rng.shuffle(out)
    return out


def library_session(seed):
    keys = [key for key, _ in session.QUERIES]
    random.Random(seed).shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions.  Deliberately separate
# from hilbfock.linalg, so that the expected outputs do not come from the
# code under test.

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_pow(a, k):
    out = ONE
    for _ in range(k):
        out = g_mul(out, a)
    return out


def g_norm(a):
    return a[0] * a[0] + a[1] * a[1]


def g_str(z):
    """The program's scalar format: "a/b", "c/di" or "a/b+c/di"."""
    re, im = z
    if not im:
        return str(re)
    ims = ("" if abs(im) == 1 else str(abs(im))) + "i"
    if not re:
        return ("-" if im < 0 else "") + ims
    return str(re) + ("-" if im < 0 else "+") + ims


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            s = ZERO
            for t, x in enumerate(row):
                s = g_add(s, g_mul(x, b[t][j]))
            new.append(s)
        out.append(new)
    return out


def monomial_block(mu, x, y):
    """The monomial triple of mu shifted to the point (x, y)."""
    cells = sorted((i, j) for i, part in enumerate(mu) for j in range(part))
    index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    a = [[ZERO] * n for _ in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for (cx, cy), j in index.items():
        a[j][j] = x
        b[j][j] = y
        if (cx + 1, cy) in index:
            a[index[(cx + 1, cy)]][j] = ONE
        if (cx, cy + 1) in index:
            b[index[(cx, cy + 1)]][j] = ONE
    v = [ZERO] * n
    v[index[(0, 0)]] = ONE
    return a, b, v


def unimodular(n, rng):
    """
    A seeded Gaussian-integer matrix of determinant 1 and its inverse: the
    product of a lower and an upper unipotent bidiagonal matrix, built from
    elementary factors I + u E_ij with seeded units u.  The positions are
    fixed, so the entry sizes, and with them the cost, do not depend on
    the seed.
    """
    g, gi = identity(n), identity(n)
    units = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
             (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
    steps = [(i + 1, i) for i in range(n - 1)] + [(i, i + 1)
                                                   for i in range(n - 1)]
    for i, j in steps:
        u = rng.choice(units)
        e, ei = identity(n), identity(n)
        e[i][j] = u
        ei[i][j] = (-u[0], -u[1])
        g = mat_mul(g, e)
        gi = mat_mul(ei, gi)
    return g, gi


def rotate(point, rng):
    z = point
    for _ in range(rng.randrange(4)):
        z = (-z[1], z[0])
    if rng.randrange(2):
        z = (z[0], -z[1])
    return z


def generated_triple(blocks, rng):
    pts = set()
    placed = []
    for mu, xc, yc in blocks:
        while True:
            p = (rotate(BASE_POINTS[xc], rng), rotate(BASE_POINTS[yc], rng))
            if p not in pts:
                break
        pts.add(p)
        placed.append((mu, p))
    n = sum(sum(mu) for mu, _ in placed)
    return triple_case(placed, unimodular(n, rng))


def triple_case(placed, conj):
    """
    The triple G (A, B, v) G^-1 for the block sum of shifted monomial
    triples, as file text, and the exact `hilbfock adhm` output it must
    give: the support is the list of block points with the block sizes as
    multiplicities, and Tr(A^k B^l) = sum m x^k y^l because the nilpotent
    parts contribute no trace.
    """
    n = sum(sum(mu) for mu, _ in placed)
    a = [[ZERO] * n for _ in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    v = []
    off = 0
    for mu, (x, y) in placed:
        ba, bb, bv = monomial_block(mu, x, y)
        for i, (ra, rb) in enumerate(zip(ba, bb)):
            a[off + i][off:off + len(bv)] = ra
            b[off + i][off:off + len(bv)] = rb
        v += bv
        off += len(bv)
    g, gi = conj
    a = mat_mul(mat_mul(g, a), gi)
    b = mat_mul(mat_mul(g, b), gi)
    v = [row[0] for row in mat_mul(g, [[x] for x in v])]
    lines = [str(n)]
    lines += [" ".join(g_str(x) for x in row) for row in a + b]
    lines.append(" ".join(g_str(x) for x in v))
    text = "\n".join(lines) + "\n"

    support = sorted(((x, y), sum(mu)) for mu, (x, y) in placed)
    one = Fraction(1)
    rows = [("key", "value"), ("size", n), ("commuting", True),
            ("stable", True),
            ("support", " + ".join("%d*(%s,%s)" % (m, g_str(x), g_str(y))
                                   for (x, y), m in support)),
            ("in_bidisk", all(g_norm(x) < one and g_norm(y) < one
                              for (x, y), _ in support))]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            t = ZERO
            for (x, y), m in support:
                t = g_add(t, g_mul((Fraction(m), Fraction(0)),
                                   g_mul(g_pow(x, k), g_pow(y, l))))
            rows.append(("trace[%d,%d]" % (k, l), g_str(t)))
    expect = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
    return text, expect.encode()
