import random
from fractions import Fraction
from math import isqrt

import pytest

from hilbfock import adhm, linalg, matrices
from hilbfock.cli import main
from hilbfock.partitions import Partition, partitions_of
from hilbfock.adhm import (MatrixTriple, NotCommuting, NotInBidisk,
                           SupportCycle, ZeroScalar, from_monomial_ideal,
                           in_bidisk, is_commuting, is_stable, read_triple,
                           retract, staircase_cells, support_cycle,
                           torus_scale, trace_invariant, trace_table,
                           write_triple)
from hilbfock.linalg import (GaussianRational, IdentityFailed,
                             SpectrumNotSplit, gaussian_rational_roots,
                             scalar_from_str, scalar_to_str)
from hilbfock.matrices import (char_poly, identity, invert, kernel_basis,
                               mat_mul, rank)
from hilbfock.roots import gaussian_integer_divisors

G = GaussianRational


def rand_scalar(rng, denoms=(1, 2)):
    return G(Fraction(rng.randint(-2, 2), rng.choice(denoms)),
             Fraction(rng.randint(-1, 1), rng.choice(denoms)))


def rand_invertible(rng, n):
    while True:
        g = [[G(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
             for _ in range(n)]
        try:
            invert(g)
            return g
        except ZeroDivisionError:
            continue


# ---------------------------------------------------------------- scalars

def test_gaussian_arithmetic():
    a = G(Fraction(1, 2), 1)
    b = G(2, -1)
    assert a + b == G(Fraction(5, 2), 0)
    assert a * b == G(2, Fraction(3, 2))
    assert (a / b) * b == a
    assert a.norm_sq() == Fraction(5, 4)
    assert (-a).re == Fraction(-1, 2)


def test_gaussian_power_matches_repeated_multiplication():
    for z in (G(0), G(1), G(0, 1), G(Fraction(1, 2), -1),
              G(-3, Fraction(2, 3))):
        product = G(1)
        for k in range(13):
            assert z ** k == product
            product = product * z
    for bad in (1.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            G(1, 1) ** bad
    for bad in (-1, -4, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            G(1, 1) ** bad


def test_scalar_round_trip():
    cases = ["3", "-1/2", "i", "-i", "2i", "-3/4i", "1/2+3/4i", "1/2-3/4i",
             "0", "-2+i"]
    for text in cases:
        z = scalar_from_str(text)
        assert scalar_from_str(scalar_to_str(z)) == z
    assert scalar_from_str("1/2+3/4i") == G(Fraction(1, 2), Fraction(3, 4))
    assert scalar_from_str("-i") == G(0, -1)
    with pytest.raises(ValueError):
        scalar_from_str("1 + i")
    with pytest.raises(ValueError):
        scalar_from_str("x")


# ----------------------------------------------------------- linear algebra

def test_char_poly_examples():
    a = [[G(1), G(0)], [G(0), G(2)]]
    assert char_poly(a) == [G(2), G(-3), G(1)]
    nil = [[G(0), G(1)], [G(0), G(0)]]
    assert char_poly(nil) == [G(0), G(0), G(1)]


@pytest.mark.parametrize("shift", [Fraction(1, 2), 1],
                         ids=["fractional", "odd"])
def test_char_poly_rejects_a_trace_step_that_is_not_integral(monkeypatch,
                                                             shift):
    # on I: the step-1 trace 2 + 1/2 is not an integer, and with 2 + 1 the
    # step-2 trace Tr(-2 I) + 1 = -3 is not a multiple of 2
    real = linalg.trace_rows
    monkeypatch.setattr(linalg, "trace_rows", lambda s: real(s) + shift)
    with pytest.raises(IdentityFailed, match="not a multiple"):
        char_poly(identity(2))


def test_char_poly_is_conjugation_invariant():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.choice((2, 3))
        a = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        g = rand_invertible(rng, n)
        conj = mat_mul(mat_mul(g, a), invert(g))
        assert char_poly(a) == char_poly(conj)


def test_kernel_and_rank():
    a = [[G(1), G(2)], [G(2), G(4)]]
    assert rank(a) == 1
    (v,) = kernel_basis(a)
    assert all((sum((x * y for x, y in zip(row, v)), G(0))).is_zero()
               for row in a)


def plain_mat_mul(a, b):
    # reference: the dense triple loop
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), G(0))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def rand_matrix(rng, rows, cols, density):
    return tuple(tuple(rand_scalar(rng, denoms=(1, 2, 3))
                       if rng.random() < density else G(0)
                       for _ in range(cols)) for _ in range(rows))


def test_mat_mul_matches_plain_product():
    rng = random.Random(11)
    for _ in range(60):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = rand_matrix(rng, n, k, density)
        b = rand_matrix(rng, k, m, rng.choice((0.0, 0.3, 1.0)))
        prod = mat_mul(a, b)
        assert prod == plain_mat_mul(a, b)
        assert all(isinstance(x, G) for row in prod for x in row)
        assert len(prod) == n and all(len(row) == m for row in prod)
    # Fraction entries whose products cancel to integers
    half = G(Fraction(1, 2), Fraction(-1, 3))
    a = ((half, G(0), G(Fraction(3, 4))),)
    b = ((G(2),), (G(5, 5),), (G(Fraction(4, 3), 1),))
    assert mat_mul(a, b) == plain_mat_mul(a, b)
    zero = ((G(0), G(0)), (G(0), G(0)))
    assert mat_mul(zero, zero) == zero


def brute_force_divisors(g):
    # reference: every integer divisor dn of N(g) written as a^2 + b^2 in
    # all ways, each candidate kept when it divides g exactly
    n = int(g.norm_sq())
    int_divisors = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    int_divisors += [n // d for d in int_divisors]
    out = set()
    for dn in set(int_divisors):
        a = 0
        while 2 * a * a <= dn:      # (a, b) and (b, a) are both tried
            b2 = dn - a * a
            b = isqrt(b2)
            if b * b == b2:
                for cand in (G(a, b), G(b, a)):
                    for unit in (G(1), G(-1), G(0, 1), G(0, -1)):
                        w = cand * unit
                        if w.re > 0 and w.im >= 0:
                            break
                    q = g * w.conjugate()
                    nc = int(w.norm_sq())
                    if q.re % nc == 0 and q.im % nc == 0:
                        out.add(w)
            a += 1
    return sorted(out, key=lambda z: (z.norm_sq(), z.re, z.im))


def test_gaussian_divisors():
    divs = gaussian_integer_divisors(G(5))
    assert G(1) in divs and G(5) in divs
    assert G(2, 1) in divs and G(1, 2) in divs      # 5 = (2+i)(2-i)
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a or b:
                g = G(a, b)
                assert gaussian_integer_divisors(g) == \
                    brute_force_divisors(g), g
    for g in (G(55440), G(720720)):
        assert gaussian_integer_divisors(g) == brute_force_divisors(g)
    with pytest.raises(ValueError):
        gaussian_integer_divisors(G(0))
    with pytest.raises(SpectrumNotSplit):
        gaussian_integer_divisors(G(10 ** 6 + 1))


def test_roots_simple():
    # (z - 2)(z - i) = z^2 - (2+i) z + 2i
    p = [G(0, 2), G(-2, -1), G(1)]
    roots = gaussian_rational_roots(p)
    assert roots == sorted([(G(0, 1), 1), (G(2), 1)],
                           key=lambda kv: (kv[0].re, kv[0].im))
    # repeated roots
    p = [G(1), G(-2), G(1)]      # (z-1)^2
    assert gaussian_rational_roots(p) == [(G(1), 2)]
    # z^3
    assert gaussian_rational_roots([G(0), G(0), G(0), G(1)]) == [(G(0), 3)]


def test_roots_not_split():
    # z^2 + 1 splits (roots +-i) but z^2 - 2 does not
    assert len(gaussian_rational_roots([G(1), G(0), G(1)])) == 2
    with pytest.raises(SpectrumNotSplit):
        gaussian_rational_roots([G(-2), G(0), G(1)])
    with pytest.raises(SpectrumNotSplit):
        gaussian_rational_roots([G(1), G(1), G(1)])   # primitive cube roots


# ----------------------------------------------------------------- triples

def test_commuting():
    assert not is_commuting(MatrixTriple([[0, 1], [0, 0]], [[0, 0], [1, 0]],
                                         [1, 0]))
    assert is_commuting(MatrixTriple([[1, 0], [0, 2]], [[3, 0], [0, 4]],
                                     [1, 1]))


def test_stability():
    tr = MatrixTriple([[G(Fraction(1, 2))]], [[G(7)]], [G(1)])
    assert is_stable(tr)
    tr = MatrixTriple([[0, 0], [0, 0]], [[0, 0], [0, 0]], [1, 0])
    assert not is_stable(tr)
    with pytest.raises(NotCommuting):
        is_stable(MatrixTriple([[0, 1], [0, 0]], [[0, 0], [1, 0]], [1, 0]))
    # a Jordan block with cyclic vector at the bottom of the chain
    tr = MatrixTriple([[0, 1], [0, 0]], [[0, 0], [0, 0]], [0, 1])
    assert is_stable(tr)
    # same matrices, vector inside the invariant line: not cyclic
    tr = MatrixTriple([[0, 1], [0, 0]], [[0, 0], [0, 0]], [1, 0])
    assert not is_stable(tr)


def test_trace_invariants():
    tr = MatrixTriple([[1, 0], [0, 2]], [[3, 0], [0, 4]], [1, 1])
    assert trace_invariant(tr, 0, 0) == G(2)
    assert trace_invariant(tr, 1, 0) == G(3)
    assert trace_invariant(tr, 1, 1) == G(11)
    table = trace_table(tr, 2)
    assert table[(1, 1)] == G(11)
    assert table[(2, 0)] == G(5)


def test_support_diagonal():
    tr = MatrixTriple([[1, 0], [0, 2]], [[3, 0], [0, 4]], [1, 1])
    assert support_cycle(tr) == SupportCycle({(G(1), G(3)): 1,
                                              (G(2), G(4)): 1})


def test_support_cycle_rejects_corrupted_trace_table():
    tr = MatrixTriple([[1, 0], [0, 2]], [[3, 0], [0, 4]], [1, 1])
    table = trace_table(tr, tr.n)
    assert support_cycle(tr, table) == support_cycle(tr)
    table[(1, 1)] = table[(1, 1)] + 1
    with pytest.raises(IdentityFailed, match="mismatch at \\(1, 1\\)"):
        support_cycle(tr, table)


def test_support_jordan():
    tr = MatrixTriple([[0, 1], [0, 0]], [[0, 0], [0, 0]], [0, 1])
    assert support_cycle(tr) == SupportCycle({(G(0), G(0)): 2})


def test_support_shared_eigenvalue():
    # A has one eigenvalue, B separates the two points
    tr = MatrixTriple([[1, 0], [0, 1]], [[3, 0], [0, 4]], [1, 1])
    assert support_cycle(tr) == SupportCycle({(G(1), G(3)): 1,
                                              (G(1), G(4)): 1})


def shifted_block_sum(blocks):
    """The direct sum of the monomial triples of mu moved to (x, y)."""
    n = sum(sum(mu) for mu, _ in blocks)
    a = [[G(0)] * n for _ in range(n)]
    b = [[G(0)] * n for _ in range(n)]
    v = []
    for mu, (x, y) in blocks:
        tr, off = from_monomial_ideal(mu), len(v)
        ta, tb = tr.a, tr.b  # each read builds its grid anew
        for i in range(tr.n):
            for j in range(tr.n):
                a[off + i][off + j] = ta[i][j] + (x if i == j else G(0))
                b[off + i][off + j] = tb[i][j] + (y if i == j else G(0))
        v += tr.v
    return MatrixTriple(a, b, v)


# two points share x = 1/2, so B restricted to V_x has two eigenvalues
X, Y1, Y2 = G(Fraction(1, 2)), G(Fraction(1, 3)), G(Fraction(-1, 4))
X3 = G(Fraction(-2, 3))


def shared_x_triple():
    tr = shifted_block_sum([((2, 1), (X, Y1)), ((2,), (X, Y2)),
                            ((1, 1), (X3, Y1))])
    return tr.conjugate_by(rand_invertible(random.Random(12), tr.n))


def test_support_multiplicities_are_the_block_sizes():
    assert support_cycle(shared_x_triple()) == SupportCycle(
        {(X, Y1): 3, (X, Y2): 2, (X3, Y1): 2})


@pytest.mark.parametrize("shift", ((1, -1), (0, 1)),
                         ids=("trace_check", "total_check"))
def test_a_misreported_support_multiplicity_fails_the_identity(
        monkeypatch, tmp_path, capsys, shift):
    # (1, -1) keeps the total n, so only the trace check can catch it
    tr = shared_x_triple()
    real = adhm.gaussian_rational_roots

    def misreport(p):
        roots = real(p)
        if {y for y, _ in roots} == {Y1, Y2}:     # B restricted to V_(1/2)
            roots = [(y, m + d) for (y, m), d in zip(roots, shift)]
        return roots

    monkeypatch.setattr(adhm, "gaussian_rational_roots", misreport)
    with pytest.raises(IdentityFailed):
        support_cycle(tr)
    path = tmp_path / "shared_x.txt"
    path.write_text(write_triple(tr))
    assert main(["adhm", "--triple", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "identity failed" in err


def test_support_nilpotent_plus_semisimple():
    # A a Jordan block, B = 2I + nilpotent: they commute, and the support
    # sees only the semisimple parts
    a = [[0, 1], [0, 0]]
    b = [[2, 3], [0, 2]]
    tr = MatrixTriple(a, b, [0, 1])
    assert is_commuting(tr)
    assert is_stable(tr)
    assert support_cycle(tr) == SupportCycle({(G(0), G(2)): 2})


def test_support_power_sums_match_traces():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.choice((2, 3))
        xs = [G(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
        ys = [G(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
        da = [[xs[i] if i == j else G(0) for j in range(n)] for i in range(n)]
        db = [[ys[i] if i == j else G(0) for j in range(n)] for i in range(n)]
        g = rand_invertible(rng, n)
        tr = MatrixTriple(da, db, [G(1)] * n).conjugate_by(g)
        cycle = support_cycle(tr)        # postcondition asserts the identity
        expect = {}
        for x, y in zip(xs, ys):
            expect[(x, y)] = expect.get((x, y), 0) + 1
        assert cycle == SupportCycle(expect)


def test_monomial_triples():
    for n in range(1, 8):
        triples = [from_monomial_ideal(mu) for mu in partitions_of(n)]
        for tr in triples:
            assert tr.n == n
            assert is_commuting(tr)
            assert is_stable(tr)
            assert support_cycle(tr) == SupportCycle({(G(0), G(0)): n})
            assert in_bidisk(tr)
        # pairwise non-conjugate: distinguished by the dimension profile of
        # ker(A^k) together with ker(B^k)
        profiles = set()
        for tr in triples:
            prof = tuple(
                (len(kernel_basis(matrices.mat_pow(tr.a, k))),
                 len(kernel_basis(matrices.mat_pow(tr.b, k))))
                for k in range(1, n + 1))
            profiles.add(prof)
        assert len(profiles) == len(triples)


def test_monomial_triples_commute_and_stable_to_ten():
    for n in (9, 10):
        for mu in partitions_of(n):
            tr = from_monomial_ideal(mu)
            assert is_commuting(tr)
            assert is_stable(tr)


@pytest.mark.parametrize("mu, message", [
    ((2, 0, 1), "bad part 0 in (2, 0, 1)"),
    ((), "a partition needs at least one part"),
    ((0,), "bad part 0 in (0,)"),
    ((1, 2), "bad part 2 in (1, 2)"),
], ids=["inner_zero", "empty", "only_zero", "increasing"])
def test_from_monomial_ideal_rejects_a_non_partition(mu, message):
    with pytest.raises(ValueError) as info:
        from_monomial_ideal(mu)
    assert type(info.value) is ValueError  # not NotCommuting
    assert str(info.value).startswith(message)


def test_monomial_staircase_convention():
    assert staircase_cells(Partition((2,))) == \
        [(0, 0), (0, 1)]
    tr = from_monomial_ideal(Partition((2,)))
    # basis {1, y}: multiplication by x is zero, by y is the shift
    assert all(x.is_zero() for row in tr.a for x in row)
    assert tr.b[1][0] == G(1)
    assert tr.v == (G(1), G(0))


def test_bidisk():
    assert in_bidisk(from_monomial_ideal(Partition((2, 1))))
    tr = MatrixTriple([[1]], [[0]], [1])
    assert not in_bidisk(tr)        # modulus exactly 1 excluded
    tr = MatrixTriple([[G(Fraction(1, 2))]], [[G(Fraction(1, 2))]], [1])
    assert in_bidisk(tr)


def test_retract_identity_at_zero():
    tr = MatrixTriple([[0, 0], [0, 0]], [[0, 0], [0, 0]], [1, 0])
    assert retract(tr) == tr


def test_retract_exact_rational_modulus():
    tr = MatrixTriple([[G(Fraction(1, 2))]], [[G(0)]], [G(1)])
    out = retract(tr)
    assert out.a == ((G(1),),)
    assert out.v == tr.v
    # 3/4 + i/1... modulus of 3/5 + 4/5 i is exactly 1: rejected
    z = G(Fraction(3, 5), Fraction(4, 5))
    with pytest.raises(NotInBidisk):
        retract(MatrixTriple([[z]], [[G(0)]], [G(1)]))


def test_retract_preserves_structure_and_commutes_with_conjugation():
    rng = random.Random(4)
    half = Fraction(1, 2)
    da = [[G(half), G(0)], [G(0), G(Fraction(-1, 4), Fraction(1, 4))]]
    db = [[G(Fraction(1, 3)), G(0)], [G(0), G(0, half)]]
    tr = MatrixTriple(da, db, [G(1), G(1)])
    out = retract(tr)
    assert is_commuting(out)
    assert is_stable(out)
    g = rand_invertible(rng, 2)
    # the scale factor depends only on the spectrum, so the two orders agree
    assert retract(tr.conjugate_by(g)) == retract(tr).conjugate_by(g)


def test_retract_approximate_sqrt_is_one_sided():
    # eigenvalue 1/2 + 1/3 i has irrational modulus
    z = G(Fraction(1, 2), Fraction(1, 3))
    tr = MatrixTriple([[z]], [[G(0)]], [G(1)])
    prec = Fraction(1, 10 ** 8)
    out = retract(tr, precision=prec)
    scale = out.a[0][0] / z
    assert scale.im == 0
    phi_hat = 1 - Fraction(1) / scale.re
    s = z.norm_sq()
    assert phi_hat * phi_hat >= s
    assert (phi_hat - prec) * (phi_hat - prec) < s


def test_torus_action():
    tr = from_monomial_ideal(Partition((2, 1)))
    assert torus_scale(G(1), G(1), tr) == tr
    with pytest.raises(ZeroScalar):
        torus_scale(G(0), G(1), tr)
    l1, l2 = G(2), G(0, 1)
    scaled = torus_scale(l1, l2, tr)
    # fixed point: scaling is conjugation by the diagonal matrix of torus
    # weights l1^x l2^y over the staircase cells (x, y)
    cells = staircase_cells(Partition((2, 1)))
    g = [[_pow(l1, x) * _pow(l2, y) if i == j else G(0) for j in range(
        len(cells))] for i, (x, y) in enumerate(cells)]
    conj = tr.conjugate_by(g)
    assert conj.a == scaled.a and conj.b == scaled.b
    # invariants scale by l1^k l2^l
    tr2 = MatrixTriple([[1, 0], [0, 2]], [[3, 0], [0, 4]], [1, 1])
    sc2 = torus_scale(l1, l2, tr2)
    for k in range(3):
        for l in range(3 - k):
            lhs = trace_invariant(sc2, k, l)
            rhs = _pow(l1, k) * _pow(l2, l) * trace_invariant(tr2, k, l)
            assert lhs == rhs


def _pow(z, k):
    out = G(1)
    for _ in range(k):
        out = out * z
    return out


def test_gl_invariance_random():
    rng = random.Random(8)
    tr = MatrixTriple([[1, 1], [0, 2]], [[3, 1], [0, 4]], [1, 1])
    assert is_commuting(tr)
    base_cycle = support_cycle(tr)
    for _ in range(25):
        g = rand_invertible(rng, 2)
        conj = tr.conjugate_by(g)
        for k in range(3):
            for l in range(3 - k):
                assert trace_invariant(conj, k, l) == trace_invariant(tr, k, l)
        assert support_cycle(conj) == base_cycle
        assert is_stable(conj) == is_stable(tr)


def test_conjugate_by_is_the_plain_conjugation():
    rng = random.Random(13)
    for n in (1, 2, 3):
        a, b = ([[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        v = [rand_scalar(rng) for _ in range(n)]
        g = rand_invertible(rng, n)
        gi = invert(g)
        conj = MatrixTriple(a, b, v).conjugate_by(g)
        assert conj.a == mat_mul(mat_mul(g, a), gi)
        assert conj.b == mat_mul(mat_mul(g, b), gi)
        assert conj.v == tuple(sum((x * y for x, y in zip(row, v)), G(0))
                               for row in g)


@pytest.mark.parametrize("size", (2, 4))
def test_conjugate_by_a_wrong_size_raises(size):
    # a 2 x 2 conjugator once returned a 2 x 2 triple, a 4 x 4 one raised
    # IndexError
    tr = from_monomial_ideal((2, 1))
    with pytest.raises(ValueError, match="conjugator must be 3 x 3"):
        tr.conjugate_by(identity(size))
    with pytest.raises(ValueError, match="conjugator must be 3 x 3"):
        tr.conjugate_by([row + (G(0),) for row in identity(3)])


def test_triple_file_round_trip():
    z = G(Fraction(1, 2), Fraction(-3, 4))
    tr = MatrixTriple([[z, G(1)], [G(0), G(2, 1)]],
                      [[G(5), G(0)], [G(0), G(5)]],
                      [G(1), G(0, 1)])
    text = write_triple(tr)
    assert read_triple(text) == tr
    with pytest.raises(ValueError):
        read_triple("2 1 0 0 1")       # wrong token count
    with pytest.raises(ValueError):
        read_triple("")
    with pytest.raises(ValueError):
        read_triple("x 1 1 1")


def test_support_cycle_points_are_read_only():
    cycle = support_cycle(from_monomial_ideal((2, 1)))
    with pytest.raises(TypeError):
        cycle.points[(G(1), G(1))] = 1
    assert cycle == SupportCycle({(G(0), G(0)): 3})


# ------------------------------------ rational triples through the adhm CLI
# Written on (re, im) pairs of Fractions, apart from the code under test.

def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pairs_mat_mul(a, b):
    return [[(sum(pair_mul(x, y)[0] for x, y in zip(row, col)),
              sum(pair_mul(x, y)[1] for x, y in zip(row, col)))
             for col in zip(*b)] for row in a]


def pair_str(z):
    """The triple text and adhm output form of a scalar."""
    re, im = z
    if not im:
        return str(re)
    ims = ("" if abs(im) == 1 else str(abs(im))) + "i"
    if not re:
        return ("-" if im < 0 else "") + ims
    return str(re) + ("-" if im < 0 else "+") + ims


# few coordinates, so that blocks often share an x or a y; two lie outside
# the unit disk
COORDINATES = [(Fraction(1, 2), Fraction(0)),
               (Fraction(-1, 3), Fraction(1, 2)), (Fraction(0), Fraction(0)),
               (Fraction(3, 4), Fraction(-1)), (Fraction(2), Fraction(1, 3))]


def rational_triple(rng):
    """
    (triple text, expected adhm output) for a triple of size n <= 6: a
    block sum of monomial triples moved to distinct Gaussian-rational
    points, conjugated by G = a product of I + c E_ij with Gaussian
    integers c, so G is unimodular and G^-1 the product of the I - c E_ij
    in reverse.  The support is the block points with the block sizes, and
    Tr(A^k B^l) = sum m x^k y^l.
    """
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    blocks, n = {}, 0
    while n < 6 and (not blocks or rng.random() < 0.6):
        size = rng.randint(1, 6 - n)
        point = tuple(rng.choice(COORDINATES) for _ in "xy")
        if point not in blocks:
            blocks[point] = rng.choice(list(partitions_of(size))).nu
            n += size
    a, b = ([[zero] * n for _ in range(n)] for _ in "ab")
    v = []
    for (x, y), mu in blocks.items():
        cells = [(i, j) for i, part in enumerate(mu) for j in range(part)]
        at = {c: len(v) + k for k, c in enumerate(cells)}
        for (i, j), k in at.items():
            a[k][k], b[k][k] = x, y
            if (i + 1, j) in at:
                a[at[(i + 1, j)]][k] = one
            if (i, j + 1) in at:
                b[at[(i, j + 1)]][k] = one
        v += [one] + [zero] * (len(cells) - 1)
    g, gi = ([[one if i == j else zero for j in range(n)] for i in range(n)]
             for _ in "gh")
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1)))
        e, ei = ([[one if r == s else zero for s in range(n)]
                  for r in range(n)] for _ in "ef")
        e[i][j], ei[i][j] = c, (-c[0], -c[1])
        g, gi = pairs_mat_mul(g, e), pairs_mat_mul(ei, gi)
    a, b = (pairs_mat_mul(pairs_mat_mul(g, m), gi) for m in (a, b))
    v = [row[0] for row in pairs_mat_mul(g, [[z] for z in v])]
    text = "\n".join([str(n)] + [" ".join(map(pair_str, row))
                                 for row in a + b + [v]]) + "\n"

    support = sorted((point, sum(mu)) for point, mu in blocks.items())
    rows = [("key", "value"), ("size", n), ("commuting", True),
            ("stable", True),
            ("support", " + ".join("%d*(%s,%s)" % (m, pair_str(x), pair_str(y))
                                   for (x, y), m in support)),
            ("in_bidisk", all(z[0] ** 2 + z[1] ** 2 < 1
                              for point, _ in support for z in point))]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            t = zero
            for (x, y), m in support:
                term = (Fraction(m), Fraction(0))
                for z in [x] * k + [y] * l:
                    term = pair_mul(term, z)
                t = (t[0] + term[0], t[1] + term[1])
            rows.append(("trace[%d,%d]" % (k, l), pair_str(t)))
    return text, "".join("\t".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("seed", range(12))
def test_rational_triples_give_their_support_stability_and_traces(
        seed, tmp_path, capsys):
    text, expect = rational_triple(random.Random(seed))
    path = tmp_path / "triple.txt"
    path.write_text(text)
    assert main(["adhm", "--triple", str(path)]) == 0
    assert capsys.readouterr() == (expect, ""), text
