"""
The bounded root search behind linalg.gaussian_rational_roots, loaded only
for a factor of degree at least one with no root at zero: a nilpotent
matrix, such as each of a monomial triple's, never reaches it.  Roots are
searched once each, on the square-free part made monic (a linear part
needs no search): a root num/den has num dividing the cleared constant
and den the cleared leading coefficient over Z[i], both found from the
factorisation of a norm, and lies in Cauchy's bound.  Multiplicities come
from exact divisions of the polynomial by z - root.  Everything is pure.
"""

from itertools import count
from math import isqrt, lcm

from ._base import IdentityFailed
from .linalg import ONE, ZERO, GaussianRational, SpectrumNotSplit

# Gaussian integers with norm above this bound are not searched for roots.
ROOT_SEARCH_NORM_BOUND = 10 ** 12


def nonzero_roots(p):
    """
    (rest, {root: multiplicity}) of a polynomial p (GaussianRational
    coefficients ascending) of degree at least one with p(0) != 0: each
    root the bounded search finds, divided out of p as often as z - root
    divides it exactly.  rest is what is left, of degree 0 when p splits.
    """
    mult = {}
    for root in _distinct_roots(p):
        while len(p) > 1 and not (div := _poly_divmod(p, [-root, ONE]))[1]:
            p, mult[root] = div[0], mult.get(root, 0) + 1
        if root not in mult:
            raise IdentityFailed("the root %s of the square-free part does "
                                 "not divide the polynomial" % (root,))
    return p, mult


def _poly_divmod(a, b):
    # (quotient, remainder without leading zeros) of a by b, by long division
    a, inv = list(a), ONE / b[-1]
    quot = [ZERO] * (len(a) + 1 - len(b))
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = a.pop() * inv
        for j, y in enumerate(b[:-1], i):
            a[j] = a[j] - c * y
    while a and a[-1].is_zero():
        a.pop()
    return quot, a


def _factor(n):
    # {prime: exponent} of a positive integer, by trial division
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _two_squares(p):
    # (a, b) with a*a + b*b == p for a prime p = 1 (mod 4): a square root
    # of -1 mod p, then the Euclidean algorithm on (p, root) down to sqrt(p)
    a, b = p, next(r for r in (pow(c, (p - 1) // 4, p) for c in count(2))
                   if r * r % p == p - 1)
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def _times(divisors, q, k):
    # each Gaussian integer d of divisors times q^0, ..., q^k, all (re, im)
    out = []
    for dr, di in divisors:
        for _ in range(k + 1):
            out.append((dr, di))
            dr, di = dr * q[0] - di * q[1], dr * q[1] + di * q[0]
    return out


def gaussian_integer_divisors(g):
    """
    Divisors of a nonzero Gaussian integer, one per associate class
    (normalized to the closed first quadrant minus the positive imaginary
    axis), sorted by norm, then real and imaginary part.  Built from the
    factorisation of the norm N(g): 2 gives powers of 1+i, a prime
    p = 3 (mod 4) divides g as p^(e/2), and a prime p = 1 (mod 4) splits as
    (a+bi)(a-bi), with the exponent of each factor in g found by exact
    division.  Raises ValueError unless g is a nonzero Gaussian integer.
    """
    if type(g.re) is not int or type(g.im) is not int:
        raise ValueError("%s is not a Gaussian integer" % (g,))
    n = g.norm_sq()
    if n == 0:
        raise ValueError("zero has no divisor list")
    if n > ROOT_SEARCH_NORM_BOUND:
        raise SpectrumNotSplit(
            "norm %d exceeds the root search bound %d"
            % (n, ROOT_SEARCH_NORM_BOUND))
    divisors = [(1, 0)]
    for p, e in _factor(n).items():
        if p == 2:
            divisors = _times(divisors, (1, 1), e)
        elif p % 4 == 3:
            divisors = _times(divisors, (p, 0), e // 2)
        else:
            a, b = _two_squares(p)
            rest = (g.re, g.im)
            for q in ((a, b), (a, -b)):
                k = 0
                while k < e:
                    # rest / q = rest * conj(q) / p, exact when p divides both
                    re = rest[0] * q[0] + rest[1] * q[1]
                    im = rest[1] * q[0] - rest[0] * q[1]
                    if re % p or im % p:
                        break
                    rest = (re // p, im // p)
                    k += 1
                divisors = _times(divisors, q, k)
    out = set()
    for re, im in divisors:
        while re <= 0 or im < 0:  # the associate with re > 0, im >= 0
            re, im = -im, re
        out.add(GaussianRational(re, im))
    return sorted(out, key=lambda z: (z.norm_sq(), z.re, z.im))


def _distinct_roots(p):
    # the roots of p, p(0) != 0, that the bounded search finds, each once,
    # on the square-free part q = p / gcd(p, p') made monic (so cleared, it
    # has no Gaussian content): a root num/den has num | q(0), den | lead
    # over Z[i] and lies in Cauchy's bound; Horner tests it on int pairs
    g, b = p, [c * k for k, c in enumerate(p)][1:]
    while b:
        g, b = b, _poly_divmod(g, b)[1]
    q = _poly_divmod(p, g)[0]
    q = [c / q[-1] for c in reversed(q)]  # highest first, monic
    if len(q) == 2:
        return [-q[1]]
    lead = lcm(*(f.denominator for c in q for f in (c.re, c.im)))
    ip = [(int(c.re * lead), int(c.im * lead)) for c in q]
    # each root has modulus < 1 + max |q_i| <= bound
    bound = 2 + isqrt(-(-max(c.norm_sq() for c in q[1:]) // 1))
    nums = gaussian_integer_divisors(GaussianRational(*ip[-1]))
    roots = set()
    for den in gaussian_integer_divisors(GaussianRational(lead)):
        # t[i] = ip[i] den^i, so den^d q(num/den) = sum_i t[i] num^(d-i)
        t = [(cr * pr - ci * pi, cr * pi + ci * pr) for (cr, ci), (pr, pi)
             in zip(ip, _times([(1, 0)], (den.re, den.im), len(ip) - 1))]
        for num in nums:
            if num.norm_sq() >= bound * bound * den.norm_sq():
                break  # nums ascend by norm
            nr, ni = int(num.re), int(num.im)
            for ur, ui in ((nr, ni), (-ni, nr), (-nr, -ni), (ni, -nr)):
                ar = ai = 0
                for cr, ci in t:
                    ar, ai = ar * ur - ai * ui + cr, ar * ui + ai * ur + ci
                if not (ar or ai):
                    roots.add(GaussianRational(ur, ui) / den)
                    if len(roots) == len(q) - 1:
                        return roots
    return roots
