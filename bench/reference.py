"""Reference answers derived without the code under test.

Everything here is plain integer and ``Fraction`` arithmetic from textbook
formulas: Euler's phi, multiplicative orders, Hilbert symbols and small
exact ranks.  Nothing imports ``splitfields``, so a bug in the library
cannot leak into the answers it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def phi(n):
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def prime_factors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n, p):
    """The largest power of p dividing n."""
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def mult_order(p, m):
    """The order of p in (Z/m)^*; 1 for m = 1."""
    if m == 1:
        return 1
    if _gcd(p, m) != 1:
        raise ValueError("p must be a unit modulo m")
    k, x = 1, p % m
    while x != 1:
        x = x * p % m
        k += 1
    return k


# ---------------------------------------------------------------------------
# quaternion algebras over QQ
# ---------------------------------------------------------------------------

def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def hilbert_symbol(a, b, p):
    """The local Hilbert symbol (a, b)_p for nonzero integers a, b (Serre, III.1)."""
    alpha, u = _valuation(a, p)
    beta, v = _valuation(b, p)
    if p != 2:
        sign = (-1) ** (alpha * beta * ((p - 1) // 2))
        return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha

    def eps(x):
        return ((x - 1) // 2) % 2

    def omega(x):
        return ((x * x - 1) // 8) % 2

    return (-1) ** (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u))


def quaternion_splits(a, b):
    """(a, b / QQ) is M_2(QQ) iff every local Hilbert symbol is 1.

    Only the real place and the primes dividing 2ab can be ramified.
    """
    if a < 0 and b < 0:
        return False
    return all(hilbert_symbol(a, b, p) == 1 for p in prime_factors(2 * a * b))


# ---------------------------------------------------------------------------
# expected structure of the workload families
# ---------------------------------------------------------------------------

class Expected:
    """Answers for one algebra over its ground field k.

    ``simples`` lists (dim, multiplicity in the regular module, dim End) of
    the simple modules over k; ``split_simples`` the same over the splitting
    field the search should reach, whose degree over k is ``split_degree``.
    """

    def __init__(self, radical_dim, simples, split_degree, split_simples):
        self.radical_dim = radical_dim
        self.simples = sorted(simples)
        self.split_degree = split_degree
        self.split_simples = sorted(split_simples)

    @property
    def is_split(self):
        return all(e == 1 for _, _, e in self.simples)


def expected_matrix(n):
    """M_n(k): one simple (the column space), multiplicity n, End = k."""
    return Expected(0, [(n, n, 1)], 1, [(n, n, 1)])


def expected_group_char0(n):
    """QQ[C_n] = prod over d | n of QQ(zeta_d); split by QQ(zeta_n)."""
    simples = [(phi(d), 1, phi(d)) for d in divisors(n)]
    return Expected(0, simples, phi(n), [(1, 1, 1)] * n)


def expected_group_modular(n, p):
    """GF(p)[C_n]: with n = p^a m, (p, m) = 1, the simples are those of
    GF(p)[C_m], each with multiplicity p^a, and GF(p)[C_n] splits over
    GF(p^k) for k the order of p modulo m."""
    q = p_part(n, p)
    m = n // q
    simples = []
    for d in divisors(m):
        deg = mult_order(p, d)
        simples += [(deg, q, deg)] * (phi(d) // deg)
    rad = n - m
    return Expected(rad, simples, mult_order(p, m), [(1, q, 1)] * m)


def expected_quaternion(a, b):
    if quaternion_splits(a, b):
        return Expected(0, [(2, 2, 1)], 1, [(2, 2, 1)])
    return Expected(0, [(4, 1, 4)], 2, [(2, 2, 1)])


def expected_upper(n):
    """Upper-triangular n x n: n one-dimensional simples; the simple at the
    k-th diagonal slot occurs in columns k..n, so the multiplicities are 1..n."""
    return Expected(n * (n - 1) // 2, [(1, k, 1) for k in range(1, n + 1)], 1,
                    [(1, k, 1) for k in range(1, n + 1)])


def expected_diagonal(n):
    return Expected(0, [(1, 1, 1)] * n, 1, [(1, 1, 1)] * n)


# ---------------------------------------------------------------------------
# exact linear algebra for checks
# ---------------------------------------------------------------------------

def rref(rows, p=0):
    """Reduced row echelon form over QQ (p = 0) or GF(p): (rows, pivot columns)."""
    m = [[x % p for x in r] if p else [Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [(x * inv) % p if p else x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def rank(rows, p=0):
    return len(rref(rows, p)[1])


# ---------------------------------------------------------------------------
# GF(p) helpers for the modular families
# ---------------------------------------------------------------------------

def poly_mod_p_irreducible_factors(coeffs, p):
    """Monic irreducible factors (with repetition) of a monic polynomial over
    GF(p) by trial division, smallest degree first.  Little-endian lists."""
    f = [c % p for c in coeffs]
    out = []
    d = 1
    while len(f) - 1 >= 1:
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            q, r = _divmod_p(f, g, p)
            while not any(r):
                out.append(g)
                f = q
                q, r = _divmod_p(f, g, p)
        d += 1
    return out


def _divmod_p(a, b, p):
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] % p
        k = len(a) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] = (a[k + j] - c * y) % p
        a.pop()
    return q, a


def companion(g, p):
    """Companion matrix (rows) of a monic polynomial over GF(p)."""
    d = len(g) - 1
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = (-g[i]) % p
    return m


def mat_mul_p(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def mat_pow_p(a, k, p):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul_p(out, a, p)
    return out
