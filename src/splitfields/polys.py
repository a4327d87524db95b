"""Polynomials with coefficients in an exact field.

Polynomials are little-endian lists of field elements with no trailing zeros.
Factorization over finite fields is brute-force trial division (desk scale):
it raises ``TooLarge`` once a degree level has more than ``_BRUTE_FORCE_CAP``
candidate divisors, and so does the irreducibility check of every finite-field
modulus, which goes through ``is_irreducible``.  Over QQ and number fields it
delegates to sympy's exact routines and converts the coefficients back into
our coordinate representation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd as _int_gcd

from .errors import BadParams, TooLarge
from .fields import RATIONALS

_BRUTE_FORCE_CAP = 1_000_000  # candidate divisors per degree level


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def degree(coeffs):
    return len(trim(coeffs)) - 1


def poly_divmod(a, b, F):
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = b[-1].inverse()
    while len(r) >= len(b):
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - len(b)
        c = r[-1] * inv
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = r[k + j] - c * y
        r.pop()
    return trim(q), trim(r)


def monic(a, F):
    a = trim(a)
    if not a:
        return a
    inv = a[-1].inverse()
    return [inv * c for c in a]


def eval_at(coeffs, a):
    acc = a.field.zero()
    for c in reversed(trim(coeffs)):
        acc = acc * a + c
    return acc


def eval_matrix(coeffs, M):
    """The matrix polynomial f(M)."""
    from .linalg import Matrix

    out = Matrix.zeros(M.field, M.rows, M.cols)
    power = Matrix.identity(M.field, M.rows)
    for i, c in enumerate(trim(coeffs)):
        if c:
            out = out + power.scale(c)
        if i + 1 < len(trim(coeffs)):
            power = power @ M
    return out


def poly_key(coeffs):
    return tuple(c.coords for c in coeffs)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def factor(coeffs, F):
    """Monic irreducible factors with multiplicities, deterministically ordered.

    The product of the factors (with multiplicities) equals the monic
    normalization of the input.
    """
    coeffs = trim(coeffs)
    if degree(coeffs) < 1:
        raise BadParams("cannot factor a constant")
    f = monic(coeffs, F)
    if F.characteristic:
        factors = _factor_finite(f, F)
    else:
        factors = _factor_char0(f, F)
    factors.sort(key=lambda gm: (degree(gm[0]), poly_key(gm[0])))
    return factors


def is_irreducible(coeffs, F):
    fs = factor(coeffs, F)
    return len(fs) == 1 and fs[0][1] == 1


def _factor_finite(f, F):
    out = []
    q = F.order
    rest = f
    d = 1
    while degree(rest) > 0:
        if 2 * d > degree(rest):
            out.append((rest, 1))
            break
        if q ** d > _BRUTE_FORCE_CAP:
            raise TooLarge("finite-field factorization exceeds the desk-scale cap")
        # each divisor is divided out completely, so no factor repeats and
        # no factor of degree d is left once the scan moves on
        for tail in product(*[list(F.elements())] * d):
            g = list(tail) + [F.one()]
            quo, rem = poly_divmod(rest, g, F)
            if rem:
                continue
            mult = 1
            rest = quo
            while True:
                quo, rem = poly_divmod(rest, g, F)
                if rem:
                    break
                mult += 1
                rest = quo
            out.append((g, mult))
        d += 1
    return out


@cache
def _sympy_field(F):
    """sympy's domain for F, built once per field (descriptors are interned)."""
    import sympy

    if F.kind == RATIONALS:
        return sympy.QQ
    x = sympy.Symbol("x")
    den = 1
    for c in F.modulus:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    int_poly = sum(int(c * den) * x ** i for i, c in enumerate(F.modulus))
    alpha = sympy.CRootOf(sympy.Poly(int_poly, x), 0)
    return sympy.QQ.algebraic_field(alpha)


def _to_sympy_rat(c):
    import sympy

    return sympy.Rational(c.numerator, c.denominator)


def _factor_char0(f, F):
    import sympy

    x = sympy.Symbol("x")
    K = _sympy_field(F)
    if F.kind == RATIONALS:
        poly = sympy.Poly([_to_sympy_rat(c.coords[0]) for c in reversed(f)],
                          x, domain=K)
    else:
        coeffs = [K(list(reversed([_to_sympy_rat(v) for v in c.coords])))
                  for c in reversed(f)]
        poly = sympy.Poly(coeffs, x, domain=K)
    out = []
    for g, mult in poly.factor_list()[1]:
        # the domain elements themselves: converting g's sympy expressions
        # back would make sympy rebuild the number field for each of them
        elems = [_from_sympy_coeff(c, F, K) for c in reversed(g.rep.to_list())]
        out.append((monic(elems, F), mult))
    return out


def _from_sympy_coeff(c, F, K):
    if F.kind == RATIONALS:
        r = K.to_sympy(c)
        return F.from_base(Fraction(int(r.p), int(r.q)))
    dn = list(reversed(c.to_list()))  # ascending powers of the generator
    coords = [Fraction(int(v.numerator), int(v.denominator)) for v in dn]
    return F.element(coords)
