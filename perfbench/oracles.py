"""Reference values built from mpmath and exact fractions only.

Nothing here imports cotzeta: every value is computed from the defining
series, the paper's closed forms or mpmath's own special functions, so a
wrong answer from one of cotzeta's numeric layers cannot cancel against the
same mistake in its reference.  All numeric oracles run at ``DPS`` digits,
far beyond any target the workloads request.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import mpmath as mp

DPS = 50


def _bern(n: int) -> Fraction:
    """Bernoulli number with B_1 = -1/2."""
    p, q = mp.bernfrac(n)
    return Fraction(int(p), int(q))


def _bern_zeroed(n: int) -> Fraction:
    return Fraction(0) if n == 1 else _bern(n)


def _sign_odd(n: int) -> int:
    """i^(n-1) for odd n, a real sign."""
    return -1 if (n - 1) // 2 % 2 else 1


def _frac(f: Fraction):
    return mp.mpf(f.numerator) / f.denominator


# ---------------------------------------------------------------------------
# Cotangent-Hurwitz sums and the reciprocity left-hand sides
# ---------------------------------------------------------------------------

def bc_sum(a, h: int, k: int):
    """c_a(h/k) = k^a sum_{l=1}^{k-1} zeta(-a, l/k) cot(pi h l / k)."""
    with mp.workdps(DPS):
        a = mp.mpc(a)
        total = mp.mpc(0)
        for l in range(1, k):
            total += mp.zeta(-a, mp.mpf(l) / k) * mp.cot(mp.pi * h * l / k)
        return mp.mpc(k) ** a * total


def thm12_lhs(a, h: int, k: int):
    """h^(1-a) c_{-a}(h/k) + k^(1-a) c_{-a}(k/h)."""
    with mp.workdps(DPS):
        a = mp.mpc(a)
        return (mp.mpf(h) ** (1 - a) * bc_sum(-a, h, k)
                + mp.mpf(k) ** (1 - a) * bc_sum(-a, k, h))


def cor23_closed_form(n: int, h: int, k: int):
    """Downward cot-cot integral at odd n > 1:
    2 (2 pi i)^n / (h k (n+1)!) sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m}."""
    total = sum(comb(n + 1, m) * _bern_zeroed(m) * _bern_zeroed(n + 1 - m)
                * Fraction(h) ** m * Fraction(k) ** (n + 1 - m)
                for m in range(n + 2))
    coeff = Fraction(2 * 2 ** n, h * k * factorial(n + 1)) * total
    with mp.workdps(DPS):
        return _frac(coeff) * mp.pi ** n * mp.mpc(0, 1) ** n


def _cot_deriv(m: int, w):
    c = mp.cot(w)
    if m == 0:
        return c
    if m == 1:
        return -(1 + c * c)
    if m == 2:
        return 2 * c * (1 + c * c)
    raise ValueError("derivative orders above 2 are not used")


def cor33_rhs(n: int, ks, ms):
    """-pi i times the residue at 0 of prod_j cot^(m_j)(pi k_j z) / z^(n + m0),
    the closed form of the collapsed line integral.  The residue is the mean
    of f(z) z over N points of the circle |z| = 1/(2 max k), inside every
    other pole; the trapezoidal rule on it converges like 2^-N."""
    with mp.workdps(DPS):
        s = n + ms[0]
        r = mp.mpf(1) / (2 * max(ks))
        N = 4 * DPS
        total = mp.mpc(0)
        for j in range(N):
            z = r * mp.expjpi(mp.mpf(2 * j) / N)
            prod = mp.mpc(1)
            for kj, mj in zip(ks, ms[1:]):
                prod *= _cot_deriv(mj, mp.pi * kj * z)
            total += prod * z ** (1 - s)
        return -1j * mp.pi * total / N


# ---------------------------------------------------------------------------
# Exact closed forms (sweep workload)
# ---------------------------------------------------------------------------

def _sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


@lru_cache(maxsize=None)
def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{m=1}^{k-1} ((m/k)) ((mh/k))."""
    return sum((_sawtooth(Fraction(m, k)) * _sawtooth(Fraction(m * h, k))
                for m in range(1, k)), Fraction(0))


@lru_cache(maxsize=None)
def coprime_pairs(limit: int):
    return [(h, k) for k in range(1, limit + 1) for h in range(1, limit + 1)
            if gcd(h, k) == 1]


def _scaled(coeff: Fraction, pi_power: int, i_power: int) -> tuple:
    """(coefficient, pi power, i power) in the normal form the CLI prints:
    zero is (0, 0, 0) and the i power is 0 or 1."""
    if coeff == 0:
        return (Fraction(0), 0, 0)
    if i_power % 4 >= 2:
        coeff = -coeff
    return (coeff, pi_power, i_power % 2)


@lru_cache(maxsize=None)
def thm13_rhs(n: int, h: int, k: int) -> tuple:
    """(2 pi i / hk)^n / (i (n+1)!) (n B_{n+1} + sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m})."""
    bracket = n * _bern(n + 1) + sum(
        comb(n + 1, m) * _bern(m) * _bern(n + 1 - m)
        * Fraction(h) ** m * Fraction(k) ** (n + 1 - m) for m in range(n + 2))
    coeff = Fraction(_sign_odd(n) * 2 ** n, factorial(n + 1)) * bracket / Fraction(h * k) ** n
    return _scaled(coeff, n, 0)


@lru_cache(maxsize=None)
def psi_g_table(n: int) -> dict:
    """{(kind, exponent): (coefficient, pi power, i power)} for the odd-order
    period polynomial psi_{-n} and its analytic part g_{-n}."""
    scale = Fraction(_sign_odd(n) * 2 ** n, factorial(n + 1))
    rows = {}
    for m in range(n + 2):
        c = comb(n + 1, m) * _bern_zeroed(m) * _bern_zeroed(n + 1 - m)
        if c:
            rows[("psi", m - 1)] = _scaled(scale * c, n, 1)
    for m in range(n + 1):
        c = comb(n + 1, m + 1) * _bern_zeroed(m + 1) * _bern_zeroed(n - m)
        if c:
            rows[("g", m)] = _scaled(scale * c, n, 0)
    return rows


# ---------------------------------------------------------------------------
# Twisted sums: Lerch, Estermann, Apostol-Bernoulli
# ---------------------------------------------------------------------------

def lerch(s, z, p: int, q: int):
    """Phi(s, z, e(p/q)) = sum_{n>=0} e(np/q) (z+n)^(-s)."""
    with mp.workdps(DPS):
        return mp.lerchphi(mp.expjpi(mp.mpf(2 * p) / q), s, z)


def estermann(s, p: int, q: int, a):
    """E(s, p/q, a) = q^(a-2s) sum_{m,n=1}^{q} e(mnp/q) zeta(s-a, m/q) zeta(s, n/q)."""
    with mp.workdps(DPS):
        s = mp.mpc(s)
        a = mp.mpc(a)
        zl = [mp.zeta(s - a, mp.mpf(m) / q) for m in range(1, q + 1)]
        zr = [mp.zeta(s, mp.mpf(n) / q) for n in range(1, q + 1)]
        total = mp.mpc(0)
        for m in range(1, q + 1):
            for n in range(1, q + 1):
                total += mp.expjpi(mp.mpf(2 * m * n * p) / q) * zl[m - 1] * zr[n - 1]
        return mp.mpc(q) ** (a - 2 * s) * total


def zeta_neg_int(k: int) -> Fraction:
    """zeta(-k) = (-1)^k B_{k+1}/(k+1), k >= 0."""
    return (-1) ** k * _bern(k + 1) / (k + 1)


def cor45_rhs(a: int, k: int, q: int):
    """(q^k - q^a) zeta(-k) zeta(-a)."""
    with mp.workdps(DPS):
        return _frac((Fraction(q) ** k - Fraction(q) ** a) * zeta_neg_int(k) * zeta_neg_int(a))


def apostol_bernoulli_at_zero(k: int, p: int, q: int):
    """B_k(0; lambda), lambda = e(p/q): k! times the t^k Taylor coefficient of
    t / (lambda e^t - 1)."""
    with mp.workdps(DPS):
        lam = mp.expjpi(mp.mpf(2 * p) / q)
        coeffs = mp.taylor(lambda t: t / (lam * mp.exp(t) - 1), 0, k)
        return coeffs[k] * mp.factorial(k)


def lemma42_lhs(s, z, n: int, p: int, q: int):
    """sum_{m=0}^{q-1} e(mnp/q) zeta(s, z + m/q)."""
    with mp.workdps(DPS):
        z = mp.mpf(z)
        return sum((mp.expjpi(mp.mpf(2 * m * n * p) / q) * mp.zeta(s, z + mp.mpf(m) / q)
                    for m in range(q)), mp.mpc(0))
