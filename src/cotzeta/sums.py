"""Direct evaluation of the cotangent-Hurwitz sums.

The central object is

    c_a(h/k) = k^a sum_{m=1}^{k-1} cot(pi m h / k) zeta(-a, m/k),

together with its generalization carrying a zeta x-derivative of order m_0 and
several cotangent-derivative factors (matrix notation: modulus k_0 over
derivative order m_0, paired with inner moduli k_1..k_n over orders m_1..m_n),
and the Lerch-weighted derivative cotangent sums C(a, k, x) used for Estermann
zeta evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from . import exact, specfn
from .errors import DomainError
from .specfn import ComplexVal, PrecisionConfig, DEFAULT_PRECISION


@dataclass(frozen=True)
class RationalArg:
    """A reduced rational p/q with q > 0, the twist argument x of e(x)."""

    p: int
    q: int

    def __post_init__(self):
        if self.q == 0:
            raise DomainError("RationalArg needs q != 0")
        p, q = self.p, self.q
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q) or 1
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)

    @classmethod
    def parse(cls, text: str) -> "RationalArg":
        f = Fraction(text)
        return cls(f.numerator, f.denominator)

    def __str__(self):
        return f"{self.p}/{self.q}"

    def checked_twist(self, op: str) -> "RationalArg":
        """This argument, refused for ``op`` unless it is a proper twist (q > 1)."""
        if self.q <= 1:
            raise DomainError(f"{op} needs a twist p/q with q > 1, got {self}")
        return self


def _e_twist(numerator: int, q: int):
    """e(numerator/q) = exp(2 pi i numerator / q) at current precision."""
    return mp.expjpi(mp.mpf(2 * numerator) / q)


@dataclass(frozen=True)
class BCSumSpec:
    """Matrix data (a; k0 | k1..kn; m0 | m1..mn) of a generalized sum.

    Constructor enforces the pole-free conditions once: gcd(k0, kj) = 1 keeps
    every cotangent factor finite at the summation points, a != -1 and
    m0 - a != 1 keep the zeta factor off its pole.
    """

    a: complex
    k0: int
    ks: tuple[int, ...]
    ms: tuple[int, ...]  # length len(ks) + 1, zeta-derivative order first

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        object.__setattr__(self, "ms", tuple(int(m) for m in self.ms))
        if self.k0 < 1 or any(k < 1 for k in self.ks):
            raise DomainError("moduli must be positive integers")
        if len(self.ms) != len(self.ks) + 1:
            raise DomainError("need one derivative order per factor, zeta first")
        if any(m < 0 for m in self.ms):
            raise DomainError("derivative orders must be nonnegative")
        for k in self.ks:
            if gcd(self.k0, k) != 1:
                raise DomainError(
                    f"modulus {k} is not coprime to k0 = {self.k0}; "
                    "a cotangent factor would hit a pole")
        a = complex(self.a)
        if a == -1:
            raise DomainError("a = -1 puts the Hurwitz zeta factor on its pole")
        if a == self.ms[0] - 1:
            raise DomainError(
                f"-a + m0 = 1 (a = {a}, m0 = {self.ms[0]}): "
                "the differentiated zeta factor sits on its pole")

    def to_json(self) -> dict:
        with mp.workdps(30):
            ac = mp.mpc(self.a)
            return {
                "a": {"re": mp.nstr(ac.real, 17), "im": mp.nstr(ac.imag, 17)},
                "k0": self.k0,
                "k": list(self.ks),
                "m": list(self.ms),
            }


def bc_sum_general(spec: BCSumSpec, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Evaluate the generalized sum

        k0^a sum_{l=1}^{k0-1} zeta^(m0)(-a, l/k0) prod_j cot^(mj)(pi kj l / k0).

    zeta^(m0) is the m0-th x-derivative; cot^(mj) is the mj-th derivative of
    cot evaluated at the displayed point (no chain-rule factor).
    """
    cfg = cfg or DEFAULT_PRECISION
    k0 = spec.k0
    if k0 == 1:
        return ComplexVal(0, 0)
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        ac = mp.mpc(spec.a)
        total = ComplexVal(0, 0)
        for l in range(1, k0):
            zfac = specfn.hurwitz_zeta_x_deriv(spec.ms[0], -ac, mp.mpf(l) / k0, cfg)
            term = zfac
            for kj, mj in zip(spec.ks, spec.ms[1:]):
                term = term * specfn.cot_derivative(mj, mp.pi * kj * l / mp.mpf(k0), cfg)
            total = total + term
        return total.scaled(mp.mpc(k0) ** ac)


def bc_sum(a, h: int, k: int, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """c_a(h/k) for coprime h, k >= 1; a != -1.

    A negative numerator uses the oddness rule c_a(-h/k) = -c_a(h/k); k = 1
    gives the empty sum, exactly zero.
    """
    if h < 0:
        return -bc_sum(a, -h, k, cfg)
    if h == 0:
        raise DomainError("bc_sum needs a nonzero numerator")
    exact._require_coprime_positive(h, k, "bc_sum")
    if k == 1:
        return ComplexVal(0, 0)
    spec = BCSumSpec(a=a, k0=k, ks=(h,), ms=(0, 0))
    return bc_sum_general(spec, cfg)


def bc_sum_higher(a, k0: int, ks, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Higher-dimensional sum: all derivative orders zero."""
    ks = tuple(ks)
    spec = BCSumSpec(a=a, k0=k0, ks=ks, ms=(0,) * (len(ks) + 1))
    return bc_sum_general(spec, cfg)


def cotangent_sum_C(a: int, k: int, x: RationalArg,
                    cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Derivative cotangent sum C(a, k, x) for nonnegative integers a, k.

    Defined through the Lerch transcendent,

        C(a, k, x) = q^a sum_{m=1}^{q-1} e(mx) Phi(-k, 1, e(mx)) zeta(-a, m/q),

    where x = p/q reduced, q > 1.  Phi at nonpositive integer order comes from
    the Apostol-Bernoulli closed form; for k >= 1 this collapses to
    -(2i)^-(k+1) q^a sum cot^(k)(pi m p / q) zeta(-a, m/q), and for k = 0 the
    Phi factor contributes the extra -1/2 beside the cotangent term.
    zeta(-a, m/q) is evaluated exactly through Bernoulli polynomials.

    The terms m and q - m are summed together: lambda_(q-m) = conj lambda_m
    makes w = lambda Phi(-k, 1, lambda) conjugate too, and
    zeta(-a, 1 - y) = (-1)^(a+1) zeta(-a, y), so the pair is
    zeta(-a, m/q) (w + (-1)^(a+1) conj w), that is 2 Re w for odd a and
    2i Im w for even a.  One Lerch value serves each pair (the term
    m = q/2 of an even q stands alone, where w is real and zeta(-a, 1/2)
    vanishes for even a), and C is exactly real for odd a and exactly
    imaginary for even a.  The pair's error, 2 |zeta| err w + |2 Re w| err
    zeta (Im w for even a), is at most what the two terms carry apart.
    """
    if a < 0 or k < 0:
        raise DomainError("cotangent_sum_C needs nonnegative integer orders")
    q = x.checked_twist("cotangent_sum_C").q
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        total = ComplexVal(0, 0)
        for m in range(1, q // 2 + 1):
            lam = _e_twist(m * x.p, q)
            w = specfn.lerch_phi(-k, 1, lam, cfg).scaled(lam)
            zeta = ComplexVal.from_exact(exact.zeta_neg_int(a, Fraction(m, q)), cfg)
            # (w + (-1)^(a+1) conj w) / 2, counted twice unless m = q - m.
            half = mp.mpc(w.re) if a % 2 else mp.mpc(0, w.im)
            weight = 1 if 2 * m == q else 2
            total = total + ComplexVal(weight * half, weight * w.abs_err) * zeta
        return total.scaled(mp.mpf(q) ** a)


def cotangent_sum_C_trig(a: int, k: int, x: RationalArg,
                         cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Trigonometric closed form of C(a, k, x) for k >= 1:

        -(2i)^-(k+1) q^a sum_{m=1}^{q-1} cot^(k)(pi m p / q) zeta(-a, m/q).

    Independent of the Lerch route (cotangent-derivative polynomials versus
    the Apostol-Bernoulli recurrence), which makes it a useful cross-check.
    """
    if k < 1:
        raise DomainError("the trigonometric form needs derivative order k >= 1")
    if a < 0:
        raise DomainError("cotangent_sum_C_trig needs a >= 0")
    q = x.checked_twist("cotangent_sum_C_trig").q
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        total = ComplexVal(0, 0)
        for m in range(1, q):
            cd = specfn.cot_derivative(k, mp.pi * m * x.p / mp.mpf(q), cfg)
            zeta_exact = specfn._real_mpf(exact.zeta_neg_int(a, Fraction(m, q)))
            total = total + cd * zeta_exact
        return total.scaled(-mp.mpf(q) ** a / (2j) ** (k + 1))
