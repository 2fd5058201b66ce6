"""Estermann zeta evaluation and the twisted-sum identity suite.

E(s, x, a) = sum_{n>=1} sigma_a(n) e(nx) n^(-s) for rational x = p/q, q > 1,
in three regimes: the Dirichlet series (Re s large), the finite Hurwitz
double sum (valid wherever the zeta factors avoid their poles), and closed
forms at nonpositive integer s expressed through the derivative cotangent
sums C(a, k, x).  The verifiers check the dual closed-form displays against
each other and against the Hurwitz double sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import exact, specfn, sums
from .errors import DomainError, PoleError
from .reports import VerifyResult, worst_residual
from .specfn import ComplexVal, PrecisionConfig, DEFAULT_PRECISION
from .sums import RationalArg, _e_twist


@dataclass(frozen=True)
class EstermannPoint:
    """Evaluation point (s, x, a) with x = p/q reduced, q > 1."""

    s: complex
    x: RationalArg
    a: complex

    def __post_init__(self):
        self.x.checked_twist("EstermannPoint")


def estermann_series(pt: EstermannPoint, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Direct Dirichlet series, Re(s) > max(1, Re(a) + 1).

    Truncated at N with the divisor-sum tail bound

        sum_{n>N} sigma_alpha(n) n^(-sigma)
          <= N^(1-sigma)/(sigma-1) sum_{d<=N} d^(alpha-1) + N^(-sigma) sum_{d<=N} d^alpha
             + zeta(sigma) (N^(alpha-sigma+1)/(sigma-alpha-1) + N^(alpha-sigma)),

    folded into abs_err, so slow convergence shows up as an honest budget.
    The twists e(nx) come from one table of q roots of unity (at least
    ComplexVal's 60-digit operation precision, more when wp is higher), and
    integer exponents are raised as Python ints.
    """
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        sc = mp.mpc(pt.s)
        ac = mp.mpc(pt.a)
        sigma = sc.real
        alpha = ac.real
        if not (sigma > 1 and sigma > alpha + 1):
            raise DomainError("series regime needs Re(s) > max(1, Re(a) + 1)")
        target = mp.mpf(cfg.target_abs_err) / 2
        # Choose N from the leading N^(alpha+1-sigma) decay, capped by max_terms.
        decay = sigma - alpha - 1
        N = int(min(mp.mpf(cfg.max_terms),
                    mp.ceil((4 / target) ** (1 / decay)) + 32))
        N = max(N, 32)
        sig = specfn._sigma_prefix_mpc(ac, N)
        with mp.workdps(max(wp, specfn._OP_DPS)):
            roots = mp.unitroots(pt.x.q)
        neg_s, alpha_m1, alpha_e = (specfn._power_exponent(e)
                                    for e in (-sc, alpha - 1, alpha))
        total = mp.mpc(0)
        magsum = mp.mpf(0)
        dsum_am1 = mp.mpf(0)
        dsum_a = mp.mpf(0)
        for n in range(1, N + 1):
            nf = mp.mpf(n)
            term = sig[n - 1] * roots[n * pt.x.p % pt.x.q] * nf ** neg_s
            total += term
            magsum += abs(term)
            dsum_am1 += nf ** alpha_m1
            dsum_a += nf ** alpha_e
        zs = abs(specfn.riemann_zeta(sigma, cfg).val)
        Nf = mp.mpf(N)
        tail = (Nf ** (1 - sigma) / (sigma - 1) * dsum_am1
                + Nf ** (-sigma) * dsum_a
                + zs * (Nf ** (alpha - sigma + 1) / decay + Nf ** (alpha - sigma)))
        rounding = magsum * mp.mpf(10) ** (-wp + 3)
        return ComplexVal(total, tail + rounding)


def _zeta_factor(sval, m: int, q: int, cfg: PrecisionConfig) -> ComplexVal:
    """zeta(sval, m/q); at nonpositive integer order uses the exact Bernoulli
    polynomial closed form zeta(-j, x) = -B_{j+1}(x)/(j+1)."""
    if sval.imag == 0 and mp.isint(sval.real) and sval.real <= 0:
        return ComplexVal.from_exact(exact.zeta_neg_int(int(-sval.real), Fraction(m, q)), cfg)
    return specfn.hurwitz_zeta(sval, mp.mpf(m) / q, cfg)


def estermann_hurwitz(pt: EstermannPoint, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Finite Hurwitz double-sum representation:

        E(s, x, a) = q^(a-2s) sum_{m,n=1..q} e(mnx) zeta(s-a, m/q) zeta(s, n/q)

    valid for s != 1 and s != a + 1 (the two zeta poles).

    With x = p/q, e(mnx) is read from one table of q roots of unity at index
    mnp mod q, and sum_m zeta_m (sum_n e(mnx) zeta'_n) is formed by dot
    products with exact terms, each rounded once at dps = max(wp, 60), wp =
    working_digits + 10 (60 digits is ComplexVal's operation precision).
    Since |e(mnx)| = 1, the first-order error of the term-by-term ComplexVal
    sum, plus a bound on that rounding, is

        abs_err = |q^(a-2s)| ((sum_m |zeta_m|)(sum_n err zeta'_n)
                              + (sum_m err zeta_m)(sum_n |zeta'_n|)
                              + (sum_m |zeta_m|)(sum_n |zeta'_n|) 10^(3-dps)),

    with zeta_m = zeta(s-a, m/q) and zeta'_n = zeta(s, n/q).  At the default
    30 working digits the rounding term is about 10^-22 of the rest, so the
    budget is the ComplexVal chain's; above 50 digits it is what keeps the
    budget a bound."""
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    q, p = pt.x.q, pt.x.p
    with mp.workdps(wp):
        sc = mp.mpc(pt.s)
        ac = mp.mpc(pt.a)
        if sc == 1:
            raise PoleError("estermann_hurwitz: pole at s = 1")
        if sc - ac == 1:
            raise PoleError("estermann_hurwitz: pole at s = a + 1")
        zl = [_zeta_factor(sc - ac, m, q, cfg) for m in range(1, q + 1)]
        zr = [_zeta_factor(sc, n, q, cfg) for n in range(1, q + 1)]
        zr_vals = [z.val for z in zr]
        dps = max(wp, specfn._OP_DPS)
        with mp.workdps(dps):
            roots = mp.unitroots(q)
            inner = [mp.fdot([roots[m * n * p % q] for n in range(1, q + 1)], zr_vals)
                     for m in range(1, q + 1)]
            total = mp.fdot([z.val for z in zl], inner)
            mag_l = mp.fsum(z.mag() for z in zl)
            mag_r = mp.fsum(z.mag() for z in zr)
            err = (mag_l * mp.fsum(z.abs_err for z in zr)
                   + mp.fsum(z.abs_err for z in zl) * mag_r
                   + mag_l * mag_r * mp.mpf(10) ** (3 - dps))
        return ComplexVal(total, err).scaled(mp.mpc(q) ** (ac - 2 * sc))


def estermann_nonpositive(k: int, x: RationalArg, a: int,
                          cfg: PrecisionConfig | None = None) -> ComplexVal:
    """E(-k, x, a-k) = C(a, k, x) + q^a zeta(-k) zeta(-a) for all integers
    a, k >= 0, with the Lerch-transcendent definition of C (the k = 0 instance
    carries the full q^a factor; the constant -zeta(-a)/2 variant belongs to
    the bare cotangent sum).

    As sigma_{a-k}(n) n^k = sigma_{k-a}(n) n^a, E(-k, x, a-k) = E(-a, x, k-a):
    exchanging a and k gives the dual display C(k, a, x) + q^k zeta(-k) zeta(-a).
    """
    if k < 0 or a < 0:
        raise DomainError("estermann_nonpositive needs nonnegative integers")
    x.checked_twist("estermann_nonpositive")
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        const = Fraction(x.q) ** a * exact.zeta_neg_int(k) * exact.zeta_neg_int(a)
        return sums.cotangent_sum_C(a, k, x, cfg) + ComplexVal.from_exact(const, cfg)


def _nonpositive_values(k: int, x: RationalArg, a: int, cfg: PrecisionConfig):
    """E(-k, x, a-k) by the primary display, by the dual display (the primary
    one with a and k exchanged) and by the continued Hurwitz double sum."""
    return (estermann_nonpositive(k, x, a, cfg),
            estermann_nonpositive(a, x, k, cfg),
            estermann_hurwitz(EstermannPoint(s=-k, x=x, a=a - k), cfg))


def verify_thm44(k: int, x: RationalArg, a: int,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Dual-route agreement for the nonpositive-integer Estermann values,
    with the continued Hurwitz double sum as an independent reference."""
    cfg = cfg or DEFAULT_PRECISION
    primary, dual, ref = _nonpositive_values(k, x, a, cfg)
    with mp.workdps(cfg.working_digits + 10):
        residual_routes = primary - dual
        residual_ref = primary - ref
        worst, budget = worst_residual((residual_routes, residual_ref), cfg.target_abs_err)
    return VerifyResult(
        "thm44", {"k": k, "a": a, "x": str(x)}, primary, dual, worst, budget,
        details={"hurwitz_reference": ref.to_json(),
                 "route_residual": residual_routes.to_json(),
                 "reference_residual": residual_ref.to_json()})


def verify_prop43(s: int, x: RationalArg, a: int,
                  cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Both closed-form displays for E(-s, x, a-s) against the continued
    Hurwitz double sum (integer regime, where the Lerch closed forms apply)."""
    if s < 0 or a < 0:
        raise DomainError("verify_prop43 integer regime needs s, a >= 0")
    cfg = cfg or DEFAULT_PRECISION
    first, second, ref = _nonpositive_values(s, x, a, cfg)
    with mp.workdps(cfg.working_digits + 10):
        r1 = ref - first
        r2 = ref - second
        worst, budget = worst_residual((r1, r2), cfg.target_abs_err)
    return VerifyResult(
        "prop43", {"s": s, "a": a, "x": str(x)}, ref, first, worst, budget,
        details={"first_display_residual": r1.to_json(),
                 "second_display_residual": r2.to_json()})


def verify_lemma42(s, z, n: int, x: RationalArg,
                   cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Distribution identity for the Lerch transcendent:

        sum_{m=0}^{q-1} e(mnx) zeta(s, z + m/q) = q^s Phi(s, qz, e(nx))

    checked with the direct (accelerated) Lerch series, Re(s) > 1, z real > 0."""
    cfg = cfg or DEFAULT_PRECISION
    q = x.q
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        sc = mp.mpc(s)
        if not sc.real > 1:
            raise DomainError("verify_lemma42 needs Re(s) > 1")
        zr = specfn._real_mpf(z)
        if not zr > 0:
            raise DomainError("verify_lemma42 needs real z > 0")
        lhs = ComplexVal(0, 0)
        for m in range(q):
            zeta_m = specfn.hurwitz_zeta(sc, zr + mp.mpf(m) / q, cfg)
            lhs = lhs + zeta_m * ComplexVal(_e_twist(m * n * x.p, q))
        lam = _e_twist(n * x.p, q)
        phi = specfn.lerch_phi(sc, q * zr, lam, cfg)
        rhs = ComplexVal(mp.mpc(q) ** sc) * phi
        return VerifyResult.compare(
            "lemma42", {"s": str(s), "z": str(z), "n": n, "x": str(x)},
            lhs, rhs, cfg.target_abs_err)


def verify_lemma41(k: int, x: RationalArg,
                   cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Apostol-Bernoulli boundary values against the cotangent closed form:

        B_1(0; e(x)) = cot(pi x)/(2i) - 1/2,
        B_k(0; e(x)) = k (2i)^(-k) cot^(k-1)(pi x)   for k > 1.

    The two sides use independent machinery (triangular recurrence versus
    cotangent-derivative polynomials)."""
    if k < 1:
        raise DomainError("verify_lemma41 needs k >= 1")
    x.checked_twist("verify_lemma41")
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        lam = _e_twist(x.p, x.q)
        lhs = specfn.apostol_bernoulli(k, 0, lam, cfg)
        theta = mp.pi * x.p / mp.mpf(x.q)
        rhs = specfn.cot_derivative(k - 1, theta, cfg) * ComplexVal(mp.mpf(k) / (2j) ** k)
        if k == 1:
            rhs = rhs - 0.5
        return VerifyResult.compare("lemma41", {"k": k, "x": str(x)}, lhs, rhs,
                                    cfg.target_abs_err)


def verify_cor45(a: int, k: int, x: RationalArg,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Difference law for the Lerch-weighted cotangent sums:

        C(a, k, x) - C(k, a, x) = (q^k - q^a) zeta(-k) zeta(-a)

    for all nonnegative integers a, k (both sides vanish when a = k, and the
    prediction vanishes whenever a zeta factor does)."""
    if a < 0 or k < 0:
        raise DomainError("verify_cor45 needs nonnegative integers")
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        diff = sums.cotangent_sum_C(a, k, x, cfg) - sums.cotangent_sum_C(k, a, x, cfg)
        pred = ComplexVal.from_exact((Fraction(x.q) ** k - Fraction(x.q) ** a)
                                     * exact.zeta_neg_int(k) * exact.zeta_neg_int(a), cfg)
        return VerifyResult.compare("cor45", {"a": a, "k": k, "x": str(x)},
                                    diff, pred, cfg.target_abs_err)
