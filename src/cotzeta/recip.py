"""Reciprocity verification engines.

Provides the vertical-line quadrature used by the integral reciprocity law,
the Laurent-coefficient bookkeeping behind the multi-factor generalizations,
the closed-form integral for odd orders, and the Bernoulli-sum-plus-Mellin
pipeline for the period function at general complex order.

Orientation convention: every vertical-line integral here runs downward, from
c + i*inf to c - i*inf.  With z = c + it that is  -i * integral dt over
t from -T to T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import mpmath as mp

from . import exact, specfn, sums
from .errors import AbscissaShiftError, DomainError, PoleError
from .exact import ExactScaled
from .reports import VerifyResult
from .specfn import ComplexVal, PrecisionConfig, DEFAULT_PRECISION


@dataclass(frozen=True)
class QuadratureConfig:
    """Vertical-line quadrature parameters.

    ``epsilon`` is the abscissa of the cotangent-product lines (0 means half
    of the admissible bound min 1/k_j); ``truncation_height`` caps |Im| (0
    means derived from target_abs_err); panels use Gauss-Legendre with an
    embedded error estimate by default, or adaptive Simpson.
    """

    epsilon: float = 0.0
    truncation_height: float = 0.0
    panel_rule: str = "gauss_legendre"
    target_abs_err: float = 1e-10

    def __post_init__(self):
        if self.panel_rule not in ("gauss_legendre", "adaptive_simpson"):
            raise DomainError(f"unknown panel rule {self.panel_rule!r}")
        if self.epsilon < 0 or self.truncation_height < 0:
            raise DomainError("epsilon and truncation_height must be >= 0")
        if not self.target_abs_err > 0:
            raise DomainError("target_abs_err must be positive")


DEFAULT_QUAD = QuadratureConfig()


# ---------------------------------------------------------------------------
# Panelized quadrature on a real parameter interval
# ---------------------------------------------------------------------------

_gl_cache: dict = {}


def _legendre_nodes(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration, cached per
    (n, binary precision)."""
    key = (n, mp.mp.prec)
    if key in _gl_cache:
        return _gl_cache[key]
    nodes = []
    weights = []
    for i in range(1, n // 2 + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < mp.mpf(10) ** (-mp.mp.dps - 2):
                break
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.extend([-x, x])
        weights.extend([w, w])
    if n % 2:
        x = mp.mpf(0)
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / dp / dp)
    _gl_cache[key] = (tuple(nodes), tuple(weights))
    return _gl_cache[key]


def _gl_panel(f, a, b, n):
    nodes, weights = _legendre_nodes(n)
    mid = (a + b) / 2
    half = (b - a) / 2
    acc = mp.mpc(0)
    for x, w in zip(nodes, weights):
        acc += w * f(mid + half * x)
    return acc * half


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15 * tol:
        return left + right + delta / 15, abs(delta) / 15
    lv, le = _adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
    rv, re_ = _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2, depth - 1)
    return lv + rv, le + re_


def _integrate_edges(f, edges, quad: QuadratureConfig):
    """Integrate f over consecutive [edges[i], edges[i+1]] panels.

    Returns (value, error_estimate).  Gauss-Legendre panels use an embedded
    lower-order rule for the estimate; panel order scales with log(1/target)
    so the achieved error tracks the requested target.
    """
    target = mp.mpf(quad.target_abs_err)
    total = mp.mpc(0)
    err = mp.mpf(0)
    if quad.panel_rule == "gauss_legendre":
        n_hi = max(14, int(-1.9 * mp.log10(target)) + 8)
        n_lo = max(8, (2 * n_hi) // 3)
        for a, b in zip(edges[:-1], edges[1:]):
            hi = _gl_panel(f, a, b, n_hi)
            lo = _gl_panel(f, a, b, n_lo)
            total += hi
            # |hi - lo| estimates the low rule's error; keep a safety factor
            # so the reported budget also covers the high rule.
            err += 3 * abs(hi - lo)
    else:
        tol = target / max(1, len(edges) - 1)
        for a, b in zip(edges[:-1], edges[1:]):
            fa, fb = f(a), f(b)
            m = (a + b) / 2
            fm = f(m)
            whole = (b - a) / 6 * (fa + 4 * fm + fb)
            v, e = _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, 40)
            total += v
            err += e
    return total, err


def _geometric_edges(scale, T):
    """Symmetric panel edges: width ~scale near 0, doubling out to T."""
    scale = mp.mpf(scale)
    T = mp.mpf(T)
    right = [mp.mpf(0)]
    step = scale
    while right[-1] < T:
        right.append(min(right[-1] + step, T))
        step *= 2
    return [-e for e in reversed(right[1:])] + right


# ---------------------------------------------------------------------------
# Downward vertical-line integrals of cotangent-derivative products
# ---------------------------------------------------------------------------

def _auto_epsilon(quad: QuadratureConfig, ks) -> mp.mpf:
    bound = mp.mpf(1) / max(ks)
    if quad.epsilon:
        eps = mp.mpf(quad.epsilon)
        if not eps < bound:
            raise DomainError(
                f"epsilon = {quad.epsilon} violates 0 < epsilon < min(1/k_j) = {bound}")
        return eps
    return bound / 2


def cot_product_line_integral(exponent, ks, ms, quad: QuadratureConfig | None = None,
                              cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Downward integral of prod_j cot^(m_j)(pi k_j z) / z^exponent over Re z = eps.

    Re(exponent) > 1 is required so the tails converge.  When every derivative
    order vanishes the integrand tends to (-i)^d at the top and (+i)^d at the
    bottom; the constant is subtracted and its closed-form integral
    (c_top - c_bot) eps^(1-s)/(1-s) is added back (zero when d is even).
    Products containing any derivative factor decay exponentially on their own.
    """
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    ks = tuple(int(k) for k in ks)
    ms = tuple(int(m) for m in ms)
    if len(ks) != len(ms) or not ks:
        raise DomainError("need one derivative order per modulus")
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        s = mp.mpc(exponent)
        if not s.real > 1:
            raise DomainError("line integral needs Re(exponent) > 1 for convergence")
        eps = _auto_epsilon(quad, ks)
        d = len(ks)
        pure_cot = all(m == 0 for m in ms)
        m_min = min(ks)
        rate = 2 * mp.pi * m_min
        target = mp.mpf(quad.target_abs_err)

        # Truncation height: make the analytic tail bound comfortably small.
        # No large floor: the height must track the target so that the
        # achieved error scales with it.
        if quad.truncation_height:
            T = mp.mpf(quad.truncation_height)
        else:
            T = max(mp.mpf(1), mp.log(60 * d / target) / rate + mp.mpf(1) / 2)

        ctop = (-1j) ** d if pure_cot else mp.mpc(0)
        cbot = (1j) ** d if pure_cot else mp.mpc(0)

        def make_integrand(limit):
            def integrand(t):
                z = eps + 1j * t
                prod = mp.mpc(1)
                for kj, mj in zip(ks, ms):
                    prod *= specfn._cot_deriv_mpc(mj, mp.pi * kj * z)
                return (prod - limit) * z ** (-s)
            return integrand

        f_top = make_integrand(ctop)
        f_bot = make_integrand(cbot)
        # The subtracted constant differs between the half-lines when d is
        # odd, so integrate the halves with their own closures (the shared
        # t = 0 edge must see the right constant).
        edges = _geometric_edges(eps, T)
        mid = edges.index(mp.mpf(0))
        val_b, qerr_b = _integrate_edges(f_bot, edges[:mid + 1], quad)
        val_t, qerr_t = _integrate_edges(f_top, edges[mid:], quad)
        val = val_b + val_t
        qerr = qerr_b + qerr_t
        result = -1j * val
        if pure_cot:
            comp = (ctop - cbot) * eps ** (1 - s) / (1 - s)
            result += comp
            # Tail: each |cot -+ i| <= 2 e^(-2 pi k t) / (1 - e^(-2 pi k T)).
            damp = 1 - mp.exp(-rate * T)
            B = 1 + 2 / damp
            tail = (2 * d * B ** (d - 1) * mp.exp(-rate * T) / damp / rate
                    / abs(eps + 1j * T) ** s.real) * 2
        else:
            # Sampled exponential-decay estimate for derivative products.
            tail = 3 * (abs(f_top(T)) + abs(f_bot(-T))) / rate
        return ComplexVal(result, qerr + tail)


def line_integral_cotcot(a, h: int, k: int, quad: QuadratureConfig | None = None,
                         cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Downward integral of cot(pi h z) cot(pi k z) / z^a over Re z = eps.

    Computed with the +1 subtraction (the subtracted integrand decays like
    e^(-2 pi min(h,k)|t|) and the compensating integral vanishes for Re a > 1).
    """
    if h < 1 or k < 1 or gcd(h, k) != 1:
        raise DomainError("line_integral_cotcot needs coprime positive h, k")
    return cot_product_line_integral(a, (h, k), (0, 0), quad, cfg)


def closed_form_integral(n: int, h: int, k: int) -> ExactScaled:
    """Exact value of the downward cot-cot integral at odd order n > 1:

        2 (2 pi i)^n / (h k (n+1)!) * sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m}

    (zeroed B_1; immaterial since B_1 only ever multiplies a vanishing odd
    Bernoulli number)."""
    if n <= 1 or n % 2 == 0:
        raise DomainError("closed_form_integral is defined for odd n > 1")
    if h < 1 or k < 1 or gcd(h, k) != 1:
        raise DomainError("closed_form_integral needs coprime positive h, k")
    coeff = (Fraction(2 ** (n + 1), h * k * factorial(n + 1))
             * exact.bernoulli_convolution_at(n, h, k))
    return ExactScaled(coeff, n, n)


def verify_cor23(n: int, h: int, k: int, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Quadrature against the closed form of the odd-order cot-cot integral."""
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    lhs = line_integral_cotcot(n, h, k, quad, cfg)
    rhs = ComplexVal.from_exact(closed_form_integral(n, h, k), cfg)
    residual = lhs - rhs
    budget = float(residual.abs_err + mp.mpf(quad.target_abs_err))
    return VerifyResult("cor23", {"n": n, "h": h, "k": k}, lhs, rhs, residual, budget)


def verify_thm12(a, h: int, k: int, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Integral reciprocity at Re(a) > 1:

        h^(1-a) c_{-a}(h/k) + k^(1-a) c_{-a}(k/h)
            = a zeta(a+1) / (pi (hk)^a) + (hk)^(1-a)/(2i) * I

    with I the downward cot-cot line integral."""
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    if h < 1 or k < 1 or gcd(h, k) != 1:
        raise DomainError("verify_thm12 needs coprime positive h, k")
    with mp.workdps(cfg.working_digits + 10):
        ac = mp.mpc(a)
        if not ac.real > 1:
            raise DomainError("verify_thm12 needs Re(a) > 1")
        c_hk = sums.bc_sum(-ac, h, k, cfg)
        c_kh = sums.bc_sum(-ac, k, h, cfg)
        lhs = (ComplexVal(mp.mpf(h) ** (1 - ac)) * c_hk
               + ComplexVal(mp.mpf(k) ** (1 - ac)) * c_kh)
        zeta_term = specfn.riemann_zeta(ac + 1, cfg) * ComplexVal(ac / (mp.pi * mp.mpf(h * k) ** ac))
        integral = line_integral_cotcot(ac, h, k, quad, cfg)
        rhs = zeta_term + integral * ComplexVal(mp.mpf(h * k) ** (1 - ac) / (2j))
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(quad.target_abs_err))
        return VerifyResult(
            "thm12", {"a": str(a), "h": h, "k": k}, lhs, rhs, residual, budget)


# ---------------------------------------------------------------------------
# Laurent coefficients of the integrand factors
# ---------------------------------------------------------------------------

def laurent_coeff_cot(l: int, k: int, m: int) -> ExactScaled:
    """Coefficient of (z - z0)^l in the expansion of cot^(m)(pi k z) about an
    integer z0, where cot^(m) is the m-th derivative of cot evaluated at the
    displayed point (the reading used uniformly by the sums and integrands):

        l >= 0:      (2i)^(l+m+1) B_{l+m+1} (pi k)^l (l+1)^(m) / (l+m+1)!
        l = -(m+1):  (-1)^m m! / (pi k)^(m+1)
        otherwise 0   (zeroed B_1 kills l+m+1 odd above 1 as well).

    The chain-rule reading d^m/dz^m cot(pi k z) rescales every coefficient by
    (pi k)^m; at m = 0 the two agree.
    """
    if k < 1 or m < 0:
        raise DomainError("laurent_coeff_cot needs k >= 1 and m >= 0")
    if l == -(m + 1):
        return ExactScaled(
            Fraction((-1) ** m * factorial(m), k ** (m + 1)), -(m + 1), 0)
    if l < 0:
        return ExactScaled(0)
    b = exact.bernoulli_number(l + m + 1, exact.ZEROED)
    if b == 0:
        return ExactScaled(0)
    rf = exact.rising_factorial(l + 1, m)
    coeff = Fraction(2 ** (l + m + 1) * k ** l * rf, factorial(l + m + 1)) * b
    return ExactScaled(coeff, l, l + m + 1)


def laurent_coeff_zeta(l0: int, a, m0: int,
                       cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Taylor coefficient of zeta^(m0)(a, z) about z = 1:

        (-1)^(m0+l0) (a)^(m0+l0) zeta(a + m0 + l0) / l0!   (l0 >= 0).
    """
    if l0 < 0:
        raise DomainError("the zeta factor has no principal part")
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        ac = mp.mpc(a)
        if ac + m0 + l0 == 1:
            raise PoleError("zeta pole at a + m0 + l0 = 1; shift parameters")
        z = specfn.riemann_zeta(ac + m0 + l0, cfg)
        fac = specfn._rising_mpc(ac, m0 + l0) / mp.factorial(l0)
        if (m0 + l0) % 2:
            fac = -fac
        return ComplexVal(fac * z.val, abs(fac) * z.abs_err)


def laurent_coeff(j: int, l: int, *, a=None, m0: int | None = None,
                  k: int | None = None, m: int | None = None,
                  cfg: PrecisionConfig | None = None):
    """Dispatch on the factor index: j = 0 is the zeta factor (needs a, m0),
    j != 0 a cotangent factor (needs k, m)."""
    if j == 0:
        if a is None or m0 is None:
            raise DomainError("zeta factor coefficient needs a and m0")
        return laurent_coeff_zeta(l, a, m0, cfg)
    if k is None or m is None:
        raise DomainError("cotangent factor coefficient needs k and m")
    return laurent_coeff_cot(l, k, m)


def _cot_index_tuples(ms_inner, total: int):
    """All tuples (l_1..l_d), each in {-(m_j+1)} or >= 0, with given sum.

    The support restriction makes the enumeration finite: positive entries
    are bounded by total plus what the principal parts can absorb.
    """
    d = len(ms_inner)
    slack = sum(mj + 1 for mj in ms_inner)

    def rec(idx, remaining):
        if idx == d:
            if remaining == 0:
                yield ()
            return
        mj = ms_inner[idx]
        choices = [-(mj + 1)] + list(range(0, max(0, remaining + slack) + 1))
        for lj in choices:
            rest = remaining - lj
            # Remaining slots can reach at least -(sum of their m+1) and any
            # nonnegative value, so prune only impossible negatives.
            tail_min = -sum(mt + 1 for mt in ms_inner[idx + 1:])
            if idx + 1 == d:
                if rest == 0:
                    yield (lj,)
                continue
            if rest < tail_min:
                continue
            for rest_tuple in rec(idx + 1, rest):
                yield (lj,) + rest_tuple

    yield from rec(0, total)


def convolution_at_zero(order_total: int, ks, ms_inner) -> ExactScaled:
    """sum over l_1 + ... + l_d = order_total - 1 of prod_j a_{l_j} (cot factors).

    Every term shares the same pi and i powers, so the sum is a single
    ExactScaled value."""
    ks = tuple(ks)
    ms_inner = tuple(ms_inner)
    total = ExactScaled(0)
    for tup in _cot_index_tuples(ms_inner, order_total - 1):
        prod = ExactScaled(1)
        for lj, kj, mj in zip(tup, ks, ms_inner):
            c = laurent_coeff_cot(lj, kj, mj)
            if c.is_zero():
                prod = ExactScaled(0)
                break
            prod = prod * c
        total = total + prod
    return total


def residue_at_one(a, ks, ms, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Residue at z = 1 of zeta^(m0)(a, z) prod_j cot^(m_j)(pi k_j z):

        sum_{l0 = 0}^{m_1+..+m_d+d-1} sum_{l_1+..+l_d = -l0-1}
            a_{l0}(zeta) * prod_j a_{l_j}(cot).
    """
    cfg = cfg or DEFAULT_PRECISION
    ks = tuple(ks)
    ms_inner = tuple(ms[1:])
    m0 = ms[0]
    L = sum(ms_inner) + len(ks) - 1
    with mp.workdps(cfg.working_digits + 10):
        total = ComplexVal(0, 0)
        for l0 in range(L + 1):
            conv = convolution_at_zero(-l0, ks, ms_inner)
            if conv.is_zero():
                continue
            zc = laurent_coeff_zeta(l0, a, m0, cfg)
            total = total + zc * ComplexVal.from_exact(conv, cfg)
        return total


# ---------------------------------------------------------------------------
# Multi-factor reciprocity verifiers
# ---------------------------------------------------------------------------

def _require_pairwise_coprime(ks):
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            if gcd(ks[i], ks[j]) != 1:
                raise DomainError(f"moduli must be pairwise coprime, got {ks}")


def _compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _generalized_lhs(a, ks, ms, cfg: PrecisionConfig) -> ComplexVal:
    """The residue-side double sum shared by the multi-factor laws:

        sum_j (-1)^(m_j) (pi k_j)^(-m_j) / pi sum_{compositions of m_j}
            multinomial * prod_{t != j} (pi k_t)^(l_t) * k_j^(a-1) * c_{-a}(j)

    with every cot symbol read as a derivative of cot evaluated at the
    displayed point.  (Under the chain-rule reading the (pi k_j)^(-m_j)
    factor is absorbed into the sums.)
    """
    d = len(ks)
    with mp.workdps(cfg.working_digits + 10):
        ac = mp.mpc(a)
        total = ComplexVal(0, 0)
        for j in range(1, d + 1):
            kj = ks[j - 1]
            others = [t for t in range(1, d + 1) if t != j]
            mj = ms[j]
            for comp in _compositions(mj, 1 + len(others)):
                l0, rest = comp[0], comp[1:]
                multinom = factorial(mj)
                for part in comp:
                    multinom //= factorial(part)
                weight = mp.mpf(multinom) * (-1) ** mj / mp.pi
                weight /= (mp.pi * kj) ** mj
                for t, lt in zip(others, rest):
                    weight *= (mp.pi * ks[t - 1]) ** lt
                weight *= mp.mpc(kj) ** (ac - 1)
                spec = sums.BCSumSpec(
                    a=-complex(ac), k0=kj,
                    ks=tuple(ks[t - 1] for t in others),
                    ms=(ms[0] + l0,) + tuple(ms[t] + lt for t, lt in zip(others, rest)))
                val = sums.bc_sum_general(spec, cfg)
                total = total + val * ComplexVal(weight)
        return total


def verify_thm31(a, ks, ms, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Multi-factor integral reciprocity at Re(a) > 1.

    Residual of: [generalized double sum] + [residue at 1]
      - (-1)^(m0) (a)^(m0) / (2 pi i) * [downward product line integral].
    """
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    ks = tuple(int(k) for k in ks)
    ms = tuple(int(m) for m in ms)
    if len(ms) != len(ks) + 1:
        raise DomainError("need derivative orders (m0, m1..md)")
    _require_pairwise_coprime(ks)
    with mp.workdps(cfg.working_digits + 10):
        ac = mp.mpc(a)
        if not ac.real > 1:
            raise DomainError("verify_thm31 needs Re(a) > 1")
        lhs = _generalized_lhs(ac, ks, ms, cfg)
        res1 = residue_at_one(ac, ks, ms, cfg)
        integral = cot_product_line_integral(ac + ms[0], ks, ms[1:], quad, cfg)
        pref = specfn._rising_mpc(ac, ms[0]) / (2 * mp.pi * 1j)
        if ms[0] % 2:
            pref = -pref
        rhs = -res1 + integral * ComplexVal(pref)
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(quad.target_abs_err))
        return VerifyResult("thm31",
                            {"a": str(a), "k": list(ks), "m": list(ms)},
                            lhs, rhs, residual, budget)


def verify_thm32(n: int, ks, ms, cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Integer-order multi-factor reciprocity with the integral collapsed.

    Requires the parity condition m0 + n + d + sum(m_j) odd; then the integral
    term reduces to the residue-at-zero convolution

        (-1)^(m0+1) n^(m0) / 2 * sum_{l_1+..+l_d = n+m0-1} prod a_{l_j}.
    """
    cfg = cfg or DEFAULT_PRECISION
    ks = tuple(int(k) for k in ks)
    ms = tuple(int(m) for m in ms)
    if len(ms) != len(ks) + 1:
        raise DomainError("need derivative orders (m0, m1..md)")
    if n <= 1:
        raise DomainError("verify_thm32 needs integer n > 1")
    _require_pairwise_coprime(ks)
    d = len(ks)
    if (ms[0] + n + d + sum(ms[1:])) % 2 == 0:
        raise DomainError(
            "parity condition violated: m0 + n + d + sum(m_j) must be odd")
    # zeta(n + m0 + l0) poles cannot occur for n > 1; assert, don't assume.
    assert all(n + ms[0] + l0 != 1 for l0 in range(sum(ms[1:]) + d))
    with mp.workdps(cfg.working_digits + 10):
        lhs = _generalized_lhs(n, ks, ms, cfg)
        res1 = residue_at_one(n, ks, ms, cfg)
        conv = convolution_at_zero(n + ms[0], ks, ms[1:])
        pref = Fraction(exact.rising_factorial(n, ms[0]), 2)
        if ms[0] % 2 == 0:
            pref = -pref
        collapse = ComplexVal.from_exact(conv * pref, cfg) if not conv.is_zero() \
            else ComplexVal(0, 0)
        rhs = -res1 + collapse
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(cfg.target_abs_err))
        return VerifyResult("thm32",
                            {"n": n, "k": list(ks), "m": list(ms)},
                            lhs, rhs, residual, budget)


def verify_cor33(n: int, ks, ms, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Collapsed-integral identity: downward product integral at exponent
    n + m0 equals -pi*i times the residue-at-zero convolution (parity as in
    the integer-order law)."""
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    ks = tuple(int(k) for k in ks)
    ms = tuple(int(m) for m in ms)
    if len(ms) != len(ks) + 1:
        raise DomainError("need derivative orders (m0, m1..md)")
    if n <= 1:
        raise DomainError("verify_cor33 needs integer n > 1")
    _require_pairwise_coprime(ks)
    d = len(ks)
    if (ms[0] + n + d + sum(ms[1:])) % 2 == 0:
        raise DomainError(
            "parity condition violated: m0 + n + d + sum(m_j) must be odd")
    with mp.workdps(cfg.working_digits + 10):
        lhs = cot_product_line_integral(n + ms[0], ks, ms[1:], quad, cfg)
        conv = convolution_at_zero(n + ms[0], ks, ms[1:])
        rhs_exact = conv * ExactScaled(-1, 1, 1)  # times -pi i
        rhs = ComplexVal.from_exact(rhs_exact, cfg) if not rhs_exact.is_zero() \
            else ComplexVal(0, 0)
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(quad.target_abs_err))
        return VerifyResult("cor33",
                            {"n": n, "k": list(ks), "m": list(ms)},
                            lhs, rhs, residual, budget)


# ---------------------------------------------------------------------------
# Period function at general complex order: Bernoulli sum + Mellin integral
# ---------------------------------------------------------------------------

def _default_M(a) -> int:
    with mp.workdps(_DPS_GUARD):
        ac = mp.mpc(a)
        return max(1, int(mp.ceil(max(0, -ac.real) / 2)))


_DPS_GUARD = 40


def _mellin_pole_guard(a, M: int):
    """Distance check between the line Re(s) = -1/2 - 2M and the genuine
    integrand poles.

    1/sin(pi (s-a)/2) has candidate poles at s = a + 2j, but for 2j < 0 the
    trivial zero zeta(s-a) = zeta(2j) = 0 cancels them (removable), so only
    j >= 0 counts; likewise Gamma's poles at negative even integers are
    cancelled and the negative odd ones sit at distance 1/2 from the line by
    construction.  The zeta(s-a) pole at s = 1 + a is always genuine.
    Requires distance >= 1/4, else raises with a shift suggestion.
    """
    c = -mp.mpf(1) / 2 - 2 * M
    ar = mp.mpc(a).real
    j_near = max(0, int(mp.nint((c - ar) / 2)))
    dist_sin = min(abs(c - (ar + 2 * j_near)), abs(c - (ar + 2 * (j_near + 1))))
    dist_zeta = abs(c - (1 + ar))
    if dist_sin < mp.mpf(1) / 4 or dist_zeta < mp.mpf(1) / 4:
        raise AbscissaShiftError(
            f"integration line Re(s) = {float(c)} passes within 1/4 of an "
            "integrand pole; use a different M", suggested_shift=1)
    return c


def g_a_numeric(a, z, M: int | None = None, quad: QuadratureConfig | None = None,
                cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Analytic part g_a(z) of the period function, z off the closed negative
    real axis, via the Bernoulli sum plus a Mellin vertical-line integral:

        g_a(z) = 2 sum_{1<=n<=M} (-1)^n B_{2n}/(2n)! zeta(1-2n-a) (2 pi z)^(2n-1)
                 + (1/(pi i)) int_(c) zeta(s) zeta(s-a) Gamma(s)
                              cos(pi a/2)/sin(pi (s-a)/2) (2 pi z)^(-s) ds

    over the upward line Re(s) = c = -1/2 - 2M, M >= -min(0, Re a)/2.  The
    sign of the Bernoulli sum is pinned jointly by the exact odd-order
    polynomials (g_{-n} for odd n, where cos(pi a/2) = 0 kills the integral
    and the sum must reproduce the polynomial) and by the Eisenstein-period
    route at generic order; the combination above is the one invariant under
    changes of M.
    """
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    with mp.workdps(cfg.working_digits + 15):
        ac = mp.mpc(a)
        zc = mp.mpc(z)
        if zc == 0 or (zc.imag == 0 and zc.real <= 0):
            raise DomainError("g_a_numeric needs z off the closed negative real axis")
        if ac.imag == 0 and mp.isint(ac.real) and int(ac.real) % 2 == 0:
            raise DomainError("even integer a degenerates the Mellin factor")
        M = _default_M(ac) if M is None else int(M)
        if M < max(0, -ac.real) / 2:
            raise DomainError("M must satisfy M >= -min(0, Re a)/2")
        c = _mellin_pole_guard(ac, M)

        bern = mp.mpc(0)
        bern_err = mp.mpf(0)
        for n in range(1, M + 1):
            zv = specfn.riemann_zeta(1 - 2 * n - ac, cfg)
            t = ((-1) ** n * specfn._bern_mpf(2 * n) / mp.factorial(2 * n)
                 * (2 * mp.pi * zc) ** (2 * n - 1))
            bern += 2 * t * zv.val
            bern_err += 2 * abs(t) * zv.abs_err

        cosfac = mp.cospi(ac / 2)
        target = mp.mpf(quad.target_abs_err)
        if quad.truncation_height:
            T = mp.mpf(quad.truncation_height)
        else:
            T = (2 / mp.pi) * mp.log(1 / target) + 6

        if cosfac == 0:
            integral = ComplexVal(0, 0)
        else:
            # Node values must be much tighter than the quadrature target so
            # their unpropagated errors stay below the panel estimate.
            import math
            node_target = min(cfg.target_abs_err, quad.target_abs_err) / 1e3
            eval_cfg = PrecisionConfig(
                max(cfg.working_digits, int(-math.log10(node_target)) + 6),
                node_target, cfg.max_terms)

            def integrand(t):
                s = c + 1j * t
                num = (specfn.riemann_zeta(s, eval_cfg).val
                       * specfn.riemann_zeta(s - ac, eval_cfg).val
                       * specfn.complex_gamma(s, eval_cfg).val)
                return (num * cosfac / mp.sinpi((s - ac) / 2)
                        * (2 * mp.pi * zc) ** (-s))

            edges = _geometric_edges(mp.mpf(1) / 2, T)
            val, qerr = _integrate_edges(integrand, edges, quad)
            upward = 1j * val
            tail = 3 * (abs(integrand(T)) + abs(integrand(-T))) * 2 / mp.pi
            integral = ComplexVal(upward / (mp.pi * 1j), (qerr + tail) / mp.pi)

        total = ComplexVal(bern, bern_err) + integral
        return total


def psi_a_numeric(a, z, M: int | None = None, quad: QuadratureConfig | None = None,
                  cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Period function psi_a(z) assembled from its displayed decomposition:

        psi_a(z) = (i/(pi z)) zeta(1-a)/zeta(-a) - i z^(-1-a) cot(pi a/2)
                   + i g_a(z) / zeta(-a)

    The cotangent term vanishes identically at odd integer a."""
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 15):
        ac = mp.mpc(a)
        zc = mp.mpc(z)
        if ac == 0:
            raise DomainError("a = 0 puts zeta(1-a) on its pole")
        zma = specfn.riemann_zeta(-ac, cfg)
        if abs(zma.val) < mp.mpf(10) ** (-cfg.working_digits + 6):
            raise DomainError("zeta(-a) vanishes; psi_a is not defined this way")
        z1a = specfn.riemann_zeta(1 - ac, cfg)
        first = ComplexVal(1j / (mp.pi * zc)) * z1a / zma
        if ac.imag == 0 and mp.isint(ac.real) and int(ac.real) % 2 != 0:
            cot_term = ComplexVal(0, 0)
        else:
            cot_term = ComplexVal(
                1j * zc ** (-1 - ac) * mp.cospi(ac / 2) / mp.sinpi(ac / 2))
        g = g_a_numeric(ac, zc, M, quad, cfg)
        return first - cot_term + ComplexVal(1j) * g / zma


def verify_thm11(a, h: int, k: int, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None,
                 psi_route: str = "auto") -> VerifyResult:
    """End-to-end reciprocity at a rational point:

        c_a(h/k) - (k/h)^(1+a) c_a(-k/h) + k^a a zeta(1-a)/(pi h)
            = -i zeta(-a) psi_a(h/k)

    with c_a(-k/h) = -c_a(k/h) by the oddness rule.  psi_route selects the
    closed polynomial (odd negative integer a) or the Bernoulli-Mellin path.
    """
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    if h < 1 or k < 1 or gcd(h, k) != 1:
        raise DomainError("verify_thm11 needs coprime positive h, k")
    with mp.workdps(cfg.working_digits + 15):
        ac = mp.mpc(a)
        is_odd_neg = (ac.imag == 0 and mp.isint(ac.real)
                      and ac.real < 0 and int(-ac.real) % 2 == 1)
        if psi_route == "auto":
            psi_route = "polynomial" if is_odd_neg else "numeric"
        c_hk = sums.bc_sum(ac, h, k, cfg)
        c_kh = sums.bc_sum(ac, k, h, cfg)
        zeta1a = specfn.riemann_zeta(1 - ac, cfg)
        lhs = (c_hk - ComplexVal((mp.mpf(k) / h) ** (1 + ac)) * (-c_kh)
               + zeta1a * ComplexVal(mp.mpf(k) ** ac * ac / (mp.pi * h)))
        if psi_route == "polynomial":
            if not is_odd_neg:
                raise DomainError("polynomial route needs a an odd negative integer")
            n = int(-ac.real)
            psi = exact.psi_polynomial(n).evaluate(mp.mpf(h) / k, cfg)
        elif psi_route == "numeric":
            psi = psi_a_numeric(ac, mp.mpf(h) / k, None, quad, cfg)
        else:
            raise DomainError(f"unknown psi_route {psi_route!r}")
        zma = specfn.riemann_zeta(-ac, cfg)
        rhs = ComplexVal(-1j) * zma * psi
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(quad.target_abs_err))
        return VerifyResult(
            "thm11", {"a": str(a), "h": h, "k": k, "psi_route": psi_route},
            lhs, rhs, residual, budget)


def verify_eisenstein_period(n: int, z, cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Cross-check of the closed odd-order period polynomial against the
    q-series route: psi_{-n}(z) = E_{1-n}(z) - z^(n-1) E_{1-n}(-1/z), Im z > 0."""
    cfg = cfg or DEFAULT_PRECISION
    if n <= 1 or n % 2 == 0:
        raise DomainError("verify_eisenstein_period needs odd n > 1")
    with mp.workdps(cfg.working_digits + 10):
        zc = mp.mpc(z)
        if not zc.imag > 0:
            raise DomainError("need Im(z) > 0 for the q-series route")
        lhs = exact.psi_polynomial(n).evaluate(zc, cfg)
        e_at_z = specfn.eisenstein_E(-n, zc, None, cfg)
        e_at_inv = specfn.eisenstein_E(-n, -1 / zc, None, cfg)
        rhs = e_at_z - ComplexVal(zc ** (n - 1)) * e_at_inv
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf(cfg.target_abs_err))
        return VerifyResult("eisenstein-period", {"n": n, "z": str(z)},
                            lhs, rhs, residual, budget)


def verify_thm14_cross(n: int, z=1, M: int | None = None,
                       quad: QuadratureConfig | None = None,
                       cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Cross-check of the odd-order closed polynomial for the analytic part
    against its Bernoulli-Mellin evaluation: g_{-n}(z) vs g_a_numeric(-n, z)."""
    cfg = cfg or DEFAULT_PRECISION
    if n <= 1 or n % 2 == 0:
        raise DomainError("verify_thm14_cross needs odd n > 1")
    with mp.workdps(cfg.working_digits + 10):
        lhs = exact.g_polynomial(n).evaluate(z, cfg)
        rhs = g_a_numeric(-n, z, M, quad, cfg)
        residual = lhs - rhs
        budget = float(residual.abs_err + mp.mpf((quad or DEFAULT_QUAD).target_abs_err))
        return VerifyResult("thm14-cross", {"n": n, "z": str(z)},
                            lhs, rhs, residual, budget)


def verify_dedekind_recip(h: int, k: int) -> VerifyResult:
    """Exact classical reciprocity:
        s(h,k) + s(k,h) = -1/4 + (h/k + 1/(hk) + k/h)/12."""
    lhs_q = exact.dedekind_sum(h, k) + exact.dedekind_sum(k, h)
    rhs_q = Fraction(-1, 4) + (Fraction(h, k) + Fraction(1, h * k) + Fraction(k, h)) / 12
    diff = lhs_q - rhs_q
    with mp.workdps(30):
        lhs = ComplexVal(mp.mpf(lhs_q.numerator) / lhs_q.denominator, 0)
        rhs = ComplexVal(mp.mpf(rhs_q.numerator) / rhs_q.denominator, 0)
        residual = ComplexVal(mp.mpf(diff.numerator) / diff.denominator, 0)
    return VerifyResult("dedekind-recip", {"h": h, "k": k},
                        lhs, rhs, residual, 0.0,
                        details={"exact_zero": diff == 0})
