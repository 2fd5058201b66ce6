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
from itertools import combinations, product
from math import factorial, gcd, log10

import mpmath as mp
from mpmath.libmp import from_man_exp

from . import exact, specfn, sums
from .errors import DomainError
from .exact import ExactScaled
from .reports import VerifyResult
from .specfn import ComplexVal, PrecisionConfig, DEFAULT_PRECISION


@dataclass(frozen=True)
class QuadratureConfig:
    """Vertical-line quadrature parameters.

    ``epsilon`` is the abscissa of the cotangent-product lines (0 means half
    of the admissible bound min 1/k_j).  target_abs_err sets both the
    truncation height of each line and the order of its Gauss-Kronrod
    panels: K_(2n+1) gives each panel's value and 3|K - G_n| its error
    estimate.
    """

    epsilon: float = 0.0
    target_abs_err: float = 1e-10

    def __post_init__(self):
        if self.epsilon < 0:
            raise DomainError("epsilon must be >= 0")
        if not self.target_abs_err > 0:
            raise DomainError("target_abs_err must be positive")


DEFAULT_QUAD = QuadratureConfig()


# ---------------------------------------------------------------------------
# Panelized quadrature on a real parameter interval
# ---------------------------------------------------------------------------

_gl_cache: dict = {}
_gk_cache: dict = {}


def _newton(step, x):
    """Polish a root by Newton steps x -= step(x): stop once a step is at the
    rounding level of the working precision, then take one more."""
    tol = mp.mpf(10) ** (3 - mp.mp.dps)
    for _ in range(100):
        dx = step(x)
        x -= dx
        if abs(dx) < tol:
            break
    return x - step(x)


def _legendre(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _legendre_nodes(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration, cached per
    (n, binary precision)."""
    key = (n, mp.mp.prec)
    if key in _gl_cache:
        return _gl_cache[key]

    def step(x):
        p, dp = _legendre(n, x)
        return p / dp

    nodes = []
    weights = []
    for i in range(1, n // 2 + 1):
        x = _newton(step, mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2)))
        dp = _legendre(n, x)[1]
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.extend([-x, x])
        weights.extend([w, w])
    if n % 2:
        dp = _legendre(n, mp.mpf(0))[1]
        nodes.append(mp.mpf(0))
        weights.append(2 / dp / dp)
    _gl_cache[key] = (tuple(nodes), tuple(weights))
    return _gl_cache[key]


def _kronrod_beta(n: int):
    """Recurrence coefficients beta_0..beta_2n of the Jacobi-Kronrod matrix of
    G_n, by Laurie's algorithm (Math. Comp. 66 (1997); Gautschi's r_kronrod).

    The Legendre weight is even, so every alpha vanishes and only the beta
    half of the algorithm is left.  The first ceil(3n/2) + 1 entries are the
    monic Legendre ones, beta_0 = 2 and beta_k = k^2 / (4k^2 - 1).
    """
    beta = [mp.mpf(2)] + [mp.mpf(k * k) / (4 * k * k - 1)
                          for k in range(1, (3 * n + 1) // 2 + 1)]
    beta += [mp.mpf(0)] * (2 * n + 1 - len(beta))
    s = [mp.mpf(0)] * (n // 2 + 2)
    t = list(s)
    t[1] = beta[n + 1]
    for m in range(n - 1):
        acc = mp.mpf(0)
        for k in range((m + 1) // 2, -1, -1):
            acc += beta[k + n + 1] * s[k] - beta[m - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = mp.mpf(0)
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            acc += beta[m - k] * s[j + 2] - beta[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if m % 2:
            beta[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return beta


def _kronrod_rule(n: int):
    """Gauss-Kronrod pair G_n / K_(2n+1) on [-1, 1], cached per (n, binary
    precision): the 2n+1 nodes in ascending order, their Kronrod weights and
    their Gauss weights, 0 at the n+1 nodes the Kronrod rule adds.

    The Jacobi-Kronrod recurrence, run to degree 2n+1, gives P_n times the
    Stieltjes polynomial.  The added nodes, its zeros interlacing those of
    P_n, come from Newton on the recurrence deflated by P_n, started at the
    midpoints of the Gauss nodes' angles.  Every Kronrod weight is
    1 / sum_k p_k(x)^2 over the orthonormal polynomials of the recurrence.
    """
    key = (n, mp.mp.prec)
    if key in _gk_cache:
        return _gk_cache[key]
    beta = _kronrod_beta(n)

    def recurrence(x):
        """Monic pi_(2n+1)(x), its derivative, and 1 / sum_k p_k(x)^2."""
        p0, p1, d0, d1 = 0, 1, 0, 0
        norm, total = 1, 0
        for b in beta:
            norm *= b
            total += p1 * p1 / norm
            p0, p1, d0, d1 = p1, x * p1 - b * p0, d1, p1 + x * d1 - b * d0
        return p1, d1, 1 / total

    def step(x):
        p, dp, _ = recurrence(x)
        g, dg = _legendre(n, x)
        return p * g / (dp * g - p * dg)

    gauss = [(x, w) for x, w in zip(*_legendre_nodes(n)) if x >= 0]
    angles = [mp.mpf(0)] + [mp.acos(x) for x, _ in gauss if x > 0]
    if n % 2:
        angles.append(mp.pi / 2)
    added = [_newton(step, mp.cos((lo + hi) / 2)) for lo, hi in zip(angles, angles[1:])]
    if n % 2 == 0:
        added.append(mp.mpf(0))
    rule = []
    for x, wg in gauss + [(x, mp.mpf(0)) for x in added]:
        wk = recurrence(x)[2]
        rule.append((x, wk, wg))
        if x:
            rule.append((-x, wk, wg))
    _gk_cache[key] = tuple(zip(*sorted(rule)))
    return _gk_cache[key]


def _integrate_edges(pair, edges, target):
    """Integrate both components of pair over consecutive [edges[i], edges[i+1]]
    panels and add them.

    Each panel is one Gauss-Kronrod pair G_n / K_(2n+1): K_(2n+1), of degree
    3n+1, gives the value, and 3|K - G_n| estimates its error, per component,
    from the same 2n+1 evaluations.  n scales with log(1/target) so the
    achieved error tracks the requested target.  Returns (value,
    error_estimate).
    """
    # K_(2n+1) reaches degree 2m - 1, that of Gauss order m.
    m = max(14, int(-1.9 * mp.log10(target)) + 8)
    n = (2 * m) // 3
    nodes, k_weights, g_weights = _kronrod_rule(n)
    total = mp.mpc(0)
    err = mp.mpf(0)
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2
        half = (b - a) / 2
        ups, lows = zip(*(pair(mid + half * x) for x in nodes))
        k_up, k_low = mp.fdot(k_weights, ups), mp.fdot(k_weights, lows)
        total += (k_up + k_low) * half
        err += 3 * half * (abs(k_up - mp.fdot(g_weights, ups))
                           + abs(k_low - mp.fdot(g_weights, lows)))
    return total, err


def _integrate_line(pair, scale, T, target):
    """Integrate a vertical line from t = -T to T, folded at t = 0.

    pair(u) returns (f(u), f(-u)), the integrand at heights u and -u, so one
    call serves both halves and can share the work they have in common; the
    two may differ at t = 0.  Both are integrated over [0, T], on panels of
    width ~scale near 0 that double out to T, each half with its own error
    estimate as in _integrate_edges.  Returns (value, error_estimate).
    """
    scale = mp.mpf(scale)
    edges = [mp.mpf(0)]
    while edges[-1] < T:
        edges.append(min(edges[-1] + scale, T))
        scale *= 2
    return _integrate_edges(pair, edges, target)


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


def _fixed(x, bits: int) -> int:
    """int(mp.ldexp(x, bits)) for an mpf x, read off its mantissa."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * (man << exp + bits if exp + bits >= 0 else man >> -exp - bits)


def _cot_line(eps, ks, ms, s):
    """(P, factors): factors(u), u >= 0, yields P_m(cot(pi k (eps + iu))),
    P_m = cot_deriv_poly(m), for (k, m) in zip(ks, ms) as ints (x, y) that
    stand for (x + iy) 2^-P.

    On the line q^k = e^(2 pi i k z) = r^k e^(i phi_k): r = e^(-2 pi u) is one
    real exponential per node, e^(i phi_1) = (c + i)/(c - i) with
    c = cot(pi eps) one real mpmath.cot per line.  With A = r^k cos phi_k - 1,
    B = r^k sin phi_k, D = A^2 + B^2, cot(pi k z) = 2B/D + i(1 + 2A/D); P_m by Horner.

    Each integer step rounds by one unit 2^-P.  As r <= 1 and 0 < k eps < 1,
    D >= D0 = min_k (1 - max(cos phi_k, 0)^2) > 0, |cot| <= C = 1 + 2/sqrt(D0)
    and |P_m(cot)| <= M_m, P_m's |coefficients| at C.  To first order the
    product of the factors is off by M_1..M_d D0^(-3/2) sum_j (m_j + 1)
    (10 k_j + 37) units; z^(-s) scales that by eps^(-Re s) e^(pi |Im s|/2) at
    most and, at an integer s = n (n powers of 1/z = conj(z)/|z|^2), adds
    6n eps^(-n-2) M_1..M_d.  P = prec + 4 + log2 of that bound keeps the
    integer rounding of a node value below 2^-(prec + 4).
    """
    c = mp.cot(mp.pi * eps)
    phases = [(p.real, p.imag) for p in (((c + 1j) / (c - 1j)) ** k for k in ks)]
    d0 = min(sin_k ** 2 if cos_k > 0 else 1 for cos_k, sin_k in phases)
    big = 1 + 2 / mp.sqrt(d0)
    span = ((sum((m + 1) * (10 * k + 37) for k, m in zip(ks, ms)) + 6 * abs(s))
            * eps ** (-s.real - 2) * mp.e ** (abs(s.imag) * mp.pi / 2) / d0 ** 1.5)
    for m in ms:
        span *= sum(abs(a) * big ** i for i, a in enumerate(specfn._cot_poly_coeffs(m)))
    bits = mp.mp.prec + 5 + int(mp.log(span, 2))
    one = 1 << bits
    trig = [(_fixed(cos_k, bits), _fixed(sin_k, bits)) for cos_k, sin_k in phases]
    polys = [(p[-1], [a << bits for a in p[-2::-1]]) for p in map(specfn._cot_poly_coeffs, ms)]
    rate = -2 * mp.pi

    def factors(u):
        r = _fixed(mp.exp(rate * u), bits)
        for k, (cos_k, sin_k), (top, low) in zip(ks, trig, polys):
            rho = r ** k >> ((k - 1) * bits)
            A, B = (rho * cos_k >> bits) - one, rho * sin_k >> bits
            D = (A * A + B * B) >> bits
            x, y = (B << (bits + 1)) // D, one + (A << (bits + 1)) // D
            px, py = top * x + low[0], top * y
            for a in low[1:]:
                px, py = ((px * x - py * y) >> bits) + a, (px * y + py * x) >> bits
            yield px, py

    return bits, factors


def _line_integrand(s, eps, ks, ms):
    """pair(u) = (f(u), f(-u)), f(t) = (prod_j cot^(m_j)(pi k_j z) - c) z^(-s)
    on z = eps + it, c = (-+i)^d if every m_j is 0, else 0.  The product less c
    at eps - iu is the conjugate of the one at eps + iu, so it is formed once
    per pair, in _cot_line's fixed point (with z^(-n) at an integer s), and
    becomes an mpc once; only a complex s evaluates conj(z)^(-s) again.
    """
    bits, factors = _cot_line(eps, ks, ms, s)
    one = 1 << bits
    ctop = (0, 0) if any(ms) else [(one, 0), (0, -one), (-one, 0), (0, one)][len(ks) % 4]
    power = specfn._power_exponent(-s)
    e_fix = _fixed(eps, bits)

    def pair(u):
        x, y = one, 0
        for fx, fy in factors(u):
            x, y = (x * fx - y * fy) >> bits, (x * fy + y * fx) >> bits
        x, y = x - ctop[0], y - ctop[1]
        if isinstance(power, int):
            u_fix = _fixed(u, bits)
            norm = (e_fix * e_fix + u_fix * u_fix) >> bits
            wx, wy = (e_fix << bits) // norm, -((u_fix << bits) // norm)
            for _ in range(-power):
                x, y = (x * wx - y * wy) >> bits, (x * wy + y * wx) >> bits
        upper = mp.make_mpc((from_man_exp(x, -bits, mp.mp.prec, "n"),
                             from_man_exp(y, -bits, mp.mp.prec, "n")))
        if isinstance(power, mp.mpc):
            log_z = mp.log(mp.mpc(eps, u))
            return (upper * mp.exp(power * log_z),
                    mp.conj(upper) * mp.exp(power * mp.conj(log_z)))
        if not isinstance(power, int):
            upper *= mp.mpc(eps, u) ** power
        return upper, mp.conj(upper)

    return pair


def cot_product_line_integral(exponent, ks, ms, quad: QuadratureConfig | None = None,
                              cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Downward integral of prod_j cot^(m_j)(pi k_j z) / z^exponent over Re z = eps.

    Re(exponent) > 1 is required so the tails converge.  When every derivative
    order vanishes the integrand tends to (-i)^d at the top and (+i)^d at the
    bottom; the constant is subtracted and its closed-form integral
    (c_top - c_bot) eps^(1-s)/(1-s) is added back (zero when d is even).
    Products containing any derivative factor decay exponentially on their own.

    The line is folded at t = 0 (see _integrate_line), one _line_integrand
    call per node pair in the fixed point of _cot_line.  Its rounding, below
    2^-(prec + 4) ~ 10^-(working_digits + 11) per node and 2T times that over
    the line, is no more than the mpf kernel's and far below the quadrature
    and tail terms, so abs_err has no rounding term.
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
        rate = 2 * mp.pi * min(ks)
        target = mp.mpf(quad.target_abs_err)

        # Truncation height: make the analytic tail bound comfortably small.
        # No large floor: the height must track the target so that the
        # achieved error scales with it.
        T = max(mp.mpf(1), mp.log(60 * d / target) / rate + mp.mpf(1) / 2)

        pair = _line_integrand(s, eps, ks, ms)
        val, qerr = _integrate_line(pair, eps, T, target)
        result = -1j * val
        if pure_cot:
            result += ((-1j) ** d - (1j) ** d) * eps ** (1 - s) / (1 - s)
            # Tail: each |cot -+ i| <= 2 e^(-2 pi k t) / (1 - e^(-2 pi k T)),
            # and |z^(-s)| <= |z|^(-Re s) e^(|Im s| pi/2) since |arg z| < pi/2.
            damp = 1 - mp.exp(-rate * T)
            B = 1 + 2 / damp
            tail = (2 * d * B ** (d - 1) * mp.exp(-rate * T) / damp / rate
                    / abs(eps + 1j * T) ** s.real) * 2 * mp.exp(abs(s.imag) * mp.pi / 2)
        else:
            # Sampled exponential-decay estimate for derivative products.
            tail = 3 * sum(map(abs, pair(T))) / rate
        return ComplexVal(result, qerr + tail)


def line_integral_cotcot(a, h: int, k: int, quad: QuadratureConfig | None = None,
                         cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Downward integral of cot(pi h z) cot(pi k z) / z^a over Re z = eps.

    Computed with the +1 subtraction (the subtracted integrand decays like
    e^(-2 pi min(h,k)|t|) and the compensating integral vanishes for Re a > 1).
    """
    exact._require_coprime_positive(h, k, "line_integral_cotcot")
    return cot_product_line_integral(a, (h, k), (0, 0), quad, cfg)


def closed_form_integral(n: int, h: int, k: int) -> ExactScaled:
    """Exact value of the downward cot-cot integral at odd order n > 1:

        2 (2 pi i)^n / (h k (n+1)!) * sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m}

    (zeroed B_1; immaterial since B_1 only ever multiplies a vanishing odd
    Bernoulli number)."""
    exact._require_odd_gt1(n, "closed_form_integral")
    exact._require_coprime_positive(h, k, "closed_form_integral")
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
    return VerifyResult.compare("cor23", {"n": n, "h": h, "k": k}, lhs, rhs,
                                quad.target_abs_err)


def verify_thm12(a, h: int, k: int, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Integral reciprocity at Re(a) > 1:

        h^(1-a) c_{-a}(h/k) + k^(1-a) c_{-a}(k/h)
            = a zeta(a+1) / (pi (hk)^a) + (hk)^(1-a)/(2i) * I

    with I the downward cot-cot line integral."""
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    exact._require_coprime_positive(h, k, "verify_thm12")
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
        return VerifyResult.compare("thm12", {"a": str(a), "h": h, "k": k}, lhs, rhs,
                                    quad.target_abs_err)


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

        (-1)^(m0+l0) (a)^(m0+l0) zeta(a + m0 + l0) / l0!   (l0 >= 0),

    that is, the (m0 + l0)-th x-derivative of zeta(a, x) at x = 1, over l0!.
    """
    if l0 < 0:
        raise DomainError("the zeta factor has no principal part")
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        deriv = specfn.hurwitz_zeta_x_deriv(m0 + l0, a, 1, cfg)
        return deriv.scaled(1 / mp.factorial(l0))


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

    Each choice of the factors that take their principal part -(m_j+1) leaves
    a sum for the others, enumerated as compositions into nonnegative parts.
    """
    for principal in product((False, True), repeat=len(ms_inner)):
        free = total + sum(mj + 1 for mj, p in zip(ms_inner, principal) if p)
        for comp in _compositions(free, principal.count(False)):
            parts = iter(comp)
            yield tuple(-(mj + 1) if p else next(parts)
                        for mj, p in zip(ms_inner, principal))


def convolution_at_zero(order_total: int, ks, ms_inner) -> ExactScaled:
    """sum over l_1 + ... + l_d = order_total - 1 of prod_j a_{l_j} (cot factors).

    Every term has the same pi and i powers, so the sum is a single
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

def _multi_factor_args(ks, ms):
    """Moduli and derivative orders (m0, m1..md) as int tuples, checked: at
    least one modulus, one order per modulus plus m0, none negative, moduli
    pairwise coprime."""
    ks = tuple(int(k) for k in ks)
    ms = tuple(int(m) for m in ms)
    if not ks:
        raise DomainError("need at least one cotangent modulus")
    if len(ms) != len(ks) + 1:
        raise DomainError("need derivative orders (m0, m1..md)")
    if any(m < 0 for m in ms):
        raise DomainError("derivative orders must be nonnegative")
    if any(gcd(a, b) != 1 for a, b in combinations(ks, 2)):
        raise DomainError(f"moduli must be pairwise coprime, got {ks}")
    return ks, ms


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
    ks, ms = _multi_factor_args(ks, ms)
    with mp.workdps(cfg.working_digits + 10):
        ac = mp.mpc(a)
        if not ac.real > 1:
            raise DomainError("verify_thm31 needs Re(a) > 1")
        lhs = _generalized_lhs(ac, ks, ms, cfg)
        res1 = residue_at_one(ac, ks, ms, cfg)
        integral = cot_product_line_integral(ac + ms[0], ks, ms[1:], quad, cfg)
        pref = exact.rising_factorial(ac, ms[0]) / (2 * mp.pi * 1j)
        if ms[0] % 2:
            pref = -pref
        rhs = -res1 + integral * ComplexVal(pref)
        return VerifyResult.compare("thm31", {"a": str(a), "k": list(ks), "m": list(ms)},
                                    lhs, rhs, quad.target_abs_err)


def _integer_order_args(n: int, ks, ms, op: str):
    """Checked (ks, ms) of an integer-order law (n > 1, m0 + n + d + sum(m_j)
    odd) and the convolution sum_{l_1+..+l_d = n+m0-1} prod a_{l_j}."""
    ks, ms = _multi_factor_args(ks, ms)
    if n <= 1:
        raise DomainError(f"{op} needs integer n > 1")
    if (n + len(ks) + sum(ms)) % 2 == 0:
        raise DomainError(
            "parity condition violated: m0 + n + d + sum(m_j) must be odd")
    return ks, ms, convolution_at_zero(n + ms[0], ks, ms[1:])


def verify_thm32(n: int, ks, ms, cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Integer-order multi-factor reciprocity with the integral collapsed.

    Requires the parity condition m0 + n + d + sum(m_j) odd; then the integral
    term reduces to the residue-at-zero convolution

        (-1)^(m0+1) n^(m0) / 2 * sum_{l_1+..+l_d = n+m0-1} prod a_{l_j}.
    """
    cfg = cfg or DEFAULT_PRECISION
    ks, ms, conv = _integer_order_args(n, ks, ms, "verify_thm32")
    with mp.workdps(cfg.working_digits + 10):
        lhs = _generalized_lhs(n, ks, ms, cfg)
        res1 = residue_at_one(n, ks, ms, cfg)
        pref = Fraction(exact.rising_factorial(n, ms[0]), 2)
        if ms[0] % 2 == 0:
            pref = -pref
        rhs = -res1 + ComplexVal.from_exact(conv * pref, cfg)
        return VerifyResult.compare("thm32", {"n": n, "k": list(ks), "m": list(ms)},
                                    lhs, rhs, cfg.target_abs_err)


def verify_cor33(n: int, ks, ms, quad: QuadratureConfig | None = None,
                 cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Collapsed-integral identity: downward product integral at exponent
    n + m0 equals -pi*i times the residue-at-zero convolution (parity as in
    the integer-order law)."""
    cfg = cfg or DEFAULT_PRECISION
    quad = quad or DEFAULT_QUAD
    ks, ms, conv = _integer_order_args(n, ks, ms, "verify_cor33")
    with mp.workdps(cfg.working_digits + 10):
        lhs = cot_product_line_integral(n + ms[0], ks, ms[1:], quad, cfg)
        rhs = ComplexVal.from_exact(conv * ExactScaled(-1, 1, 1), cfg)  # times -pi i
        return VerifyResult.compare("cor33", {"n": n, "k": list(ks), "m": list(ms)},
                                    lhs, rhs, quad.target_abs_err)


# ---------------------------------------------------------------------------
# Period function at general complex order: Bernoulli sum + Mellin integral
# ---------------------------------------------------------------------------

def g_a_numeric(a, z, M: int | None = None, quad: QuadratureConfig | None = None,
                cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Analytic part g_a(z) of the period function, z off the closed negative
    real axis, via the Bernoulli sum plus a Mellin vertical-line integral:

        g_a(z) = 2 sum_{1<=n<=M} (-1)^n B_{2n}/(2n)! zeta(1-2n-a) (2 pi z)^(2n-1)
                 + (1/(pi i)) int_(c) zeta(1-s) zeta(1+a-s) Gamma(1+a-s)
                              cos(pi a/2) (2 pi)^(s-a-1) z^(-s) / cos(pi s/2) ds

    over the upward line Re(s) = c = -1/2 - 2M, M >= -min(0, Re a)/2.  The
    integrand is zeta(s) zeta(s-a) Gamma(s) cos(pi a/2)/sin(pi (s-a)/2)
    (2 pi z)^(-s) rewritten by the functional equation of both zetas, so it
    has no removable 0/0 points.  The sign of the Bernoulli sum is pinned
    jointly by the exact odd-order polynomials (g_{-n} for odd n, where
    cos(pi a/2) = 0 kills the integral and the sum must reproduce the
    polynomial) and by the Eisenstein-period route at generic order; the
    combination above is the one invariant under changes of M.

    No pole check is needed: on the line Re(1-s) = 3/2 + 2M and
    Re(1+a-s) = 3/2 + 2M + Re a are both >= 3/2, so the two zetas and the
    gamma sit right of their poles, and cos(pi s/2) vanishes only at the odd
    integers.  Every pole of the integrand (s = 0, s = a, s = 1+a+n and the
    odd integers) lies at least 1/2 from the line.

    For real a and real z > 0 only the upper half of the line is evaluated:
    every factor is real on the real axis, so the integrand at c - it is the
    conjugate of the one at c + it.
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
        M = max(1, int(mp.ceil(-ac.real / 2))) if M is None else int(M)
        if M < max(0, -ac.real) / 2:
            raise DomainError("M must satisfy M >= -min(0, Re a)/2")
        c = -mp.mpf(1) / 2 - 2 * M

        bern = mp.mpc(0)
        bern_err = mp.mpf(0)
        for n in range(1, M + 1):
            zv = specfn.riemann_zeta(1 - 2 * n - ac, cfg)
            t = (-1) ** n * specfn._bern_over_fact(n) * (2 * mp.pi * zc) ** (2 * n - 1)
            bern += 2 * t * zv.val
            bern_err += 2 * abs(t) * zv.abs_err

        cosfac = mp.cospi(ac / 2)
        target = mp.mpf(quad.target_abs_err)
        T = (2 / mp.pi) * mp.log(1 / target) + 6

        if cosfac == 0:
            integral = ComplexVal(0, 0)
        else:
            # Node values must be much tighter than the quadrature target so
            # their unpropagated errors stay below the panel estimate.
            node_target = min(cfg.target_abs_err, quad.target_abs_err) / 1e3
            eval_cfg = PrecisionConfig(
                max(cfg.working_digits, int(-log10(node_target)) + 6),
                node_target, cfg.max_terms)

            # (2 pi)^(s-a-1) z^(-s) = (2 pi)^(-a-1) (2 pi/z)^s off the cut.
            scale = cosfac * (2 * mp.pi) ** (-ac - 1)
            base = 2 * mp.pi / zc

            def integrand(t):
                s = c + 1j * t
                num = (specfn.riemann_zeta(1 - s, eval_cfg).val
                       * specfn.riemann_zeta(1 + ac - s, eval_cfg).val
                       * specfn.complex_gamma(1 + ac - s, eval_cfg).val)
                return num * scale * base ** s / mp.cospi(s / 2)

            symmetric = ac.imag == 0 and zc.imag == 0

            def pair(t):
                upper = integrand(t)
                return upper, (mp.conj(upper) if symmetric else integrand(-t))

            val, qerr = _integrate_line(pair, mp.mpf(1) / 2, T, target)
            upward = 1j * val
            tail = 3 * sum(map(abs, pair(T))) * 2 / mp.pi
            integral = ComplexVal(upward / (mp.pi * 1j), (qerr + tail) / mp.pi)

        return ComplexVal(bern, bern_err) + integral


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
    exact._require_coprime_positive(h, k, "verify_thm11")
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
        return VerifyResult.compare(
            "thm11", {"a": str(a), "h": h, "k": k, "psi_route": psi_route},
            lhs, rhs, quad.target_abs_err)


def verify_eisenstein_period(n: int, z, cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Cross-check of the closed odd-order period polynomial against the
    q-series route: psi_{-n}(z) = E_{1-n}(z) - z^(n-1) E_{1-n}(-1/z), Im z > 0."""
    cfg = cfg or DEFAULT_PRECISION
    exact._require_odd_gt1(n, "verify_eisenstein_period")
    with mp.workdps(cfg.working_digits + 10):
        zc = mp.mpc(z)
        if not zc.imag > 0:
            raise DomainError("need Im(z) > 0 for the q-series route")
        lhs = exact.psi_polynomial(n).evaluate(zc, cfg)
        e_at_z = specfn.eisenstein_E(-n, zc, None, cfg)
        e_at_inv = specfn.eisenstein_E(-n, -1 / zc, None, cfg)
        rhs = e_at_z - ComplexVal(zc ** (n - 1)) * e_at_inv
        return VerifyResult.compare("eisenstein-period", {"n": n, "z": str(z)},
                                    lhs, rhs, cfg.target_abs_err)


def verify_thm14_cross(n: int, z=1, M: int | None = None,
                       quad: QuadratureConfig | None = None,
                       cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Cross-check of the odd-order closed polynomial for the analytic part
    against its Bernoulli-Mellin evaluation: g_{-n}(z) vs g_a_numeric(-n, z)."""
    cfg = cfg or DEFAULT_PRECISION
    exact._require_odd_gt1(n, "verify_thm14_cross")
    with mp.workdps(cfg.working_digits + 10):
        lhs = exact.g_polynomial(n).evaluate(z, cfg)
        rhs = g_a_numeric(-n, z, M, quad, cfg)
        return VerifyResult.compare("thm14-cross", {"n": n, "z": str(z)}, lhs, rhs,
                                    (quad or DEFAULT_QUAD).target_abs_err)


def verify_dedekind_recip(h: int, k: int,
                          cfg: PrecisionConfig | None = None) -> VerifyResult:
    """Exact classical reciprocity:
        s(h,k) + s(k,h) = -1/4 + (h/k + 1/(hk) + k/h)/12."""
    return VerifyResult.exact(
        "dedekind-recip", {"h": h, "k": k},
        exact.dedekind_sum(h, k) + exact.dedekind_sum(k, h),
        Fraction(-1, 4) + (Fraction(h, k) + Fraction(1, h * k) + Fraction(k, h)) / 12,
        cfg)
