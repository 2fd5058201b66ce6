"""Controlled-precision special functions on mpmath's arbitrary-precision floats.

All heavy algorithms here are implemented directly (Euler-Maclaurin for the
Hurwitz zeta on the whole s-plane, a shifted Stirling series with reflection
for the complex gamma function, cotangent-derivative polynomials, the
Apostol-Bernoulli triangular recurrence, an accelerated Lerch series); mpmath
supplies only the number type and elementary functions.  Every operation
returns a :class:`ComplexVal` carrying a first-order absolute-error estimate,
and accepts a :class:`PrecisionConfig` fixing working precision and target
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath as mp

from . import exact
from .errors import DomainError, PoleError, PrecisionError

# ComplexVal arithmetic runs at this generous precision, or at the caller's
# when that is higher, so that wrapper operations never truncate values
# produced at working precision.
_OP_DPS = 60


def _op_precision():
    """The context of a ComplexVal operation: max(60 digits, the caller's)."""
    return mp.workdps(max(_OP_DPS, mp.mp.dps))


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision (decimal digits), target absolute error, term cap."""

    working_digits: int = 30
    target_abs_err: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self):
        if self.working_digits < 15:
            raise DomainError("working_digits must be at least 15")
        if not self.target_abs_err > 0:
            raise DomainError("target_abs_err must be positive")
        if self.target_abs_err < 10.0 ** (-self.working_digits + 2):
            raise DomainError(
                "target_abs_err must be >= 10^(2 - working_digits); "
                "raise working_digits instead")
        if self.max_terms < 100:
            raise DomainError("max_terms is unusably small")


DEFAULT_PRECISION = PrecisionConfig()


def _real_mpf(x) -> mp.mpf:
    """Convert a real-valued input (int, float, Fraction, mpf) to mpf."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, mp.mpc):
        if x.imag != 0:
            raise DomainError("a real argument is required")
        return x.real
    if isinstance(x, complex):
        if x.imag != 0:
            raise DomainError("a real argument is required")
        return mp.mpf(x.real)
    return mp.mpf(x)


class ComplexVal:
    """A complex number plus an estimated absolute error bound.

    Arithmetic propagates ``abs_err`` to first order.  Construct inside the
    producing computation's precision context (values keep the precision they
    were created with); wrapper arithmetic runs at 60 digits, or at the
    caller's precision when that is higher.
    """

    __slots__ = ("val", "abs_err")

    def __init__(self, val, abs_err=0):
        object.__setattr__(self, "val", mp.mpc(val))
        err = mp.mpf(abs_err)
        if err < 0 or not mp.isfinite(err):
            raise DomainError("abs_err must be finite and nonnegative")
        object.__setattr__(self, "abs_err", err)

    @classmethod
    def from_exact(cls, value, cfg: "PrecisionConfig | None" = None) -> "ComplexVal":
        """An int, Fraction or ExactScaled rounded at working_digits + 10, with
        abs_err |value| * 10^-(working_digits + 5): the one rule by which an
        exact value acquires an error.  Rationals skip ExactScaled's pi power."""
        cfg = cfg or DEFAULT_PRECISION
        with mp.workdps(cfg.working_digits + 10):
            if isinstance(value, exact.ExactScaled):
                v = value.numeric(cfg.working_digits + 10)
            else:
                v = _real_mpf(value)
            return cls(v, abs(v) / 10 ** (cfg.working_digits + 5))

    def __setattr__(self, *a):
        raise AttributeError("ComplexVal is immutable")

    @property
    def re(self) -> mp.mpf:
        return self.val.real

    @property
    def im(self) -> mp.mpf:
        return self.val.imag

    def mag(self) -> mp.mpf:
        with _op_precision():
            return abs(self.val)

    @staticmethod
    def _coerce(other) -> "ComplexVal":
        if isinstance(other, ComplexVal):
            return other
        return ComplexVal(other, 0)

    def __add__(self, other):
        with _op_precision():
            o = self._coerce(other)
            return ComplexVal(self.val + o.val, self.abs_err + o.abs_err)

    __radd__ = __add__

    def __neg__(self):
        with _op_precision():
            return ComplexVal(-self.val, self.abs_err)

    def __sub__(self, other):
        with _op_precision():
            o = self._coerce(other)
            return ComplexVal(self.val - o.val, self.abs_err + o.abs_err)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        with _op_precision():
            o = self._coerce(other)
            err = abs(self.val) * o.abs_err + abs(o.val) * self.abs_err
            return ComplexVal(self.val * o.val, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        with _op_precision():
            o = self._coerce(other)
            if o.val == 0:
                raise ZeroDivisionError("division by zero ComplexVal")
            v = self.val / o.val
            err = self.abs_err / abs(o.val) + abs(v) * o.abs_err / abs(o.val)
            return ComplexVal(v, err)

    def scaled(self, factor) -> "ComplexVal":
        """factor * self with error |factor| * abs_err, at the caller's precision."""
        return ComplexVal(factor * self.val, abs(factor) * self.abs_err)

    def conjugate(self) -> "ComplexVal":
        with _op_precision():
            return ComplexVal(mp.mpc(self.val.real, -self.val.imag), self.abs_err)

    def to_json(self, digits: int = 25) -> dict:
        with mp.workdps(_OP_DPS):
            return {
                "re": mp.nstr(self.val.real, digits),
                "im": mp.nstr(self.val.imag, digits),
                "abs_err": mp.nstr(self.abs_err, 3),
            }

    def __repr__(self):
        with mp.workdps(_OP_DPS):
            return f"ComplexVal({mp.nstr(self.val, 12)}, abs_err={mp.nstr(self.abs_err, 3)})"


_bern_tables: dict = {}


def _bern_over_fact(r: int) -> mp.mpf:
    """B_2r/(2r)! at the current precision, from one table per binary precision."""
    table = _bern_tables.setdefault(mp.mp.prec, [None])
    for j in range(len(table), r + 1):
        table.append(_real_mpf(exact.bernoulli_number(2 * j)) / factorial(2 * j))
    return table[r]


# ---------------------------------------------------------------------------
# Hurwitz / Riemann zeta by Euler-Maclaurin, valid on the whole s-plane
# ---------------------------------------------------------------------------

def hurwitz_zeta(s, x, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s), continued to all complex s != 1.

    Euler-Maclaurin with shift N and adaptive correction depth: the defining
    tail past N is replaced by

        w^(1-s)/(s-1) + w^(-s)/2 + sum_r B_{2r}/(2r)! (s)^(2r-1) w^(1-s-2r)

    with w = N + x, and the standard remainder bound (first omitted term times
    |s+2R+1|/(Re s+2R+1)) folded into abs_err.  x must be real and positive;
    all powers use the principal branch.
    """
    cfg = cfg or DEFAULT_PRECISION
    xr = _real_mpf(x)
    if not xr > 0:
        raise DomainError("hurwitz_zeta needs x > 0")
    with mp.workdps(_OP_DPS):
        sc = mp.mpc(s)
        if sc == 1:
            raise PoleError("hurwitz_zeta has a pole at s = 1")
    target = mp.mpf(cfg.target_abs_err) / 2
    sigma = sc.real
    N = max(10, int(0.9 * cfg.working_digits)
            + int(0.55 * abs(sc.imag)) + int(max(0, -sigma)))
    for _attempt in range(8):
        if N > cfg.max_terms:
            raise PrecisionError("hurwitz_zeta: shift exceeds max_terms")
        # Guard digits: direct-sum cancellation for Re(s) < 0 plus headroom.
        wp = (cfg.working_digits + 15
              + int((max(0, float(-sigma)) + 1) * mp.log10(N + 2)))
        with mp.workdps(wp):
            sc_w = _power_exponent(s)  # an int or an mpf at a real order
            w = mp.mpf(N) + xr
            direct = mp.mpf(0)
            magsum = mp.mpf(0)
            for j in range(N):
                t = (j + xr) ** (-sc_w)
                direct += t
                magsum += abs(t)
            tail = w ** (1 - sc_w) / (sc_w - 1) + w ** (-sc_w) / 2
            magsum += abs(tail)
            total = direct + tail
            bound = None
            prev_mag = mp.inf
            grew = 0
            wpow = w ** (-sc_w - 1)  # w^(-s-2r+1) at r=1
            w2 = w * w
            rising = sc_w  # (s)_(2r-1) at r=1
            for r in range(1, 4 * wp + 2):
                term = _bern_over_fact(r) * rising * wpow
                tm = abs(term)
                total += term
                magsum += tm
                rising *= (sc_w + 2 * r - 1) * (sc_w + 2 * r)
                if sigma + 2 * r + 1 > 0:
                    bound = (abs(_bern_over_fact(r + 1) * rising * (sc_w + 2 * r + 1))
                             * w ** (-sigma - 2 * r - 1) / (sigma + 2 * r + 1))
                    if bound <= target:
                        break
                if tm > prev_mag:
                    grew += 1
                    if grew >= 2:
                        break  # asymptotic divergence; need a larger shift
                else:
                    grew = 0
                prev_mag = tm
                wpow /= w2
            if bound is not None and bound <= target:
                rounding = magsum * mp.mpf(10) ** (-wp + 3)
                return ComplexVal(total, bound + rounding)
        N = int(N * 1.7) + 8
    raise PrecisionError("hurwitz_zeta failed to meet the target accuracy")


def riemann_zeta(s, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """zeta(s) on the whole plane (s != 1), as the x = 1 Hurwitz value."""
    return hurwitz_zeta(s, 1, cfg)


def hurwitz_zeta_x_deriv(m: int, s, x, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """m-th partial derivative of zeta(s, x) in x:

        (d/dx)^m zeta(s, x) = (-1)^m (s)^(m) zeta(s+m, x)

    using d/dx zeta(s,x) = -s zeta(s+1,x) repeatedly.
    """
    if m < 0:
        raise DomainError("derivative order must be nonnegative")
    cfg = cfg or DEFAULT_PRECISION
    if m == 0:
        return hurwitz_zeta(s, x, cfg)
    with mp.workdps(cfg.working_digits + 10):
        sc = mp.mpc(s)
        factor = exact.rising_factorial(sc, m)
        if m % 2:
            factor = -factor
        return hurwitz_zeta(sc + m, x, cfg).scaled(factor)


# ---------------------------------------------------------------------------
# Complex gamma: shifted Stirling series plus reflection
# ---------------------------------------------------------------------------

def _log_gamma_stirling(w, wp: int, target):
    """log Gamma(w) for Re(w) >> 0 via the Stirling asymptotic series.

    Returns (value, error_bound).  Caller guarantees Re(w) large enough that
    the series reaches ``target`` before its divergent turn.
    """
    acc = (w - mp.mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
    secfac = 1 / mp.cos(mp.arg(w) / 2)
    r = 0
    winv = 1 / w
    wpow = winv
    w2inv = winv * winv
    bound = mp.inf
    while True:
        r += 1
        term = _bern_over_fact(r) * factorial(2 * r - 2) * wpow
        acc += term
        nxt = abs(_bern_over_fact(r + 1)) * factorial(2 * r) * abs(wpow * w2inv)
        bound = nxt * secfac ** (2 * r + 2)
        if bound <= target or r > 2 * wp:
            break
        wpow *= w2inv
    return acc, bound


def complex_gamma(s, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Gamma(s) for complex s, poles at the nonpositive integers.

    Uses upward recurrence into the Stirling regime; for Re(s) < 1/2 the
    reflection formula Gamma(s) Gamma(1-s) = pi / sin(pi s) is applied first,
    which keeps the series accurate on vertical lines in the left half-plane.
    """
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(_OP_DPS):
        sc = mp.mpc(s)
        if sc.imag == 0 and mp.isint(sc.real) and sc.real <= 0:
            raise PoleError(f"gamma pole at s = {int(sc.real)}")
    wp = cfg.working_digits + 15
    target = mp.mpf(10) ** (-cfg.working_digits - 5)
    with mp.workdps(wp):
        sc = mp.mpc(s)
        reflected = sc.real < mp.mpf(1) / 2
        z = 1 - sc if reflected else sc
        shift = max(0, int(mp.ceil(max(10, 0.45 * wp) - z.real)))
        w = z + shift
        logg, bound = _log_gamma_stirling(w, wp, target)
        prod = mp.mpc(1)
        for j in range(shift):
            prod *= z + j
        gamma_z = mp.exp(logg)
        if shift:
            gamma_z /= prod
        rel = bound + mp.mpf(10) ** (-wp + 4) * (1 + abs(logg)) + shift * mp.mpf(10) ** (-wp + 3)
        if not reflected:
            return ComplexVal(gamma_z, abs(gamma_z) * rel)
        sinpis = mp.sinpi(sc)
        if sinpis == 0:
            raise PoleError("gamma pole detected through reflection")
        val = mp.pi / (sinpis * gamma_z)
        rel += mp.mpf(10) ** (-wp + 4)
        return ComplexVal(val, abs(val) * rel)


def polygamma(n: int, x, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Polygamma Psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x) for integer n >= 1, x > 0,
    the (n-1)-th x-derivative of zeta(2, x) since n! = (2)^(n-1)."""
    if n < 1:
        raise DomainError("polygamma order must be a positive integer")
    return hurwitz_zeta_x_deriv(n - 1, 2, x, cfg)


# ---------------------------------------------------------------------------
# Cotangent derivatives: cot^(m)(w) = P_m(cot w) with integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CotDerivPolynomial:
    """P_m with cot^(m)(w) = P_m(cot w); P_0 = X, P_{m+1} = -(1+X^2) P_m'."""

    degree: int
    coefficients: tuple[int, ...]  # ascending powers

    def __call__(self, value):
        acc = 0 * value
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc


@lru_cache(maxsize=None)
def _cot_poly_coeffs(m: int) -> tuple[int, ...]:
    if m == 0:
        return (0, 1)
    prev = _cot_poly_coeffs(m - 1)
    deriv = tuple(j * prev[j] for j in range(1, len(prev)))
    out = [0] * (len(deriv) + 2)
    for j, c in enumerate(deriv):
        out[j] -= c
        out[j + 2] -= c
    return tuple(out)


def cot_deriv_poly(m: int) -> CotDerivPolynomial:
    """Exact integer polynomial P_m of degree m+1 via the stated recurrence."""
    if m < 0:
        raise DomainError("derivative order must be nonnegative")
    return CotDerivPolynomial(m + 1, _cot_poly_coeffs(m))


def cot_derivative(m: int, w, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """m-th derivative of cot with respect to its own argument, at w.

    Chain-rule factors for arguments like pi*k*z are the caller's business.
    Poles at integer multiples of pi.  A real w is kept real.
    """
    if m < 0:
        raise DomainError("derivative order must be nonnegative")
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        wc = mp.mpmathify(w)
        ratio = wc / mp.pi
        if ratio.imag == 0 and abs(ratio.real - mp.nint(ratio.real)) < mp.mpf(10) ** (-wp + 5):
            raise PoleError("cot derivative evaluated at a pole (integer multiple of pi)")
        c = mp.cot(wc)
        poly = cot_deriv_poly(m)
        val = poly(c)
        condition = CotDerivPolynomial(m + 1, tuple(map(abs, poly.coefficients)))(abs(c))
        err = (condition * (m + 2) + abs(val)) * mp.mpf(10) ** (-wp + 3)
        return ComplexVal(val, err)


# ---------------------------------------------------------------------------
# Apostol-Bernoulli polynomials and the Lerch transcendent
# ---------------------------------------------------------------------------

def apostol_bernoulli(k: int, z, lam, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Apostol-Bernoulli B_k(z; lambda) from t e^{zt}/(lambda e^t - 1).

    Triangular recurrence: B_0 = 0 and
        B_N = (N z^(N-1) - lambda sum_{j<N} C(N,j) B_j) / (lambda - 1),
    so B_1 = 1/(lambda - 1).  Requires lambda != 1 (the classical Bernoulli
    polynomial is the lambda = 1 analogue and lives in the exact layer).
    """
    if k < 0:
        raise DomainError("index must be nonnegative")
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        lamc = mp.mpc(lam)
        if lamc == 1:
            raise DomainError("apostol_bernoulli needs lambda != 1; "
                              "use the classical Bernoulli polynomial for lambda = 1")
        zc = mp.mpc(z)
        B = [mp.mpc(0)]
        maxmag = mp.mpf(0)
        for N in range(1, k + 1):
            acc = N * zc ** (N - 1)
            for j in range(1, N):
                acc -= lamc * comb(N, j) * B[j]
            B.append(acc / (lamc - 1))
            maxmag = max(maxmag, abs(B[-1]))
        if k == 0:
            return ComplexVal(0, 0)
        scale = max(mp.mpf(1), maxmag) / min(mp.mpf(1), abs(lamc - 1))
        return ComplexVal(B[k], scale * (k + 2) * mp.mpf(10) ** (-wp + 3))


def _lerch_series_accelerated(sc, zc, lamc, cfg: PrecisionConfig) -> ComplexVal:
    """Direct Lerch series for Re(s) > 1 with summation-by-parts tail.

    Each transform step multiplies the tail by lambda/(1-lambda) and takes a
    forward difference of (z+n)^(-s), gaining one power of n in decay.  The
    tail bound after J steps,

        c^J |(s)_J| (N + Re z)^(1-Re s-J) / (Re s + J - 1) e^(|Im s| |arg(z+N)|),

    c = max(1, |1/(1-lambda)|), fixes J before any term is summed; a twist
    near 1 makes c large, so N doubles until some J <= 64 meets the target
    or N passes max_terms.  The i-th difference carries up to 2^i times the
    rounding of the values and is weighted by |1/(1-lambda)|^(i+1), so the
    guard digits cover (2 |1/(1-lambda)|)^J and the rounding term counts
    that growth.
    """
    target = mp.mpf(cfg.target_abs_err) / 2
    sigma = sc.real
    x0 = zc.real
    c_step = abs(1 / (1 - lamc))
    N = max(24, int(4 * abs(sc)) + 8, int(2 * abs(zc)) + 8)
    while True:
        if N > cfg.max_terms:
            raise PrecisionError("lerch series shift exceeds max_terms")
        argslack = mp.exp(abs(sc.imag) * abs(mp.arg(zc + N)))
        rising = mp.mpc(1)
        for J in range(1, 65):
            rising *= sc + J - 1
            bound = (max(c_step, 1) ** J * abs(rising) * (N + x0) ** (1 - sigma - J)
                     / (sigma + J - 1) * argslack)
            if bound <= target:
                break
        if bound <= target:
            break
        N *= 2
    wp = cfg.working_digits + max(18, int(J * mp.log10(max(2 * c_step, 1))) + 4)
    with mp.workdps(wp):
        lam_over = lamc / (1 - lamc)
        partial = mp.mpc(0)
        lampow = mp.mpc(1)
        magsum = mp.mpf(0)
        for n in range(N):
            t = lampow * (zc + n) ** (-sc)
            partial += t
            magsum += abs(t)
            lampow *= lamc
        diffs = [(zc + N + j) ** (-sc) for j in range(J)]
        amax = max(abs(v) for v in diffs)
        acc = mp.mpc(0)
        stepfac = lampow / (1 - lamc)  # lambda^N / (1 - lambda)
        for i in range(J):
            acc += stepfac * diffs[0]
            magsum += abs(stepfac) * 2 ** i * amax
            stepfac *= lam_over
            diffs = [diffs[j + 1] - diffs[j] for j in range(len(diffs) - 1)]
        rounding = magsum * mp.mpf(10) ** (-wp + 3)
        return ComplexVal(partial + acc, bound + rounding)


def lerch_phi(s, z, lam, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Lerch transcendent Phi(s, z, lambda) = sum_{n>=0} lambda^n (z+n)^(-s).

    Two regimes only: the convergent series for Re(s) > 1 (|lambda| = 1,
    Re(z) > 0), and the closed form Phi(-k, z, lambda) = -B_{k+1}(z;lambda)/(k+1)
    at nonpositive integers s = -k.  lambda = 1 delegates to the Hurwitz zeta.
    Anything else raises a domain error: no general analytic continuation.
    """
    cfg = cfg or DEFAULT_PRECISION
    with mp.workdps(cfg.working_digits + 10):
        sc = mp.mpc(s)
        zc = mp.mpc(z)
        lamc = mp.mpc(lam)
        if abs(abs(lamc) - 1) > mp.mpf(10) ** (4 - cfg.working_digits):
            raise DomainError(
                f"lerch_phi supports |lambda| = 1 only: |lambda| - 1 = "
                f"{mp.nstr(abs(lamc) - 1, 3)}, tolerance 10^(4 - {cfg.working_digits}); pass the "
                "twist at working_digits + 10 digits, or use the RationalArg routes "
                "(cotangent_sum_C, estermann_*)")
        if lamc == 1:
            return hurwitz_zeta(sc, zc, cfg)
        if sc.imag == 0 and mp.isint(sc.real) and sc.real <= 0:
            k = int(-sc.real)
            b = apostol_bernoulli(k + 1, zc, lamc, cfg)
            return ComplexVal(-b.val / (k + 1), b.abs_err / (k + 1))
        if sc.real > 1:
            if not zc.real > 0:
                raise DomainError("series regime needs Re(z) > 0")
            return _lerch_series_accelerated(sc, zc, lamc, cfg)
    raise DomainError(
        "lerch_phi regime not supported: need Re(s) > 1 or s a nonpositive integer")


# ---------------------------------------------------------------------------
# Divisor sums and the Eisenstein q-series
# ---------------------------------------------------------------------------

def divisor_sigma(a, n: int, cfg: PrecisionConfig | None = None) -> ComplexVal:
    """sigma_a(n) = sum over divisors d | n of d^a (a may be complex)."""
    if n < 1:
        raise DomainError("divisor_sigma needs n >= 1")
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        ac = mp.mpc(a)
        total = mp.mpc(0)
        d = 1
        while d * d <= n:
            if n % d == 0:
                total += mp.mpc(d) ** ac
                if d != n // d:
                    total += mp.mpc(n // d) ** ac
            d += 1
        return ComplexVal(total, abs(total) * mp.mpf(10) ** (-wp + 4))


def _power_exponent(z):
    """z in the cheapest form for ``mpf ** z``: a Python int when z is a real
    integer, an mpf when it is real, else an mpc."""
    zc = mp.mpc(z)
    if zc.imag != 0:
        return zc
    return int(zc.real) if mp.isint(zc.real) else zc.real


def _sigma_prefix_mpc(a, N: int):
    """[sigma_a(1), ..., sigma_a(N)] via a divisor sieve: exact Python ints
    for a nonnegative integer a, else mpf values (real a) or mpc values at
    current precision."""
    e = _power_exponent(a)
    exact_ints = isinstance(e, int) and e >= 0
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        p = d ** e if exact_ints else mp.mpf(d) ** e
        for m in range(d, N + 1, d):
            out[m] += p
    return out[1:]


def eisenstein_E(a, z, truncation: int | None = None,
                 cfg: PrecisionConfig | None = None) -> ComplexVal:
    """Weight-(a+1) Eisenstein series E_{a+1}(z) = 1 + (2/zeta(-a)) sum sigma_a(n) e(nz).

    Im(z) > 0; the q-series is truncated with a geometric tail bound folded
    into abs_err.  zeta(-a) = 0 (trivial zeros, a a positive even integer) is
    rejected; the a = -n cases used by the period identities have
    zeta(n) != 0 and are fine.
    """
    cfg = cfg or DEFAULT_PRECISION
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        zm = riemann_zeta(-mp.mpc(a), cfg)
        zc = mp.mpc(z)
        if not zc.imag > 0:
            raise DomainError("eisenstein_E needs Im(z) > 0")
        if abs(zm.val) < mp.mpf(10) ** (-cfg.working_digits + 6):
            raise DomainError("zeta(-a) vanishes; the q-series normalization breaks down")
        ac = mp.mpc(a)
        r = mp.exp(-2 * mp.pi * zc.imag)
        c = max(mp.mpf(0), ac.real) + 1  # |sigma_a(n)| <= n^c
        target = mp.mpf(cfg.target_abs_err) / 4

        def tail_bound(N):
            ratio = ((mp.mpf(N + 2) / (N + 1)) ** c) * r
            if ratio >= 1:
                return mp.inf
            return (N + 1) ** c * r ** (N + 1) / (1 - ratio)

        if truncation is None:
            N = 4
            while tail_bound(N) > target and N < cfg.max_terms:
                N = int(N * 1.5) + 2
        else:
            N = truncation
        if N > cfg.max_terms:
            raise PrecisionError("eisenstein_E truncation exceeds max_terms")
        sig = _sigma_prefix_mpc(ac, N)
        qn = mp.exp(2j * mp.pi * zc)
        qpow = mp.mpc(1)
        S = mp.mpc(0)
        magsum = mp.mpf(0)
        for n in range(1, N + 1):
            qpow *= qn
            t = sig[n - 1] * qpow
            S += t
            magsum += abs(t)
        tb = tail_bound(N)
        val = 1 + 2 / zm.val * S
        err = (2 / abs(zm.val) * (tb + magsum * mp.mpf(10) ** (-wp + 3))
               + 2 * abs(S) / abs(zm.val) ** 2 * zm.abs_err)
        return ComplexVal(val, err)
