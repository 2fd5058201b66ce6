"""Exact arithmetic layer.

Everything in this module is computed with big rationals (``fractions.Fraction``)
or with :class:`ExactScaled` values of the form ``rational * pi**p * i**q``, so
the identities it verifies hold with zero tolerance.  It provides Bernoulli
numbers and polynomials, Dedekind and Dedekind-Apostol sums, the odd-order
reciprocity law for the cotangent-Hurwitz sums ``c_{-n}(h/k)``, and the closed
Laurent-polynomial forms of the associated period functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Iterable, Mapping, Union

from .errors import DomainError

Rational = Union[int, Fraction]

STANDARD = "standard"  # B_1 = -1/2
ZEROED = "zeroed"      # B_1 = 0; even-index values unchanged

_CONVENTIONS = (STANDARD, ZEROED)

# Cache of B_0, B_1, ... in the standard convention.  Entries are immutable
# Fractions, so sharing the list across callers keeps every operation pure.
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int, convention: str = STANDARD) -> Fraction:
    """Bernoulli number B_n under the chosen convention.

    ``standard`` means B_1 = -1/2 and ``zeroed`` means B_1 = 0; all other
    indices agree (odd-index numbers above 1 vanish in both conventions).
    """
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown Bernoulli convention {convention!r}")
    if n == 1 and convention == ZEROED:
        return Fraction(0)
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        # Binomial recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0.
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli_cache):
            acc += comb(m + 1, j) * bj
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def bernoulli_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), ascending in x, standard convention.

    B_n(x) = sum_k C(n,k) B_k x^(n-k), so B_n(0) = B_n with B_1 = -1/2.
    """
    if n < 0:
        raise DomainError("Bernoulli polynomial degree must be nonnegative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return tuple(coeffs)


def poly_eval(coeffs: Iterable[Rational], x: Rational) -> Fraction:
    """Evaluate a coefficient list (ascending powers) at a rational point."""
    acc = Fraction(0)
    xq = Fraction(x)
    for c in reversed(list(coeffs)):
        acc = acc * xq + Fraction(c)
    return acc


def rising_factorial(x, n: int):
    """Rising factorial x(x+1)...(x+n-1); the empty product (n = 0) is 1.

    Works for any type closed under + and * (Fraction, int, float, complex,
    mpmath numbers); the result has the type arithmetic gives it.
    """
    if n < 0:
        raise DomainError("rising factorial needs a nonnegative order")
    result = x - x + 1 if not isinstance(x, (int, Fraction)) else Fraction(1)
    for l in range(n):
        result = result * (x + l)
    if isinstance(x, int) and isinstance(result, Fraction) and result.denominator == 1:
        return int(result)
    return result


def zeta_neg_int(k: int, x: Rational = 1) -> Fraction:
    """Hurwitz zeta(-k, x) = -B_{k+1}(x)/(k+1) for nonnegative integer k and
    rational 0 < x <= 1; the default x = 1 gives Riemann's zeta(-k).

    Evaluating the Bernoulli polynomial at 1 (rather than taking the number
    B_{k+1}) keeps the k = 0 case honest: zeta(0) = -B_1(1) = -1/2, whereas
    -B_1 would flip the sign.  For k >= 1 the two agree.
    """
    if k < 0:
        raise DomainError("zeta_neg_int wants a nonnegative integer")
    return -poly_eval(bernoulli_polynomial(k + 1), x) / (k + 1)


def _require_coprime_positive(h: int, k: int, op: str):
    if h < 1 or k < 1:
        raise DomainError(f"{op} needs positive integers, got ({h}, {k})")
    if gcd(h, k) != 1:
        raise DomainError(f"{op} needs coprime arguments, got ({h}, {k})")


def _require_odd_gt1(n: int, op: str):
    if n <= 1 or n % 2 == 0:
        raise DomainError(f"{op} is defined for odd n > 1 only, got n = {n}")


def _bernoulli_moment_sum(n: int, h: int, k: int) -> Fraction:
    """s_n(h,k) = sum_e c_e k^(-e-1) sum_{mu=1}^{k-1} mu r_mu^e, with B_n(x) =
    sum_e c_e x^e and r_mu = h mu mod k: the loop over mu runs on integers."""
    total = Fraction(0)
    for e, c in enumerate(bernoulli_polynomial(n)):
        if c:
            moment = sum(mu * (h * mu % k) ** e for mu in range(1, k))
            total += c * Fraction(moment, k ** (e + 1))
    return total


def dedekind_sum(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h,k) = sum_{m=1}^{k-1} ((m/k)) ((mh/k)).

    It agrees with the cotangent form (1/4k) sum cot(pi m/k) cot(pi m h/k) and,
    as gcd(h,k) = 1 is required, with the order-one Dedekind-Apostol sum s_1(h,k).
    """
    _require_coprime_positive(h, k, "dedekind_sum")
    return _bernoulli_moment_sum(1, h, k)


def apostol_sum(n: int, h: int, k: int) -> Fraction:
    """Dedekind-Apostol sum s_n(h,k) = sum_{mu=1}^{k-1} (mu/k) B~_n(h mu/k).

    B~_n is the periodic Bernoulli function.  Only odd n > 1 is admitted; the
    even-order sums are degenerate (independent of h) and have no use here.
    """
    _require_odd_gt1(n, "apostol_sum")
    _require_coprime_positive(h, k, "apostol_sum")
    return _bernoulli_moment_sum(n, h, k)


class ExactScaled:
    """A value rational * pi**pi_power * i**i_power, kept symbolic in pi and i.

    Normalization folds i**2 = -1 into the sign of the rational part, so
    ``i_power`` is always 0 or 1 and zero is stored canonically as
    (0, pi_power=0, i_power=0).  Addition is defined only between values whose
    (pi_power, i_power) agree after normalization (or when one side is zero);
    multiplication is unrestricted.
    """

    __slots__ = ("coeff", "pi_power", "i_power")

    def __init__(self, coeff: Rational, pi_power: int = 0, i_power: int = 0):
        c = Fraction(coeff)
        q = i_power % 4
        if q >= 2:
            c = -c
            q -= 2
        if c == 0:
            p, q = 0, 0
        else:
            p = int(pi_power)
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "pi_power", p)
        object.__setattr__(self, "i_power", q)

    def __setattr__(self, *args):  # immutability
        raise AttributeError("ExactScaled is immutable")

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        if not isinstance(other, ExactScaled):
            return NotImplemented
        return (self.coeff, self.pi_power, self.i_power) == (
            other.coeff, other.pi_power, other.i_power)

    def __hash__(self):
        return hash((self.coeff, self.pi_power, self.i_power))

    def __neg__(self) -> "ExactScaled":
        return ExactScaled(-self.coeff, self.pi_power, self.i_power)

    def __add__(self, other: "ExactScaled") -> "ExactScaled":
        if not isinstance(other, ExactScaled):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.pi_power, self.i_power) != (other.pi_power, other.i_power):
            raise DomainError(
                "cannot add ExactScaled values with different pi/i scaling: "
                f"pi^{self.pi_power} i^{self.i_power} vs pi^{other.pi_power} i^{other.i_power}")
        return ExactScaled(self.coeff + other.coeff, self.pi_power, self.i_power)

    def __sub__(self, other: "ExactScaled") -> "ExactScaled":
        return self.__add__(-other)

    def __mul__(self, other) -> "ExactScaled":
        if isinstance(other, ExactScaled):
            return ExactScaled(self.coeff * other.coeff,
                               self.pi_power + other.pi_power,
                               self.i_power + other.i_power)
        if isinstance(other, (int, Fraction)):
            return ExactScaled(self.coeff * other, self.pi_power, self.i_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScaled":
        if isinstance(other, (int, Fraction)):
            return ExactScaled(self.coeff / other, self.pi_power, self.i_power)
        if isinstance(other, ExactScaled):
            if other.is_zero():
                raise ZeroDivisionError("division by zero ExactScaled")
            # 1/i = -i, handled by multiplying with i^3.
            return ExactScaled(self.coeff / other.coeff,
                               self.pi_power - other.pi_power,
                               self.i_power + 3 * other.i_power)
        return NotImplemented

    def scale_rational_power(self, base: Rational, exponent: int) -> "ExactScaled":
        """Multiply by base**exponent (exponent may be negative)."""
        return ExactScaled(self.coeff * Fraction(base) ** exponent, self.pi_power, self.i_power)

    def numeric(self, dps: int = 30):
        """The value as an mpmath mpc at roughly dps significant digits."""
        import mpmath as mp
        with mp.workdps(dps + 5):
            val = mp.mpf(self.coeff.numerator) / self.coeff.denominator
            val = val * mp.pi ** self.pi_power
            return mp.mpc(0, val) if self.i_power == 1 else mp.mpc(val)

    def to_json(self) -> dict:
        return {
            "num": str(self.coeff.numerator),
            "den": str(self.coeff.denominator),
            "pi_pow": self.pi_power,
            "i_pow": self.i_power,
        }

    def __repr__(self):
        if self.is_zero():
            return "ExactScaled(0)"
        parts = [str(self.coeff)]
        if self.pi_power:
            parts.append(f"pi^{self.pi_power}")
        if self.i_power:
            parts.append("i")
        return "ExactScaled(" + " * ".join(parts) + ")"


@dataclass(frozen=True)
class PeriodPolynomial:
    """Laurent polynomial in z with ExactScaled coefficients.

    ``zeta_weight = n > 0`` marks an implicit overall factor 1/zeta(n) that is
    not representable exactly; the coefficients are unweighted and numeric
    evaluation divides the weight in.  An exponent -1 term is only
    carried by the period-function polynomials.
    """

    coefficients: Mapping[int, ExactScaled]
    zeta_weight: int = 0

    def __post_init__(self):
        coeffs = {e: c for e, c in self.coefficients.items() if not c.is_zero()}
        for e in coeffs:
            if e < -1:
                raise DomainError("PeriodPolynomial exponents must be >= -1")
        if self.zeta_weight < 0:
            raise DomainError("zeta_weight must be >= 0")
        object.__setattr__(self, "coefficients", coeffs)

    def evaluate(self, z, cfg=None):
        """Numeric value at complex z != 0, including the 1/zeta(n) weight."""
        from . import specfn
        cfg = cfg or specfn.DEFAULT_PRECISION
        import mpmath as mp
        with mp.workdps(cfg.working_digits + 10):
            zc = mp.mpc(z)
            if zc == 0:
                raise DomainError("period polynomials cannot be evaluated at z = 0")
            total = mp.mpc(0)
            for e, c in sorted(self.coefficients.items()):
                total += c.numeric(cfg.working_digits + 10) * zc ** e
            err = abs(total) * mp.mpf(10) ** (-(cfg.working_digits + 2))
            if self.zeta_weight:
                w = specfn.riemann_zeta(self.zeta_weight, cfg)
                total = total / w.val
                err = err / abs(w.val) + abs(total) / abs(w.val) * w.abs_err
        return specfn.ComplexVal(total, err)

    def to_json(self) -> dict:
        return {
            "coefficients": {str(e): c.to_json()
                             for e, c in sorted(self.coefficients.items())},
            "zeta_weight": self.zeta_weight,
        }


def exact_c_minus_n(n: int, h: int, k: int) -> ExactScaled:
    """Exact value of c_{-n}(h/k) = (2 pi i)^n / (i n!) * s_n(h,k) for odd n > 1.

    The result carries pi_power = n; for odd n the i-powers collapse to a real
    sign.  A negative first argument is handled by the oddness rule
    c_{-n}(-h/k) = -c_{-n}(h/k).

    There is deliberately no n = 1 case: the defining Hurwitz sum sits on the
    zeta pole there.  The classical Dedekind sum is the order-one analogue
    (``dedekind_sum``, up to the factor 2*pi suggested by the first-order
    cotangent-derivative reduction), and callers wanting it should use that.
    """
    _require_odd_gt1(n, "exact_c_minus_n")
    if h < 0:
        return -exact_c_minus_n(n, -h, k)
    _require_coprime_positive(h, k, "exact_c_minus_n")
    s = apostol_sum(n, h, k)
    return ExactScaled(Fraction(2 ** n, factorial(n)) * s, n, n - 1)


def bernoulli_convolution(n: int, convention: str = ZEROED) -> list[Fraction]:
    """Coefficients C(n+1,m) B_m B_{n+1-m}, m = 0..n+1, of the Bernoulli
    convolution shared by the odd-order reciprocity law, the period
    polynomials psi_{-n} and g_{-n}, and the closed cot-cot integral."""
    return [comb(n + 1, m) * bernoulli_number(m, convention)
            * bernoulli_number(n + 1 - m, convention) for m in range(n + 2)]


def bernoulli_convolution_at(n: int, h: int, k: int,
                             convention: str = ZEROED) -> Fraction:
    """sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m}."""
    return sum((c * h ** m * k ** (n + 1 - m)
                for m, c in enumerate(bernoulli_convolution(n, convention)) if c),
               Fraction(0))


def thm13_rhs(n: int, h: int, k: int, convention: str = STANDARD) -> ExactScaled:
    """Right-hand side of the odd-order reciprocity law:

        (2 pi i / hk)^n * (1/(i (n+1)!)) *
            (n B_{n+1} + sum_m C(n+1,m) B_m B_{n+1-m} h^m k^{n+1-m}).

    The value is independent of the B_1 convention: in the sum B_1 always
    multiplies an odd-index Bernoulli number above 1, which vanishes.
    """
    _require_odd_gt1(n, "thm13_rhs")
    _require_coprime_positive(h, k, "thm13_rhs")
    bracket = (n * bernoulli_number(n + 1, convention)
               + bernoulli_convolution_at(n, h, k, convention))
    coeff = Fraction(2 ** n, factorial(n + 1)) * bracket / Fraction(h * k) ** n
    return ExactScaled(coeff, n, n - 1)


def verify_thm13(n: int, h: int, k: int) -> ExactScaled:
    """Exact residual h^{1-n} c_{-n}(h/k) + k^{1-n} c_{-n}(k/h) - rhs.

    Must be identically zero for every odd n > 1 and coprime pair (h, k).
    """
    lhs = (exact_c_minus_n(n, h, k).scale_rational_power(h, 1 - n)
           + exact_c_minus_n(n, k, h).scale_rational_power(k, 1 - n))
    return lhs - thm13_rhs(n, h, k)


def psi_polynomial(n: int) -> PeriodPolynomial:
    """Period function of the weight-(1-n) Eisenstein series, odd n > 1.

    psi_{-n}(z) = (2 pi i)^n / (zeta(n) (n+1)!) *
                  sum_{m=0}^{n+1} C(n+1,m) B_m B_{n+1-m} z^{m-1}

    Returned with zeta_weight = n (the 1/zeta(n) factor stays implicit in the
    exact coefficients).  Coefficients are purely imaginary for odd n.
    """
    _require_odd_gt1(n, "psi_polynomial")
    scale = Fraction(2 ** n, factorial(n + 1))
    return PeriodPolynomial(
        {m - 1: ExactScaled(scale * c, n, n)
         for m, c in enumerate(bernoulli_convolution(n))}, zeta_weight=n)


def g_polynomial(n: int) -> PeriodPolynomial:
    """Polynomial part of the period function for odd n > 1:

        g_{-n}(z) = (2 pi i)^n / (i (n+1)!) *
                    sum_{m=0}^{n} C(n+1,m+1) B_{m+1} B_{n-m} z^m

    with the zeroed B_1 convention.  All coefficients are real multiples of
    pi^n, the constant term vanishes, and there is no 1/zeta weight.
    """
    _require_odd_gt1(n, "g_polynomial")
    scale = Fraction(2 ** n, factorial(n + 1))
    return PeriodPolynomial(
        {m - 1: ExactScaled(scale * c, n, n - 1)
         for m, c in enumerate(bernoulli_convolution(n)) if m}, zeta_weight=0)
