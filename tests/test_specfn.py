"""Tests for the controlled-precision special-function layer.

mpmath's own zeta/gamma/lerchphi implementations serve as independent
oracles: the library never calls them, so agreement is a genuine cross-check
of the Euler-Maclaurin / Stirling / recurrence code paths.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotzeta import exact
from cotzeta.errors import DomainError, PoleError
from cotzeta import specfn
from cotzeta.specfn import (
    ComplexVal,
    PrecisionConfig,
    apostol_bernoulli,
    complex_gamma,
    cot_deriv_poly,
    cot_derivative,
    divisor_sigma,
    eisenstein_E,
    hurwitz_zeta,
    hurwitz_zeta_x_deriv,
    lerch_phi,
    polygamma,
    riemann_zeta,
)

CFG = PrecisionConfig(30, 1e-12)
TIGHT = PrecisionConfig(36, 1e-16)


class TestPrecisionConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            PrecisionConfig(10, 1e-12)
        with pytest.raises(DomainError):
            PrecisionConfig(15, 1e-30)
        with pytest.raises(DomainError):
            PrecisionConfig(20, -1e-10)


class TestComplexVal:
    def test_error_propagation_mul(self):
        a = ComplexVal(2, 1e-10)
        b = ComplexVal(3j, 1e-12)
        c = a * b
        assert abs(c.val - 6j) < 1e-30
        assert float(c.abs_err) == pytest.approx(3e-10 + 2e-12, rel=1e-6)

    def test_error_propagation_div(self):
        a = ComplexVal(1, 1e-10)
        c = a / ComplexVal(2, 0)
        assert float(c.abs_err) == pytest.approx(5e-11, rel=1e-6)

    def test_scalars_exact(self):
        a = ComplexVal(1, 1e-10) + 5
        assert float(a.abs_err) == pytest.approx(1e-10)

    def test_scaled(self):
        a = ComplexVal(mp.mpc(1, -2), 1e-10)
        with mp.workdps(40):
            for factor in (mp.mpf(-3), mp.mpc(1, 1)):
                c = a.scaled(factor)
                assert c.val == factor * a.val
                assert c.abs_err == abs(factor) * a.abs_err
        assert float(a.scaled(mp.mpc(3, 4)).abs_err) == pytest.approx(5e-10, rel=1e-12)

    def test_rejects_bad_err(self):
        with pytest.raises(DomainError):
            ComplexVal(1, -1)
        with pytest.raises(DomainError):
            ComplexVal(1, mp.inf)

    def test_json_shape(self):
        d = ComplexVal(mp.mpf("1.5"), 1e-20).to_json(10)
        assert set(d) == {"re", "im", "abs_err"}
        assert isinstance(d["re"], str)


class TestHurwitzZeta:
    def test_equals_riemann_at_one(self):
        for s in (2.5, 3 + 1j, -1.5 + 4j):
            a = hurwitz_zeta(s, 1, CFG)
            b = riemann_zeta(s, CFG)
            assert abs(a.val - b.val) <= a.abs_err + b.abs_err

    def test_closed_form_at_zero(self):
        # zeta(0, x) = 1/2 - x
        v = hurwitz_zeta(0, 0.25, CFG)
        assert abs(v.val - 0.25) <= v.abs_err

    def test_mpmath_oracle_grid(self):
        with mp.workdps(45):
            for s in (2.5, 0.5 + 3j, -4.5 + 9j, -8.5 - 11j, 1.5 - 2j):
                for x in (mp.mpf(1) / 3, mp.mpf("0.7"), 1):
                    v = hurwitz_zeta(s, x, CFG)
                    ref = mp.zeta(mp.mpc(s), x)
                    assert abs(v.val - ref) <= v.abs_err, (s, x)

    def test_shift_identity(self):
        # zeta(s, x+1) = zeta(s, x) - x^(-s)
        with mp.workdps(40):
            for s in (2.5, -3.5 + 2j):
                x = mp.mpf("0.3")
                a = hurwitz_zeta(s, x + 1, CFG)
                b = hurwitz_zeta(s, x, CFG)
                assert abs(a.val - (b.val - x ** (-mp.mpc(s)))) <= a.abs_err + b.abs_err

    def test_bernoulli_closed_form(self):
        # zeta(-n, x) = -B_{n+1}(x)/(n+1) for n = 0..8
        with mp.workdps(40):
            for n in range(9):
                poly = exact.bernoulli_polynomial(n + 1)
                for num in (1, 2, 3, 4):
                    x = Fraction(num, 5)
                    v = hurwitz_zeta(-n, x, CFG)
                    refq = -exact.poly_eval(poly, x) / (n + 1)
                    ref = mp.mpf(refq.numerator) / refq.denominator
                    assert abs(v.val - ref) <= v.abs_err + mp.mpf("1e-25")

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 0.5, CFG)
        with pytest.raises(DomainError):
            hurwitz_zeta(2, -0.5, CFG)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.2, 6), st.floats(-4, 4),
           st.integers(1, 10), st.fractions(Fraction(1, 10), 1))
    def test_partial_sum_self_consistency(self, sre, sim, J, x):
        # zeta(s,x) = sum_{j<J} (j+x)^(-s) + zeta(s, x+J)
        s = mp.mpc(sre, sim)
        xr = mp.mpf(x.numerator) / x.denominator
        a = hurwitz_zeta(s, xr, CFG)
        b = hurwitz_zeta(s, xr + J, CFG)
        with mp.workdps(40):
            partial = mp.fsum(((j + xr) ** (-s) for j in range(J)),
                              absolute=False) if J else 0
            partial = sum((j + xr) ** (-s) for j in range(J))
            assert abs(a.val - partial - b.val) <= a.abs_err + b.abs_err + mp.mpf("1e-25")

    def test_error_honesty_two_targets(self):
        coarse = PrecisionConfig(30, 1e-10)
        fine = PrecisionConfig(30, 1e-14)
        for s, x in [(2.5, 0.3), (-3.5 + 5j, 0.7), (0.5 + 2j, 0.25)]:
            va = hurwitz_zeta(s, x, coarse)
            vb = hurwitz_zeta(s, x, fine)
            assert abs(va.val - vb.val) <= va.abs_err


class TestHurwitzDeriv:
    def test_order_zero(self):
        a = hurwitz_zeta_x_deriv(0, 2.5, 0.3, CFG)
        b = hurwitz_zeta(2.5, 0.3, CFG)
        assert a.val == b.val

    def test_order_one_formula(self):
        # d/dx zeta(s,x) = -s zeta(s+1,x)
        s = mp.mpc(2, 1)
        a = hurwitz_zeta_x_deriv(1, s, 0.4, CFG)
        b = hurwitz_zeta(s + 1, 0.4, CFG)
        assert abs(a.val + s * b.val) <= a.abs_err + abs(s) * b.abs_err

    def test_finite_difference_oracle(self):
        with mp.workdps(40):
            for m in (1, 2):
                x = mp.mpf("0.6")
                s = mp.mpc("1.5", "0.5")
                delta = mp.mpf("1e-6")
                if m == 1:
                    fd = (hurwitz_zeta(s, x + delta, TIGHT).val
                          - hurwitz_zeta(s, x - delta, TIGHT).val) / (2 * delta)
                else:
                    fd = (hurwitz_zeta(s, x + delta, TIGHT).val
                          - 2 * hurwitz_zeta(s, x, TIGHT).val
                          + hurwitz_zeta(s, x - delta, TIGHT).val) / delta ** 2
                v = hurwitz_zeta_x_deriv(m, s, x, CFG)
                assert abs(v.val - fd) < mp.mpf("1e-9")

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            hurwitz_zeta_x_deriv(2, -1, 0.5, CFG)


class TestRiemannZeta:
    def test_classical_values(self):
        with mp.workdps(40):
            v = riemann_zeta(2, CFG)
            assert abs(v.val - mp.pi ** 2 / 6) <= v.abs_err
            v = riemann_zeta(0, CFG)
            assert abs(v.val + mp.mpf(1) / 2) <= v.abs_err
            v = riemann_zeta(-3, CFG)
            assert abs(v.val - mp.mpf(1) / 120) <= v.abs_err


class TestGamma:
    def test_factorial(self):
        v = complex_gamma(5, CFG)
        assert abs(v.val - 24) <= v.abs_err

    def test_sqrt_pi(self):
        with mp.workdps(40):
            v = complex_gamma(0.5, CFG)
            assert abs(v.val - mp.sqrt(mp.pi)) <= v.abs_err

    def test_vertical_line_decay(self):
        # |Gamma(-1/2 + it)| ~ sqrt(2 pi) |t|^(-1) e^(-pi t / 2)
        with mp.workdps(40):
            for t in (10, 20):
                v = complex_gamma(mp.mpc(-0.5, t), CFG)
                asym = mp.sqrt(2 * mp.pi) * mp.mpf(t) ** (-1) * mp.exp(-mp.pi * t / 2)
                assert abs(abs(v.val) / asym - 1) < 0.05

    def test_mpmath_oracle(self):
        with mp.workdps(45):
            for s in (2.5 - 7j, -4.5 + 3j, 0.1, 12 + 5j, -0.5 + 20j):
                v = complex_gamma(s, CFG)
                assert abs(v.val - mp.gamma(mp.mpc(s))) <= v.abs_err, s

    def test_poles(self):
        for s in (0, -1, -7):
            with pytest.raises(PoleError):
                complex_gamma(s, CFG)


class TestCotDeriv:
    def test_polynomials(self):
        assert cot_deriv_poly(0).coefficients == (0, 1)
        assert cot_deriv_poly(1).coefficients == (-1, 0, -1)
        assert cot_deriv_poly(2).coefficients == (0, 2, 0, 2)

    def test_degree_and_parity(self):
        for m in range(9):
            poly = cot_deriv_poly(m)
            assert poly.degree == m + 1
            assert len(poly.coefficients) == m + 2
            assert poly.coefficients[-1] != 0
            # parity (-1)^(m+1) under X -> -X: only every other slot populated
            for j, c in enumerate(poly.coefficients):
                if (j + m) % 2 == 0:
                    assert c == 0

    def test_values_at_half_pi(self):
        # The floating pi/2 is off the exact point by one ulp; compare at a
        # tolerance reflecting that input error rather than the claimed
        # (exact-input) abs_err.
        with mp.workdps(40):
            v = cot_derivative(0, mp.pi / 2, CFG)
            assert abs(v.val) < mp.mpf("1e-38")
            v = cot_derivative(1, mp.pi / 2, CFG)
            assert abs(v.val + 1) < mp.mpf("1e-38")

    def test_finite_difference_oracle(self):
        with mp.workdps(40):
            w = mp.mpf("0.3") * mp.pi
            for m in (1, 2, 3, 4):
                ref = mp.diff(mp.cot, w, m)
                v = cot_derivative(m, w, CFG)
                assert abs(v.val - ref) < mp.mpf("1e-20")

    def test_pole(self):
        with pytest.raises(PoleError):
            cot_derivative(0, 0, CFG)
        with pytest.raises(PoleError):
            cot_derivative(2, mp.pi, CFG)


class TestPolygamma:
    def test_zeta2(self):
        with mp.workdps(40):
            v = polygamma(1, 1, CFG)
            assert abs(v.val - mp.pi ** 2 / 6) <= v.abs_err

    def test_zeta3(self):
        with mp.workdps(40):
            v = polygamma(2, 1, CFG)
            assert abs(v.val + 2 * mp.zeta(3)) <= v.abs_err

    def test_reflection_formula(self):
        # Psi^(n-1)(1-x) - Psi^(n-1)(x) = pi d^(n-1)/dx^(n-1) cot(pi x), odd n.
        # The x-derivative carries the chain factor pi^(n-1) on top of the
        # point-evaluated cotangent derivative.
        with mp.workdps(40):
            for n in (3, 5):
                for m, k in [(1, 3), (2, 5)]:
                    x = mp.mpf(m) / k
                    p1 = polygamma(n - 1, 1 - x, CFG)
                    p2 = polygamma(n - 1, x, CFG)
                    cd = cot_derivative(n - 1, mp.pi * x, CFG)
                    resid = p1.val - p2.val - mp.pi ** n * cd.val
                    budget = p1.abs_err + p2.abs_err + mp.pi ** n * cd.abs_err
                    assert abs(resid) <= budget


class TestApostolBernoulli:
    def test_b1(self):
        v = apostol_bernoulli(1, 0, -1, CFG)
        assert abs(v.val + 0.5) <= v.abs_err

    def test_closed_form_low_order(self):
        # B_2(z; lam) = 2z/(lam-1) - 2 lam/(lam-1)^2
        with mp.workdps(40):
            lam = mp.expjpi(mp.mpf(2) / 5)
            z = mp.mpc("0.3", "0.1")
            v = apostol_bernoulli(2, z, lam, CFG)
            ref = 2 * z / (lam - 1) - 2 * lam / (lam - 1) ** 2
            assert abs(v.val - ref) <= v.abs_err

    def test_shift_identity(self):
        # lam B_{k+1}(z+1; lam) - B_{k+1}(z; lam) = (k+1) z^k
        # (follows from the Lerch difference equation and the closed form).
        with mp.workdps(40):
            lam = mp.expjpi(mp.mpf(2) / 7)
            for k in range(6):
                for z in (mp.mpf("0.4"), mp.mpc("1.2", "0.5")):
                    a = apostol_bernoulli(k + 1, z + 1, lam, CFG)
                    b = apostol_bernoulli(k + 1, z, lam, CFG)
                    lhs = lam * a.val - b.val
                    assert abs(lhs - (k + 1) * z ** k) < mp.mpf("1e-24")

    def test_rejects_lambda_one(self):
        with pytest.raises(DomainError):
            apostol_bernoulli(2, 0.5, 1, CFG)


class TestLerchPhi:
    def test_reduces_to_zeta(self):
        a = lerch_phi(2.5, 1, 1, CFG)
        b = riemann_zeta(2.5, CFG)
        assert abs(a.val - b.val) <= a.abs_err + b.abs_err

    def test_difference_equation(self):
        # lam Phi(s, z+1, lam) = Phi(s, z, lam) - z^(-s)
        with mp.workdps(40):
            lam = mp.expjpi(mp.mpf(2) / 3)
            s, z = mp.mpf("2.2"), mp.mpf("0.8")
            a = lerch_phi(s, z + 1, lam, CFG)
            b = lerch_phi(s, z, lam, CFG)
            resid = lam * a.val - (b.val - z ** (-s))
            assert abs(resid) <= abs(lam) * a.abs_err + b.abs_err + mp.mpf("1e-25")

    def test_mpmath_oracle(self):
        with mp.workdps(45):
            for s, z, frac in [(2.5, 0.7, (2, 3)), (3 + 1j, 1.2, (4, 5))]:
                lam = mp.expjpi(mp.mpf(frac[0]) / frac[1])
                v = lerch_phi(s, z, lam, CFG)
                ref = mp.lerchphi(lam, mp.mpc(s), z)
                assert abs(v.val - ref) <= v.abs_err

    def test_abel_oracle_closed_form(self):
        # Phi(-1, 1, -1) via Abel summation: sum (-1)^n (n+1) r^n = 1/(1+r)^2 -> 1/4
        with mp.workdps(40):
            v = lerch_phi(-1, 1, -1, CFG)
            abel = []
            for r in (mp.mpf("0.99"), mp.mpf("0.999"), mp.mpf("0.9999")):
                abel.append(1 / (1 + r) ** 2)
            # Richardson-free sanity: the Abel values approach 1/4 monotonically
            assert abs(v.val - mp.mpf(1) / 4) <= v.abs_err
            assert abs(abel[-1] - mp.mpf(1) / 4) < mp.mpf("1e-4")

    def test_unsupported_regime(self):
        with pytest.raises(DomainError):
            lerch_phi(0.5, 1, -1, CFG)


class TestErrorHonesty:
    """Tightening the target must not move any result by more than the
    coarser claimed error."""

    def test_across_operations(self):
        coarse = PrecisionConfig(30, 1e-10)
        fine = PrecisionConfig(30, 1e-14)
        with mp.workdps(40):
            lam = mp.expjpi(mp.mpf(2) / 7)
            samples = [
                lambda c: hurwitz_zeta(-2.5 + 3j, 0.4, c),
                lambda c: riemann_zeta(3.5 - 1j, c),
                lambda c: complex_gamma(1.5 + 4j, c),
                lambda c: lerch_phi(2.3, 0.9, lam, c),
                lambda c: apostol_bernoulli(4, 0.25, lam, c),
                lambda c: eisenstein_E(-3, mp.mpc("0.3", "0.9"), None, c),
            ]
            for fn in samples:
                a = fn(coarse)
                b = fn(fine)
                assert abs(a.val - b.val) <= a.abs_err


class TestDivisorSigma:
    def test_small_values(self):
        assert abs(divisor_sigma(0, 6, CFG).val - 4) < 1e-25
        assert abs(divisor_sigma(1, 6, CFG).val - 12) < 1e-25

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_multiplicativity(self, m, n):
        from math import gcd
        if gcd(m, n) != 1:
            return
        with mp.workdps(40):
            a = mp.mpc("0.5", "1.0")
            lhs = divisor_sigma(a, m * n, CFG).val
            rhs = divisor_sigma(a, m, CFG).val * divisor_sigma(a, n, CFG).val
            assert abs(lhs - rhs) < mp.mpf("1e-20")

    def test_brute_force_oracle(self):
        with mp.workdps(40):
            n = 36
            a = mp.mpc(2, -1)
            ref = sum(mp.mpc(d) ** a for d in range(1, n + 1) if n % d == 0)
            assert abs(divisor_sigma(a, n, CFG).val - ref) < mp.mpf("1e-20")


class TestEisenstein:
    def test_large_imaginary_part(self):
        v = eisenstein_E(-3, mp.mpc(0, 40), None, CFG)
        assert abs(v.val - 1) < 1e-10

    def test_period_identity_vs_polynomial(self):
        # psi_{-n}(z) = E_{1-n}(z) - z^(n-1) E_{1-n}(-1/z)
        with mp.workdps(40):
            for n, z in [(3, mp.mpc(0, 1)), (5, mp.mpc(1, 1))]:
                psi = exact.psi_polynomial(n).evaluate(z, CFG)
                e1 = eisenstein_E(-n, z, None, CFG)
                e2 = eisenstein_E(-n, -1 / z, None, CFG)
                rhs = e1.val - z ** (n - 1) * e2.val
                budget = psi.abs_err + e1.abs_err + abs(z) ** (n - 1) * e2.abs_err
                assert abs(psi.val - rhs) <= budget + mp.mpf("1e-20")

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            eisenstein_E(-3, mp.mpc(0, -1), None, CFG)

    def test_rejects_vanishing_normalizer(self):
        # zeta(-a) = 0 at the trivial zeros, i.e. positive even a
        with pytest.raises(DomainError):
            eisenstein_E(2, mp.mpc(0, 1), None, CFG)
