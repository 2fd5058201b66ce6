"""Tests for the exact (big-rational / pi-scaled) layer."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cotzeta.errors import DomainError
from cotzeta import exact
from cotzeta.exact import (
    ExactScaled,
    PeriodPolynomial,
    apostol_sum,
    bernoulli_number,
    bernoulli_polynomial,
    dedekind_sum,
    exact_c_minus_n,
    g_polynomial,
    poly_eval,
    psi_polynomial,
    rising_factorial,
    thm13_rhs,
    verify_thm13,
    zeta_neg_int,
)


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle: B_0..B_n via the Akiyama-Tanigawa scheme.

    The scheme natively produces B_1 = +1/2; flip to the standard -1/2.
    """
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    if n >= 1:
        out[1] = -out[1]
    return out


class TestBernoulli:
    def test_known_values(self):
        oracle = akiyama_tanigawa(12)
        for n, expected in enumerate(oracle):
            assert bernoulli_number(n) == expected

    def test_spec_examples(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1, exact.ZEROED) == 0
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_odd_vanish_both_conventions(self):
        for n in (3, 5, 7, 9, 11):
            assert bernoulli_number(n) == 0
            assert bernoulli_number(n, exact.ZEROED) == 0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            bernoulli_number(-1)
        with pytest.raises(DomainError):
            bernoulli_number(2, "nonstandard")


class TestBernoulliPolynomial:
    def test_low_degrees(self):
        assert bernoulli_polynomial(0) == (Fraction(1),)
        assert bernoulli_polynomial(1) == (Fraction(-1, 2), Fraction(1))
        assert bernoulli_polynomial(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))

    def test_value_at_zero_is_bernoulli_number(self):
        for n in range(10):
            assert poly_eval(bernoulli_polynomial(n), 0) == bernoulli_number(n)

    @given(st.integers(1, 10), st.fractions(min_value=-3, max_value=3))
    def test_difference_equation(self, n, x):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        poly = bernoulli_polynomial(n)
        lhs = poly_eval(poly, x + 1) - poly_eval(poly, x)
        assert lhs == n * Fraction(x) ** (n - 1)


class TestRisingFactorial:
    def test_spec_examples(self):
        assert rising_factorial(3, 0) == 1
        assert rising_factorial(2, 3) == 24
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_complex(self):
        assert rising_factorial(1 + 1j, 2) == (1 + 1j) * (2 + 1j)


class TestZetaNegInt:
    def test_values(self):
        assert zeta_neg_int(0) == Fraction(-1, 2)
        assert zeta_neg_int(1) == Fraction(-1, 12)
        assert zeta_neg_int(2) == 0
        assert zeta_neg_int(3) == Fraction(1, 120)

    def test_hurwitz_values(self):
        # zeta(0, x) = 1/2 - x and zeta(-1, x) = -B_2(x)/2.
        assert zeta_neg_int(0, Fraction(1, 3)) == Fraction(1, 6)
        assert zeta_neg_int(1, Fraction(1, 2)) == Fraction(1, 24)


class TestDedekindSum:
    def test_small_values(self):
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_reciprocity_sample(self):
        for h, k in [(1, 2), (2, 3), (3, 5), (5, 7), (7, 12), (11, 25)]:
            lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
            rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(1, h * k)
                                     + Fraction(k, h)) / 12
            assert lhs == rhs

    def test_cotangent_form_agrees(self):
        import mpmath as mp
        with mp.workdps(30):
            for h, k in [(2, 5), (3, 7)]:
                trig = sum(mp.cot(mp.pi * m / k) * mp.cot(mp.pi * m * h / k)
                           for m in range(1, k)) / (4 * k)
                exact_val = dedekind_sum(h, k)
                assert abs(trig - mp.mpf(exact_val.numerator) / exact_val.denominator) < mp.mpf("1e-25")

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            dedekind_sum(2, 4)


class TestApostolSum:
    def test_trivial_cases(self):
        assert apostol_sum(3, 1, 1) == 0
        assert apostol_sum(3, 1, 2) == 0  # single term (1/2) B_3(1/2) = 0

    def test_direct_oracle(self):
        # Brute-force with literal B_3(x) = x^3 - (3/2)x^2 + x/2.
        def b3bar(x: Fraction) -> Fraction:
            f = x - (x.numerator // x.denominator)
            return f**3 - Fraction(3, 2) * f**2 + f / 2

        expected = sum(Fraction(mu, 3) * b3bar(Fraction(2 * mu, 3)) for mu in (1, 2))
        assert expected == Fraction(1, 81)
        assert apostol_sum(3, 2, 3) == expected

    def test_rejects_even_or_small_n(self):
        for n in (0, 1, 2, 4):
            with pytest.raises(DomainError):
                apostol_sum(n, 1, 3)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            apostol_sum(3, 3, 6)


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - x.numerator // x.denominator - Fraction(1, 2)


@given(st.integers(2, 400).flatmap(lambda k: st.tuples(st.integers(1, k - 1), st.just(k))),
       st.sampled_from(range(3, 12, 2)))
def test_dedekind_type_sums_match_brute_force(hk, n):
    # Per-term Fraction sums: the sawtooth form of s(h,k) and the periodic
    # Bernoulli function in s_n(h,k).
    h, k = hk
    assume(gcd(h, k) == 1)
    assert dedekind_sum(h, k) == sum(
        (_sawtooth(Fraction(m, k)) * _sawtooth(Fraction(m * h, k)) for m in range(1, k)),
        Fraction(0))
    poly = bernoulli_polynomial(n)
    periodic = (poly_eval(poly, x - x.numerator // x.denominator)
                for x in (Fraction(h * mu, k) for mu in range(1, k)))
    assert apostol_sum(n, h, k) == sum(
        (Fraction(mu, k) * b for mu, b in enumerate(periodic, start=1)), Fraction(0))


class TestExactScaled:
    def test_normalization(self):
        assert ExactScaled(1, 2, 2) == ExactScaled(-1, 2, 0)
        assert ExactScaled(1, 2, 3) == ExactScaled(-1, 2, 1)
        assert ExactScaled(0, 5, 1) == ExactScaled(0)
        assert ExactScaled(Fraction(2, 4)) == ExactScaled(Fraction(1, 2))

    def test_addition_rules(self):
        a = ExactScaled(Fraction(1, 3), 2, 1)
        b = ExactScaled(Fraction(1, 6), 2, 1)
        assert a + b == ExactScaled(Fraction(1, 2), 2, 1)
        assert a + ExactScaled(0) == a
        with pytest.raises(DomainError):
            a + ExactScaled(1, 3, 1)

    def test_division_by_i(self):
        one = ExactScaled(1)
        i = ExactScaled(1, 0, 1)
        assert one / i == ExactScaled(-1, 0, 1)
        assert i * i == ExactScaled(-1)

    @given(
        st.tuples(st.fractions(min_value=-5, max_value=5),
                  st.integers(-3, 3), st.integers(0, 3)),
        st.tuples(st.fractions(min_value=-5, max_value=5),
                  st.integers(-3, 3), st.integers(0, 3)),
        st.tuples(st.fractions(min_value=-5, max_value=5),
                  st.integers(-3, 3), st.integers(0, 3)),
    )
    def test_multiplication_associative(self, ta, tb, tc):
        a, b, c = (ExactScaled(*t) for t in (ta, tb, tc))
        assert (a * b) * c == a * (b * c)

    @given(st.fractions(min_value=-5, max_value=5),
           st.integers(-4, 4), st.integers(-8, 8))
    def test_normalization_idempotent(self, coeff, p, q):
        v = ExactScaled(coeff, p, q)
        assert ExactScaled(v.coeff, v.pi_power, v.i_power) == v
        assert v.i_power in (0, 1)

    def test_numeric(self):
        import mpmath as mp
        v = ExactScaled(Fraction(-1, 15), 3, 1).numeric(30)
        with mp.workdps(30):
            assert abs(v - mp.mpc(0, -(mp.pi ** 3) / 15)) < mp.mpf("1e-28")


class TestExactC:
    def test_zero_cases(self):
        assert exact_c_minus_n(3, 1, 1).is_zero()
        assert exact_c_minus_n(3, 1, 2).is_zero()

    def test_frozen_value(self):
        # c_{-3}(2/3) = (2 pi i)^3/(i 3!) * s_3(2,3) with s_3(2,3) = 1/81.
        assert exact_c_minus_n(3, 2, 3) == ExactScaled(Fraction(-4, 243), 3, 0)

    def test_sign_rule(self):
        assert exact_c_minus_n(3, -2, 3) == -exact_c_minus_n(3, 2, 3)

    def test_rejects_even_n(self):
        with pytest.raises(DomainError):
            exact_c_minus_n(4, 1, 3)
        with pytest.raises(DomainError):
            exact_c_minus_n(1, 1, 3)


class TestThm13:
    def test_rhs_hand_value(self):
        # Bracket at (3,1,2): 3 B_4 + (16 B_4 + 24 B_2^2 + B_4) = 0.
        assert thm13_rhs(3, 1, 2).is_zero()

    def test_rhs_convention_independent(self):
        for n in (3, 5, 7):
            for h, k in [(1, 2), (2, 3), (3, 4), (4, 7)]:
                assert (thm13_rhs(n, h, k, exact.STANDARD)
                        == thm13_rhs(n, h, k, exact.ZEROED))

    def test_residual_zero_samples(self):
        for n, h, k in [(3, 1, 2), (3, 2, 3), (5, 3, 4), (7, 4, 9), (9, 5, 8)]:
            assert verify_thm13(n, h, k).is_zero()

    def test_residual_zero_grid(self):
        for n in (3, 5):
            for k in range(1, 13):
                for h in range(1, k + 1):
                    if gcd(h, k) == 1:
                        assert verify_thm13(n, h, k).is_zero()


class TestPeriodPolynomials:
    def test_psi3_coefficients(self):
        psi = psi_polynomial(3)
        # (2 pi i)^3 B_4 / 4! on z^-1  ->  i pi^3 / 90
        assert psi.coefficients[-1] == ExactScaled(Fraction(1, 90), 3, 1)
        # m = 2 term: (2 pi i)^3 * 6 B_2^2 / 4! on z^1  ->  -i pi^3 / 18
        assert psi.coefficients[1] == ExactScaled(Fraction(-1, 18), 3, 1)
        assert psi.zeta_weight == 3
        assert set(psi.coefficients) == {-1, 1, 3}

    def test_psi_vanishing_coefficients(self):
        # z^{m-1} coefficient dies whenever both m and n+1-m are odd and > 1.
        for n in (5, 7, 9):
            psi = psi_polynomial(n)
            for m in range(n + 2):
                if m % 2 == 1 and (n + 1 - m) % 2 == 1 and m > 1 and n + 1 - m > 1:
                    assert (m - 1) not in psi.coefficients

    def test_psi3_at_one(self):
        # Unweighted value sum C(4,m) B_m B_{4-m} scaled: -i pi^3 / 30.
        val = psi_polynomial(3).evaluate_exact(1)
        assert val == ExactScaled(Fraction(-1, 30), 3, 1)

    def test_g3_closed_form(self):
        g = g_polynomial(3)
        assert g.coefficients == {
            1: ExactScaled(Fraction(-1, 18), 3, 0),
            3: ExactScaled(Fraction(1, 90), 3, 0),
        }
        assert g.zeta_weight == 0

    def test_g_zero_constant_term(self):
        for n in (3, 5, 7, 9, 11):
            assert 0 not in g_polynomial(n).coefficients

    def test_g_value_rational_times_pi_n(self):
        for n in (3, 5, 7):
            v = g_polynomial(n).evaluate_exact(1)
            assert v.pi_power == n and v.i_power == 0

    def test_evaluate_exact_rejects_zero(self):
        with pytest.raises(DomainError):
            psi_polynomial(3).evaluate_exact(0)

    def test_psi_g_relation_numeric(self):
        # i g_{-n}(z)/zeta(n) + (i/(pi z)) zeta(n+1)/zeta(n) = psi_{-n}(z)
        import mpmath as mp
        from cotzeta.specfn import PrecisionConfig

        cfg = PrecisionConfig(35, 1e-16)
        with mp.workdps(35):
            for n, z in [(3, mp.mpf("0.75")), (5, mp.mpc(1, 1))]:
                g = g_polynomial(n).evaluate(z, cfg).val
                psi = psi_polynomial(n).evaluate(z, cfg).val
                zn = mp.zeta(n)
                lhs = 1j * g / zn + 1j / (mp.pi * z) * mp.zeta(n + 1) / zn
                assert abs(lhs - psi) < mp.mpf("1e-14")
