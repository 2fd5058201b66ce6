"""Tests for the direct cotangent-Hurwitz sum evaluators."""

from fractions import Fraction

import mpmath as mp
import pytest

from cotzeta import exact, specfn, sums
from cotzeta.errors import DomainError
from cotzeta.specfn import PrecisionConfig
from cotzeta.sums import (
    BCSumSpec,
    RationalArg,
    bc_sum,
    bc_sum_general,
    bc_sum_higher,
    cotangent_sum_C,
    cotangent_sum_C_trig,
)

CFG = PrecisionConfig(30, 1e-12)


class TestRationalArg:
    def test_normalizes(self):
        x = RationalArg(2, 4)
        assert (x.p, x.q) == (1, 2)
        x = RationalArg(1, -3)
        assert (x.p, x.q) == (-1, 3)

    def test_parse(self):
        assert RationalArg.parse("2/7") == RationalArg(2, 7)

    def test_rejects_zero_q(self):
        with pytest.raises(DomainError):
            RationalArg(1, 0)


class TestBCSumSpec:
    def test_valid(self):
        spec = BCSumSpec(2.5, 5, (2, 3), (0, 1, 0))
        assert spec.k0 == 5

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            BCSumSpec(2.5, 6, (3,), (0, 0))

    def test_rejects_zeta_pole(self):
        with pytest.raises(DomainError):
            BCSumSpec(-1, 5, (2,), (0, 0))
        # -a + m0 = 1 with m0 = 2 means a = 1
        with pytest.raises(DomainError):
            BCSumSpec(1, 5, (2,), (2, 0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            BCSumSpec(2.5, 5, (2, 3), (0, 0))

    def test_json(self):
        d = BCSumSpec(2.5, 5, (2,), (0, 0)).to_json()
        assert d["k0"] == 5 and d["k"] == [2] and d["m"] == [0, 0]


class TestBCSum:
    def test_empty_modulus(self):
        v = bc_sum(2.5, 1, 1, CFG)
        assert v.val == 0 and v.abs_err == 0

    def test_exact_oracle_odd_order(self):
        # c_{-3}(2/3) = -4 pi^3/243 from the Apostol-sum route
        with mp.workdps(40):
            v = bc_sum(-3, 2, 3, CFG)
            ref = exact.exact_c_minus_n(3, 2, 3).numeric(40)
            assert abs(v.val - ref) <= v.abs_err + mp.mpf("1e-30")

    def test_order_zero_closed_form(self):
        # zeta(0, x) = 1/2 - x turns c_0 into an elementary cotangent sum
        with mp.workdps(40):
            h, k = 3, 7
            v = bc_sum(0, h, k, CFG)
            ref = sum(mp.cot(mp.pi * m * h / k) * (mp.mpf(1) / 2 - mp.mpf(m) / k)
                      for m in range(1, k))
            assert abs(v.val - ref) < mp.mpf("1e-25")

    def test_sign_rule(self):
        a = bc_sum(-3, 2, 3, CFG)
        b = bc_sum(-3, -2, 3, CFG)
        assert (a + b).val == 0

    def test_rejects_pole_order(self):
        with pytest.raises(DomainError):
            bc_sum(-1, 2, 3, CFG)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            bc_sum(2.5, 2, 4, CFG)

    def test_polygamma_reduction(self):
        # For odd n > 1:
        #   c_{-n}(h/k) = pi^n/(2 k^n (n-1)!) sum_m cot(pi m h/k) P_{n-1}(cot(pi m/k))
        # (the x-derivative of cot carries the chain factor pi^(n-1)).
        with mp.workdps(40):
            for n, h, k in [(3, 2, 3), (5, 1, 4), (3, 3, 5)]:
                v = bc_sum(-n, h, k, CFG)
                acc = mp.mpf(0)
                for m in range(1, k):
                    acc += (mp.cot(mp.pi * m * h / k)
                            * specfn.cot_derivative(n - 1, mp.pi * m / mp.mpf(k), CFG).val)
                ref = mp.pi ** n / (2 * mp.mpf(k) ** n * mp.factorial(n - 1)) * acc
                assert abs(v.val - ref) < mp.mpf("1e-11"), (n, h, k)


class TestBCSumGeneral:
    def test_reduces_to_bc_sum(self):
        # Same code path: the plain sum is the all-zero-order spec.
        spec = BCSumSpec(2.5, 7, (3,), (0, 0))
        a = bc_sum_general(spec, CFG)
        b = bc_sum(2.5, 3, 7, CFG)
        assert a.val == b.val

    def test_k0_one_is_zero(self):
        spec = BCSumSpec(2.5, 1, (3,), (0, 0))
        assert bc_sum_general(spec, CFG).val == 0

    def test_brute_force_small_case(self):
        # d = 2 with derivative orders checked against an independent
        # reimplementation using finite differences for the cot factors.
        with mp.workdps(40):
            a, k0, ks, ms = mp.mpf("2.5"), 5, (2, 3), (1, 1, 2)
            spec = BCSumSpec(2.5, k0, ks, ms)
            v = bc_sum_general(spec, CFG)
            total = mp.mpc(0)
            delta = mp.mpf("1e-7")
            for l in range(1, k0):
                x = mp.mpf(l) / k0
                zd = (specfn.hurwitz_zeta(-a + 0, x + delta, CFG).val
                      - specfn.hurwitz_zeta(-a, x - delta, CFG).val) / (2 * delta)
                term = zd
                for kj, mj in zip(ks, ms[1:]):
                    w = mp.pi * kj * x
                    if mj == 1:
                        cd = (mp.cot(w + delta) - mp.cot(w - delta)) / (2 * delta)
                    else:
                        cd = (mp.cot(w + delta) - 2 * mp.cot(w)
                              + mp.cot(w - delta)) / delta ** 2
                    term *= cd
                total += term
            total *= mp.mpf(k0) ** a
            assert abs(v.val - total) < mp.mpf("1e-9")


class TestBCSumHigher:
    def test_collapses_to_plain(self):
        a = bc_sum_higher(2.5, 7, (3,), CFG)
        b = bc_sum(2.5, 3, 7, CFG)
        assert a.val == b.val

    def test_single_vanishing_term(self):
        # k0 = 2, inner (1, 1): the only term carries cot(pi/2)^2 = 0
        v = bc_sum_higher(3, 2, (1, 1), CFG)
        assert abs(v.val) <= v.abs_err + mp.mpf("1e-30")

    def test_direct_summation_oracle(self):
        with mp.workdps(40):
            a, k0, ks = mp.mpf("2.5"), 5, (2, 3)
            v = bc_sum_higher(a, k0, ks, CFG)
            ref = mp.mpf(k0) ** a * sum(
                mp.zeta(-a, mp.mpf(l) / k0)
                * mp.cot(mp.pi * 2 * l / k0) * mp.cot(mp.pi * 3 * l / k0)
                for l in range(1, k0))
            assert abs(v.val - ref) < mp.mpf("1e-11")


class TestCotangentSumC:
    def test_single_term_vanishes(self):
        v = cotangent_sum_C(0, 0, RationalArg(1, 2), CFG)
        assert abs(v.val) <= v.abs_err + mp.mpf("1e-30")

    def test_lerch_vs_trig_route(self):
        # Apostol-Bernoulli recurrence versus cotangent-derivative polynomials
        for a in (0, 1, 2, 3):
            for k in (1, 2, 3, 4):
                for x in (RationalArg(1, 3), RationalArg(2, 5)):
                    u = cotangent_sum_C(a, k, x, CFG)
                    v = cotangent_sum_C_trig(a, k, x, CFG)
                    assert abs(u.val - v.val) < mp.mpf("1e-20"), (a, k)

    def test_k0_has_constant_correction(self):
        # C(a, 0, x) = -(1/2i) q^a sum cot(pi m p/q) zeta(-a, m/q)
        #              + ((q^a - 1)/2) zeta(-a)
        with mp.workdps(40):
            a, x = 3, RationalArg(1, 3)
            q = x.q
            v = cotangent_sum_C(a, 0, x, CFG)
            trig = mp.mpc(0)
            for m in range(1, q):
                zq = -exact.poly_eval(exact.bernoulli_polynomial(a + 1),
                                      Fraction(m, q)) / (a + 1)
                trig += mp.cot(mp.pi * m / q) * mp.mpf(zq.numerator) / zq.denominator
            za = exact.zeta_neg_int(a)
            ref = (-mp.mpf(q) ** a / (2j) * trig
                   + (mp.mpf(q) ** a - 1) / 2 * mp.mpf(za.numerator) / za.denominator)
            assert abs(v.val - ref) < mp.mpf("1e-25")

    def test_hand_value(self):
        # C(1, 3, 1/2) = 1/96 and C(3, 1, 1/2) = 7/480 (single-term sums at
        # q = 2, where cot'''(pi/2) = -2, cot'(pi/2) = -1).
        with mp.workdps(40):
            v = cotangent_sum_C(1, 3, RationalArg(1, 2), CFG)
            assert abs(v.val - mp.mpf(1) / 96) < mp.mpf("1e-25")
            v = cotangent_sum_C(3, 1, RationalArg(1, 2), CFG)
            assert abs(v.val - mp.mpf(7) / 480) < mp.mpf("1e-25")

    def test_rejects_q_one(self):
        with pytest.raises(DomainError):
            cotangent_sum_C(2, 1, RationalArg(3, 1), CFG)

    def test_rejects_negative_orders(self):
        with pytest.raises(DomainError):
            cotangent_sum_C(-1, 1, RationalArg(1, 2), CFG)


def _unfolded_C(a, k, x, cfg):
    """C(a, k, x) as the term-by-term ComplexVal chain over m = 1..q-1, one
    Lerch value per term: the reference for the folded sum."""
    q = x.q
    with mp.workdps(cfg.working_digits + 10):
        total = specfn.ComplexVal(0, 0)
        for m in range(1, q):
            lam = sums._e_twist(m * x.p, q)
            phi = specfn.lerch_phi(-k, 1, lam, cfg)
            zeta = specfn.ComplexVal.from_exact(exact.zeta_neg_int(a, Fraction(m, q)), cfg)
            total = total + phi * zeta.scaled(lam)
        return total.scaled(mp.mpf(q) ** a)


@pytest.mark.parametrize("x", [RationalArg(2, 7), RationalArg(5, 12),
                               RationalArg(3, 8), RationalArg(20, 53)])
@pytest.mark.parametrize("a", range(5))
def test_folded_C_matches_unfolded_sum(x, a):
    # The pair m, q - m sums to 2 Re or 2i Im of one term, by the parity
    # of a: the other part is exactly zero, and the budget is no larger.
    # Where that term is already real or imaginary the two budgets agree, up
    # to the rounding of |lambda| at the 40-digit working precision.
    for k in range(5):
        new = cotangent_sum_C(a, k, x, CFG)
        old = _unfolded_C(a, k, x, CFG)
        assert abs(new.val - old.val) <= old.abs_err, (a, k)
        assert new.abs_err - old.abs_err <= old.abs_err * mp.mpf("1e-35"), (a, k)
        assert (new.val.imag if a % 2 else new.val.real) == 0, (a, k)
