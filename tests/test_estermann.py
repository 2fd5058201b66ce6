"""Tests for Estermann zeta evaluation and the twisted-sum identities."""

from math import gcd

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cotzeta import estermann, exact, specfn, sums
from cotzeta.errors import DomainError, PoleError
from cotzeta.estermann import (
    EstermannPoint,
    estermann_hurwitz,
    estermann_nonpositive,
    estermann_series,
    verify_cor45,
    verify_lemma41,
    verify_lemma42,
    verify_prop43,
    verify_thm44,
)
from cotzeta.specfn import ComplexVal, PrecisionConfig
from cotzeta.sums import RationalArg

CFG = PrecisionConfig(30, 1e-12)
FAST = PrecisionConfig(25, 1e-9, max_terms=30_000)


class TestEstermannPoint:
    def test_rejects_integer_twist(self):
        with pytest.raises(DomainError):
            EstermannPoint(3, RationalArg(2, 1), 0)


@pytest.mark.parametrize("op, call", [
    ("EstermannPoint", lambda x: EstermannPoint(3, x, 0)),
    ("estermann_nonpositive", lambda x: estermann_nonpositive(1, x, 2, CFG)),
    ("verify_lemma41", lambda x: verify_lemma41(2, x, CFG)),
    ("cotangent_sum_C", lambda x: sums.cotangent_sum_C(2, 1, x, CFG)),
    ("cotangent_sum_C_trig", lambda x: sums.cotangent_sum_C_trig(2, 1, x, CFG)),
])
def test_twist_with_q_one_is_refused(op, call):
    with pytest.raises(DomainError, match=rf"^{op} needs a twist p/q with q > 1, got 2/1$"):
        call(RationalArg(2, 1))


class TestSeries:
    def test_partial_sum_oracle(self):
        # Brute-force partial sums with a crude remainder window bracket the
        # value at q = 2 (alternating divisor series).
        with mp.workdps(40):
            pt = EstermannPoint(3, RationalArg(1, 2), 0)
            v = estermann_series(pt, FAST)

            def sigma0(n):
                return sum(1 for d in range(1, n + 1) if n % d == 0)

            partial = sum(sigma0(n) * (-1) ** n / mp.mpf(n) ** 3
                          for n in range(1, 4000))
            assert abs(v.val - partial) < 1e-6

    def test_conjugation_symmetry(self):
        pt_plus = EstermannPoint(3, RationalArg(1, 3), 1)
        pt_minus = EstermannPoint(3, RationalArg(-1, 3), 1)
        a = estermann_series(pt_plus, FAST)
        b = estermann_series(pt_minus, FAST)
        assert abs(a.val - b.conjugate().val) <= a.abs_err + b.abs_err

    def test_matches_hurwitz(self):
        pt = EstermannPoint(4, RationalArg(1, 3), 1)
        a = estermann_series(pt, FAST)
        b = estermann_hurwitz(pt, FAST)
        assert abs(a.val - b.val) <= a.abs_err + b.abs_err

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            estermann_series(EstermannPoint(1.5, RationalArg(1, 3), 1), FAST)


class TestHurwitzRep:
    def test_hand_expansion_q2(self):
        # q = 2, s = 3, a = 0: four-term double sum; the twist e(mn/2) is -1
        # only when m and n are both odd.
        with mp.workdps(40):
            pt = EstermannPoint(3, RationalArg(1, 2), 0)
            v = estermann_hurwitz(pt, CFG)
            z_half = mp.zeta(3, mp.mpf(1) / 2)
            z_one = mp.zeta(3)
            ref = mp.mpf(2) ** (-6) * (-z_half * z_half + z_half * z_one
                                       + z_one * z_half + z_one * z_one)
            assert abs(v.val - ref) <= v.abs_err

    def test_conjugation_symmetry(self):
        pt_plus = EstermannPoint(3.5, RationalArg(1, 5), 0.5)
        pt_minus = EstermannPoint(3.5, RationalArg(-1, 5), 0.5)
        a = estermann_hurwitz(pt_plus, CFG)
        b = estermann_hurwitz(pt_minus, CFG)
        assert abs(a.val - b.conjugate().val) <= a.abs_err + b.abs_err + mp.mpf("1e-20")

    def test_pole_guards(self):
        with pytest.raises(PoleError):
            estermann_hurwitz(EstermannPoint(1, RationalArg(1, 3), 0.5), CFG)
        with pytest.raises(PoleError):
            estermann_hurwitz(EstermannPoint(3, RationalArg(1, 3), 2), CFG)


class TestNonpositive:
    def test_spec_value(self):
        v = estermann_nonpositive(0, RationalArg(1, 2), 0, CFG)
        assert abs(v.val - 0.25) <= v.abs_err + mp.mpf("1e-25")

    def test_routes_agree(self):
        for a in range(5):
            for k in range(5):
                for q in (2, 3, 5):
                    p = estermann_nonpositive(k, RationalArg(1, q), a, CFG)
                    d = estermann_nonpositive(a, RationalArg(1, q), k, CFG)
                    assert abs(p.val - d.val) <= 1e-9, (a, k, q)

    def test_matches_continued_hurwitz(self):
        # The finite Hurwitz double sum, evaluated at s = -k with exact
        # Bernoulli zeta values, is an independent reference.
        for (k, a, q) in [(3, 0, 3), (1, 2, 2), (2, 3, 5), (0, 1, 2)]:
            ref = estermann_hurwitz(
                EstermannPoint(-k, RationalArg(1, q), a - k), CFG)
            v = estermann_nonpositive(k, RationalArg(1, q), a, CFG)
            assert abs(v.val - ref.val) <= 1e-12, (k, a, q)


class TestThm44:
    def test_grid(self):
        for (a, k, q) in [(1, 3, 2), (0, 3, 3), (1, 0, 2), (4, 2, 3), (2, 2, 5)]:
            r = verify_thm44(k, RationalArg(1, q), a, CFG)
            assert r.residual_mag() <= 1e-9, (a, k, q)


class TestProp43:
    def test_integer_regime(self):
        for (s, a, q) in [(2, 3, 3), (0, 1, 2), (1, 0, 5), (3, 2, 7)]:
            r = verify_prop43(s, RationalArg(1, q), a, CFG)
            assert r.residual_mag() <= 1e-9, (s, a, q)

    def test_display_swap_detail(self):
        r = verify_prop43(2, RationalArg(1, 3), 3, CFG)
        assert "first_display_residual" in r.details
        assert "second_display_residual" in r.details

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            verify_prop43(-1, RationalArg(1, 3), 2, CFG)


# The larger residual, 1e-6, lies well inside its own 1e-3 budget; the
# smaller one, 1e-9, carries no error and exceeds the 1e-12 target.
LOOSE, TIGHT, ZERO = ComplexVal(1e-6, 1e-3), ComplexVal(1e-9), ComplexVal(0)


@pytest.mark.parametrize("verify,values", [
    (verify_thm44, (ZERO, LOOSE, TIGHT)),   # (primary, dual, reference)
    (verify_prop43, (LOOSE, TIGHT, ZERO)),  # (first, second, reference)
])
def test_each_residual_meets_its_own_budget(monkeypatch, verify, values):
    monkeypatch.setattr(estermann, "_nonpositive_values", lambda *args: values)
    r = verify(2, RationalArg(1, 3), 3, CFG)
    assert r.residual_mag() < 1e-8
    assert not r.passes()


class TestLemma42:
    def test_trivial_twist(self):
        # n = 0 mod q makes every e(mnx) = 1 and Phi a plain Hurwitz zeta.
        r = verify_lemma42(2.5, 0.7, 3, RationalArg(1, 3), CFG)
        assert r.residual_mag() <= 1e-9

    def test_listed_points(self):
        r = verify_lemma42(2.5, 0.7, 1, RationalArg(1, 3), CFG)
        assert r.residual_mag() <= 1e-9
        r = verify_lemma42(3 + 1j, 1.2, 2, RationalArg(1, 5), CFG)
        assert r.residual_mag() <= 1e-9

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            verify_lemma42(0.5, 0.7, 1, RationalArg(1, 3), CFG)


class TestLemma41:
    def test_low_orders_and_twists(self):
        for k in range(1, 7):
            for x in (RationalArg(1, 3), RationalArg(1, 5), RationalArg(2, 7)):
                r = verify_lemma41(k, x, CFG)
                assert r.residual_mag() <= 1e-10, (k, str(x))

    def test_rejects_k0(self):
        with pytest.raises(DomainError):
            verify_lemma41(0, RationalArg(1, 3), CFG)


class TestLargerDenominators:
    def test_twisted_suite_at_q7_and_q11(self):
        from math import gcd
        import random

        rng = random.Random(1337)
        for q in (7, 11):
            ps = [p for p in range(1, q) if gcd(p, q) == 1]
            for _ in range(3):
                p = rng.choice(ps)
                a, k = rng.randint(0, 5), rng.randint(0, 5)
                x = RationalArg(p, q)
                for r in (verify_thm44(k, x, a, CFG),
                          verify_cor45(a, k, x, CFG),
                          verify_prop43(k, x, a, CFG)):
                    assert r.residual_mag() <= 1e-9, (a, k, p, q)


class TestRealness:
    def test_odd_derivative_order_is_real(self):
        # For odd k the prefactor -(2i)^-(k+1) is real and both factors in
        # each term are real, so Im C(a,k,x) is pure roundoff.
        for a in (0, 1, 2, 3):
            for k in (1, 3, 5):
                for x in (RationalArg(1, 3), RationalArg(2, 5)):
                    v = sums.cotangent_sum_C(a, k, x, CFG)
                    assert abs(v.val.imag) <= v.abs_err, (a, k, str(x))


class TestCor45:
    def test_zero_prediction_when_orders_match(self):
        r = verify_cor45(3, 3, RationalArg(1, 7), CFG)
        assert r.rhs.val == 0
        assert r.residual_mag() <= 1e-9

    def test_even_orders_vanish_prediction(self):
        # zeta(-2) = zeta(-4) = 0 makes the predicted difference zero while
        # the individual sums are nonzero.
        r = verify_cor45(2, 4, RationalArg(1, 5), CFG)
        assert r.rhs.val == 0
        assert r.residual_mag() <= 1e-9

    def test_nonzero_prediction(self):
        # (a, k) = (1, 3): difference (q^3 - q) zeta(-3) zeta(-1) != 0
        with mp.workdps(40):
            r = verify_cor45(1, 3, RationalArg(1, 2), CFG)
            assert abs(r.rhs.val) > 1e-4
            assert r.residual_mag() <= 1e-9
            # hand value at q = 2: difference = -1/240
            assert abs(r.lhs.val + mp.mpf(1) / 240) < mp.mpf("1e-20")

    def test_zero_order_slots(self):
        for (a, k) in [(0, 3), (3, 0), (0, 0)]:
            r = verify_cor45(a, k, RationalArg(1, 3), CFG)
            assert r.residual_mag() <= 1e-9, (a, k)


# ---------------------------------------------------------------------------
# Property tests of both routes against an mpmath-only oracle
# ---------------------------------------------------------------------------

SERIES_CFG = PrecisionConfig(30, 1e-9, max_terms=2_000)

twists = st.integers(2, 24).flatmap(
    lambda q: st.tuples(st.integers(1, q - 1), st.just(q))).filter(
    lambda pq: gcd(*pq) == 1)
# Orders on a quarter grid, so integers (nonpositive ones included, where
# _zeta_factor switches to exact Bernoulli values) are drawn often.
quarters = st.integers(-12, 20).map(lambda n: n / 4)
orders = st.tuples(quarters, st.sampled_from([0, 0, 0.5, -1.25])).map(
    lambda t: complex(*t) if t[1] else t[0])


def _double_sum_oracle(s, a, p, q, dps=50):
    """q^(a-2s) sum_{m,n=1..q} e(mnp/q) zeta(s-a, m/q) zeta(s, n/q) from
    mpmath.zeta at dps digits."""
    with mp.workdps(dps):
        s, a = mp.mpc(s), mp.mpc(a)
        zl = [mp.zeta(s - a, mp.mpf(m) / q) for m in range(1, q + 1)]
        zr = [mp.zeta(s, mp.mpf(n) / q) for n in range(1, q + 1)]
        total = mp.fsum(mp.expjpi(mp.mpf(2 * (m * n * p % q)) / q) * zl[m - 1] * zr[n - 1]
                        for m in range(1, q + 1) for n in range(1, q + 1))
        return mp.power(q, a - 2 * s) * total


@settings(max_examples=20)
@given(twists, orders, orders)
def test_hurwitz_route_matches_mpmath_double_sum(pq, s, a):
    assume(s != 1 and s - a != 1)
    v = estermann_hurwitz(EstermannPoint(s, RationalArg(*pq), a), CFG)
    assert abs(v.val - _double_sum_oracle(s, a, *pq)) <= v.abs_err


@settings(max_examples=12)
@given(twists, orders, quarters.filter(lambda d: d >= 1.5),
       st.sampled_from([0, 0.75, -2]))
def test_series_route_matches_mpmath_double_sum(pq, a, decay, t):
    # Re s - Re a - 1 = decay >= 1.5; the slow points stop at max_terms with
    # their tail in abs_err.
    s = complex(a).real + 1 + decay + 1j * t
    assume(s.real > 1)
    v = estermann_series(EstermannPoint(s, RationalArg(*pq), a), SERIES_CFG)
    assert abs(v.val - _double_sum_oracle(s, a, *pq)) <= v.abs_err


# (s, a) with a >= 0 and decay s - a - 1 from 1 to 6: the fixed-point terms.
# Decays 1 to 3 stop at SERIES_CFG's max_terms with their tail in abs_err.
integer_series_points = st.tuples(st.integers(0, 4), st.integers(1, 6)).map(
    lambda t: (t[0] + 1 + t[1], t[0]))


@settings(max_examples=12)
@given(twists, integer_series_points)
@example((5, 11), (4, 1))
@example((7, 24), (2, 0))
def test_series_at_integer_points_matches_mpmath_double_sum(pq, sa):
    s, a = sa
    v = estermann_series(EstermannPoint(s, RationalArg(*pq), a), SERIES_CFG)
    assert abs(v.val - _double_sum_oracle(s, a, *pq)) <= v.abs_err


@settings(max_examples=15)
@given(twists, st.integers(0, 4), st.integers(0, 4))
def test_nonpositive_matches_mpmath_double_sum(pq, a, k):
    # E(-k, x, a - k) = C(a, k, x) + q^a zeta(-k) zeta(-a): the double sum
    # at s = -k, shift a - k has zeta factors zeta(-a, m/q) and zeta(-k, n/q).
    v = estermann_nonpositive(k, RationalArg(*pq), a, CFG)
    assert abs(v.val - _double_sum_oracle(-k, a - k, *pq)) <= v.abs_err


@pytest.mark.parametrize("k, a, p, q", [(3, 0, 2, 7), (1, 2, 5, 12), (4, 3, 20, 53)])
def test_nonpositive_holds_its_budget_above_60_digits(k, a, p, q):
    # ComplexVal arithmetic must follow a working precision above 60 digits,
    # or its rounding escapes a budget near 1e-75.
    cfg = PrecisionConfig(70, 1e-65)
    v = estermann_nonpositive(k, RationalArg(p, q), a, cfg)
    assert abs(v.val - _double_sum_oracle(-k, a - k, p, q, dps=150)) <= v.abs_err


@pytest.mark.parametrize("kernel", [estermann_series, estermann_hurwitz])
@pytest.mark.parametrize("s, a, p, q", [
    (20, 1, 1, 3),
    (24.5 + 1j, 0.5, 2, 5),
    (30, 2, 3, 7),
])
def test_routes_hold_their_budget_above_60_digits(kernel, s, a, p, q):
    # Working precision above ComplexVal's 60 digits: the root table and the
    # dot products must follow it, or ~1e-60 twist rounding escapes a 1e-66
    # budget.  The oracle's double sum cancels ~40 digits, hence 150.
    cfg = PrecisionConfig(70, 1e-65)
    v = kernel(EstermannPoint(s, RationalArg(p, q), a), cfg)
    assert v.abs_err < mp.mpf("1e-64")
    assert abs(v.val - _double_sum_oracle(s, a, p, q, dps=150)) <= v.abs_err


def _chain_double_sum(pt, cfg):
    """The double sum as a term-by-term ComplexVal chain, one e(mnx) per term:
    the reference for estermann_hurwitz's closed-form budget."""
    q, p = pt.x.q, pt.x.p
    with mp.workdps(cfg.working_digits + 10):
        sc, ac = mp.mpc(pt.s), mp.mpc(pt.a)
        zl = [estermann._zeta_factor(sc - ac, m, q, cfg) for m in range(1, q + 1)]
        zr = [estermann._zeta_factor(sc, n, q, cfg) for n in range(1, q + 1)]
        total = ComplexVal(0, 0)
        for m in range(1, q + 1):
            for n in range(1, q + 1):
                tw = mp.expjpi(mp.mpf(2 * m * n * p) / q)
                total = total + zl[m - 1] * zr[n - 1] * ComplexVal(tw)
        return total.scaled(mp.mpc(q) ** (ac - 2 * sc))


@pytest.mark.parametrize("s, x, a", [
    (-2, RationalArg(3, 7), 1),
    (0, RationalArg(5, 12), 3),
    (2.5, RationalArg(2, 5), 0.5),
    (-1.5 + 0.5j, RationalArg(4, 9), 0.25 - 1j),
])
def test_hurwitz_budget_equals_complexval_chain(s, x, a):
    pt = EstermannPoint(s, x, a)
    new = estermann_hurwitz(pt, CFG)
    old = _chain_double_sum(pt, CFG)
    assert abs(new.abs_err - old.abs_err) <= old.abs_err * mp.mpf("1e-20")
    assert abs(new.val - old.val) <= new.abs_err


def _termwise_series(pt, cfg):
    """The Dirichlet series as one loop of mpc terms, each carrying its own
    twist e(nx), with mpf sums for the tail: the reference for
    estermann_series's class sums and budget."""
    q, p = pt.x.q, pt.x.p
    wp = cfg.working_digits + 10
    with mp.workdps(wp):
        sc, ac = mp.mpc(pt.s), mp.mpc(pt.a)
        sigma, alpha = sc.real, ac.real
        decay = sigma - alpha - 1
        target = mp.mpf(cfg.target_abs_err) / 2
        N = max(32, int(min(mp.mpf(cfg.max_terms),
                            mp.ceil((4 / target) ** (1 / decay)) + 32)))
        sig = [mp.mpc(0)] * (N + 1)
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                sig[m] += mp.mpc(d) ** ac
        with mp.workdps(max(wp, 60)):
            roots = mp.unitroots(q)
        total, magsum, dsum_am1, dsum_a = mp.mpc(0), mp.mpf(0), mp.mpf(0), mp.mpf(0)
        for n in range(1, N + 1):
            nf = mp.mpf(n)
            term = sig[n] * roots[n * p % q] * nf ** (-sc)
            total += term
            magsum += abs(term)
            dsum_am1 += nf ** (alpha - 1)
            dsum_a += nf ** alpha
        zs = abs(specfn.riemann_zeta(sigma, cfg).val)
        Nf = mp.mpf(N)
        tail = (Nf ** (1 - sigma) / (sigma - 1) * dsum_am1
                + Nf ** (-sigma) * dsum_a
                + zs * (Nf ** (alpha - sigma + 1) / decay + Nf ** (alpha - sigma)))
        return ComplexVal(total, tail + magsum * mp.mpf(10) ** (3 - wp))


@pytest.mark.parametrize("s, x, a", [
    (6, RationalArg(2, 7), 0),
    (4, RationalArg(3, 11), 1),     # stops at max_terms
    (3, RationalArg(5, 12), 0),     # stops at max_terms, harmonic tail sum
    (7, RationalArg(20, 53), 3),
    (3.5, RationalArg(4, 9), 0.5),
    (4 + 1j, RationalArg(1, 5), 1),
])
def test_series_budget_equals_termwise_loop(s, x, a):
    cfg = PrecisionConfig(30, 1e-9, 2_500)
    pt = EstermannPoint(s, x, a)
    new = estermann_series(pt, cfg)
    old = _termwise_series(pt, cfg)
    assert abs(new.abs_err - old.abs_err) <= old.abs_err * mp.mpf("1e-20")
    assert abs(new.val - old.val) <= new.abs_err
