"""Tests for the reciprocity verification engines."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotzeta import exact, recip, specfn
from cotzeta.errors import AbscissaShiftError, DomainError
from cotzeta.exact import ExactScaled
from cotzeta.recip import (
    QuadratureConfig,
    closed_form_integral,
    convolution_at_zero,
    cot_product_line_integral,
    g_a_numeric,
    laurent_coeff,
    laurent_coeff_cot,
    laurent_coeff_zeta,
    line_integral_cotcot,
    psi_a_numeric,
    residue_at_one,
    verify_cor23,
    verify_cor33,
    verify_dedekind_recip,
    verify_eisenstein_period,
    verify_thm11,
    verify_thm12,
    verify_thm14_cross,
    verify_thm31,
    verify_thm32,
)
from cotzeta.specfn import ComplexVal, PrecisionConfig

CFG = PrecisionConfig(30, 1e-12)
QUAD = QuadratureConfig(target_abs_err=1e-10)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(epsilon=-0.1)
        with pytest.raises(DomainError):
            QuadratureConfig(target_abs_err=0)

    def test_epsilon_admissibility(self):
        with pytest.raises(DomainError):
            line_integral_cotcot(3, 2, 3, QuadratureConfig(epsilon=0.6), CFG)


# QUADPACK's qk15 (Piessens et al., 1983): the nonnegative nodes of K15 in
# descending order, their K15 weights, and the G7 weights of every other node.
QK15_NODES = ["0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
              "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
              "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
              "0.207784955007898467600689403773245", "0"]
QK15_K_WEIGHTS = ["0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
                  "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
                  "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
                  "0.204432940075298892414161999234649", "0.209482141084727828012999174891714"]
QK15_G_WEIGHTS = ["0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
                  "0.381830050505118944950369775488975", "0.417959183673469387755102040816327"]


def _old_legendre_nodes(n: int):
    """The former Newton loop, kept as the reference: it stops only once a
    step is below 10^(-dps-2), under the rounding level, or after 100 steps."""
    nodes, weights = [], []
    for i in range(1, n // 2 + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p, dp = recip._legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < mp.mpf(10) ** (-mp.mp.dps - 2):
                break
        dp = recip._legendre(n, x)[1]
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.extend([-x, x])
        weights.extend([w, w])
    if n % 2:
        dp = recip._legendre(n, mp.mpf(0))[1]
        nodes.append(mp.mpf(0))
        weights.append(2 / dp / dp)
    return nodes, weights


def _moment_error(nodes, weights, degree):
    """|rule(x^degree) - integral of x^degree over [-1, 1]|."""
    exact = mp.mpf(2) / (degree + 1) if degree % 2 == 0 else 0
    return abs(mp.fdot(weights, [x ** degree for x in nodes]) - exact)


class TestPanelRule:
    """The Gauss-Kronrod pair G_n / K_(2n+1) behind every panel."""

    def test_newton_stops_at_the_rounding_level(self, monkeypatch):
        steps = []
        newton = recip._newton

        def counted(step, x):
            calls = []

            def counted_step(y):
                calls.append(1)
                return step(y)
            out = newton(counted_step, x)
            steps.append(len(calls))
            return out

        monkeypatch.setattr(recip, "_newton", counted)
        monkeypatch.setattr(recip, "_gl_cache", {})
        monkeypatch.setattr(recip, "_gk_cache", {})
        with mp.workdps(40):
            for n in (18, 27):
                nodes, weights = recip._legendre_nodes(n)
                old_nodes, old_weights = _old_legendre_nodes(n)
                for new, old in zip(nodes + weights, old_nodes + old_weights):
                    assert abs(new - old) <= mp.mpf(10) ** -35
            recip._kronrod_rule(18)
        # Ten iterations at most, and the closing step.
        assert 0 < max(steps) <= 11

    def test_g7_k15_matches_quadpack(self):
        with mp.workdps(40):
            nodes, k_weights, g_weights = recip._kronrod_rule(7)
        # The nonnegative half of the symmetric rule, in descending order.
        half = list(zip(nodes, k_weights, g_weights))[:6:-1]
        for (x, wk, wg), x_ref, wk_ref in zip(half, QK15_NODES, QK15_K_WEIGHTS):
            assert abs(x - mp.mpf(x_ref)) < 1e-15
            assert abs(wk - mp.mpf(wk_ref)) < 1e-15
        assert all(wg == 0 for _, _, wg in half[0::2])
        for (_, _, wg), wg_ref in zip(half[1::2], QK15_G_WEIGHTS):
            assert abs(wg - mp.mpf(wg_ref)) < 1e-15

    @pytest.mark.parametrize("n", [9, 18])
    def test_kronrod_extension(self, n):
        with mp.workdps(40):
            nodes, k_weights, g_weights = recip._kronrod_rule(n)
            gauss = dict(zip(*recip._legendre_nodes(n)))
            assert len(nodes) == 2 * n + 1
            assert set(gauss) <= set(nodes)
            assert all(wg == gauss.get(x, 0) for x, wg in zip(nodes, g_weights))
            assert all(wk > 0 for wk in k_weights)
            for degree in range(3 * n + 2):
                assert _moment_error(nodes, k_weights, degree) < mp.mpf(10) ** -35
            first_even_above = 3 * n + 2 + (3 * n) % 2
            assert _moment_error(nodes, k_weights, first_even_above) > mp.mpf(10) ** -30


def _mp_cot_product(z, ks, ms):
    """prod_j cot^(m_j)(pi k_j z), m_j <= 2, from mp.cot alone."""
    prod = 1
    for k, m in zip(ks, ms):
        c = mp.cot(mp.pi * k * z)
        prod *= [c, -(1 + c * c), 2 * c * (1 + c * c)][m]
    return prod


def _line_oracle(s, ks, ms, dps=50, eps=None):
    """The downward line integral over Re z = eps, 1/(2 max k) by default,
    from mp.cot and mp.quad alone, at dps digits: the constant (-+i)^d that a
    pure cot product tends to is subtracted on each half-line and its
    integral added back.  A given eps adds breakpoints at 1, 10 and 100 eps."""
    with mp.workdps(dps):
        s = mp.mpc(s)
        points = [0, 1, mp.inf]
        if eps is None:
            eps = mp.mpf(1) / (2 * max(ks))
        else:
            eps = mp.mpf(eps)
            points[1:1] = [eps, 10 * eps, 100 * eps]
        d = len(ks)
        ctop, cbot = ((-1j) ** d, (1j) ** d) if not any(ms) else (0, 0)

        def f(t, const):
            z = mp.mpc(eps, t)
            return (_mp_cot_product(z, ks, ms) - const) * z ** (-s)

        val = (mp.quad(lambda t: f(t, cbot), [-p for p in reversed(points)])
               + mp.quad(lambda t: f(t, ctop), points))
        return -1j * val + (ctop - cbot) * eps ** (1 - s) / (1 - s)


def _coprime_moduli():
    return st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True).filter(
        lambda ks: all(gcd(a, b) == 1 for a, b in combinations(ks, 2)))


@st.composite
def _line_cases(draw):
    ks = draw(_coprime_moduli())
    ms = draw(st.lists(st.integers(0, 2), min_size=len(ks), max_size=len(ks)))
    re = draw(st.floats(1.2, 4))
    im = draw(st.one_of(st.just(0.0), st.floats(0.5, 3), st.floats(-3, -0.5)))
    return complex(re, im) if im else re, tuple(ks), tuple(ms)


@settings(max_examples=8)
@given(case=_line_cases(), target=st.sampled_from([1e-8, 1e-10]))
def test_line_integral_within_its_abs_err(case, target):
    s, ks, ms = case
    v = cot_product_line_integral(s, ks, ms, QuadratureConfig(target_abs_err=target), CFG)
    assert abs(v.val - _line_oracle(s, ks, ms)) <= v.abs_err


@settings(max_examples=40)
@given(k=st.integers(1, 7),
       frac=st.floats(0, 1, exclude_min=True, exclude_max=True),
       t=st.floats(0, 12))
def test_line_cot_values_match_mpmath(k, frac, t):
    # Each fixed-point value from the real exponential of its node lies
    # within 10^-47 (1 + |cot|^2) of mp.cot at 50 digits: 1 + |cot|^2 is the
    # conditioning of cot, and eps = frac/k is itself rounded at 50 digits.
    with mp.workdps(50):
        eps = mp.mpf(frac) / k
        bits, factors = recip._cot_line(eps, (k,), (0,), mp.mpc(2))
        ((x, y),) = factors(mp.mpf(t))
        value = mp.mpc(mp.ldexp(x, -bits), mp.ldexp(y, -bits))
        with mp.workdps(80):
            ref = mp.cot(mp.pi * k * mp.mpc(eps, t))
            assert abs(value - ref) <= mp.mpf(10) ** -47 * (1 + abs(ref) ** 2)


@st.composite
def _node_cases(draw):
    ks = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    ms = draw(st.lists(st.integers(0, 2), min_size=len(ks), max_size=len(ks)))
    return tuple(ks), tuple(ms)


@settings(max_examples=40)
@given(case=_node_cases(), n=st.integers(2, 7), frac=st.floats(0.01, 0.99),
       u=st.floats(0, 12))
def test_node_pair_matches_mpmath(case, n, frac, u):
    # The whole fixed-point node pair at 60 digits against the mpmath build
    # at 90: within 10^-57 (1 + |z|^-n prod_j (1 + |cot_j|)^(m_j + 2)), the
    # mpf kernel's working-precision rounding times the conditioning of
    # cot^(m) and z^-n.  The integer rounding alone is below 2^-(prec + 4).
    ks, ms = case
    with mp.workdps(60):
        eps = mp.mpf(frac) / max(ks)
        upper, lower = recip._line_integrand(mp.mpc(n), eps, ks, ms)(mp.mpf(u))
        with mp.workdps(90):
            z = mp.mpc(eps, u)
            const = 0 if any(ms) else (-1j) ** len(ks)
            ref = (_mp_cot_product(z, ks, ms) - const) * z ** -n
            scale = abs(z) ** -n
            for k, m in zip(ks, ms):
                scale *= (1 + abs(mp.cot(mp.pi * k * z))) ** (m + 2)
            assert abs(upper - ref) <= mp.mpf(10) ** -57 * (1 + scale)
        assert lower == mp.conj(upper)


@pytest.mark.parametrize("n,ks,ms", [
    (2, (1, 2), (0, 1)),
    (3, (2, 3), (1, 0)),
    (4, (3,), (2,)),
    (4, (1, 2, 3), (0, 0, 1)),
    (5, (2, 5), (1, 2)),
])
def test_integer_exponent_within_its_abs_err(n, ks, ms):
    # An integer exponent raises z to a Python int power.
    v = cot_product_line_integral(n, ks, ms, QUAD, CFG)
    assert abs(v.val - _line_oracle(n, ks, ms)) <= v.abs_err


def test_line_at_60_digits_within_its_abs_err():
    # The fixed-point width follows the working precision.
    v = cot_product_line_integral(4, (3,), (1,), QuadratureConfig(target_abs_err=1e-25),
                                  PrecisionConfig(60, 1e-50))
    assert abs(v.val - _line_oracle(4, (3,), (1,), dps=80)) <= v.abs_err


def test_line_near_the_poles_within_its_abs_err():
    # eps = 1e-3 puts the line 1e-3 from the pole of cot at 0: the widest
    # dynamic range of the fixed point, |1/z|^2 up to 1e6.
    v = cot_product_line_integral(2, (3,), (0,), QuadratureConfig(epsilon=1e-3), CFG)
    assert abs(v.val - _line_oracle(2, (3,), (0,), eps=1e-3)) <= v.abs_err


class TestLaurentCoefficients:
    def test_principal_part_order_zero(self):
        assert laurent_coeff_cot(-1, 5, 0) == ExactScaled(Fraction(1, 5), -1, 0)

    def test_zeroed_b1_kills_l0(self):
        assert laurent_coeff_cot(0, 5, 0).is_zero()

    def test_classical_cot_coefficient(self):
        # z-coefficient of cot(pi k z) about an integer: -(pi k)/3
        assert laurent_coeff_cot(1, 4, 0) == ExactScaled(Fraction(-4, 3), 1, 0)

    def test_point_reading_order_one(self):
        # cot'(pi k z) = -(pi k z)^-2 - 1/3 - (pi k z)^2/15 - ... so under the
        # evaluated-at-the-point reading:
        assert laurent_coeff_cot(-2, 3, 1) == ExactScaled(Fraction(-1, 9), -2, 0)
        assert laurent_coeff_cot(0, 3, 1) == ExactScaled(Fraction(-1, 3), 0, 0)
        assert laurent_coeff_cot(2, 3, 1) == ExactScaled(Fraction(-9, 15), 2, 0)

    def test_support_gap(self):
        for l in (-1, -2):
            assert laurent_coeff_cot(l, 2, 2).is_zero()
        assert not laurent_coeff_cot(-3, 2, 2).is_zero()

    def test_zeta_factor(self):
        # l0 = 0, m0 = 0: just zeta(a)
        v = laurent_coeff_zeta(0, 2.5, 0, CFG)
        ref = specfn.riemann_zeta(2.5, CFG)
        assert abs(v.val - ref.val) <= v.abs_err + ref.abs_err
        # l0 = 1, m0 = 0: -a zeta(a+1)
        v = laurent_coeff_zeta(1, 2.5, 0, CFG)
        with mp.workdps(40):
            ref = -mp.mpf("2.5") * mp.zeta(mp.mpf("3.5"))
            assert abs(v.val - ref) < mp.mpf("1e-12")

    @pytest.mark.parametrize("m0", [0, 1, 2])
    def test_zeta_factor_higher_orders(self, m0):
        a = mp.mpc("2.5", "0.5")
        for l0 in (2, 3, 4):
            v = laurent_coeff_zeta(l0, a, m0, CFG)
            with mp.workdps(40):
                j = m0 + l0
                ref = (-1) ** j * mp.rf(a, j) * mp.zeta(a + j) / mp.factorial(l0)
                assert abs(v.val - ref) <= v.abs_err, (l0, m0)

    def test_dispatcher(self):
        assert laurent_coeff(1, -1, k=5, m=0) == laurent_coeff_cot(-1, 5, 0)
        v = laurent_coeff(0, 0, a=2.5, m0=0, cfg=CFG)
        assert abs(v.val - specfn.riemann_zeta(2.5, CFG).val) < 1e-12
        with pytest.raises(DomainError):
            laurent_coeff(1, 0)


class TestClosedFormIntegral:
    def test_value_311(self):
        assert closed_form_integral(3, 1, 1) == ExactScaled(Fraction(-1, 15), 3, 1)

    def test_bracket_cancellation_structure(self):
        # The (3,1,2) bracket mirrors the odd-order reciprocity cancellation:
        # rhs of the exact law at (3,1,2) is zero but the integral is not.
        v = closed_form_integral(3, 1, 2)
        assert not v.is_zero()
        assert exact.thm13_rhs(3, 1, 2).is_zero()

    def test_matches_convolution_route(self):
        # -pi i times the residue convolution reproduces the closed form.
        for n, h, k in [(3, 1, 2), (5, 2, 3), (3, 1, 1)]:
            conv = convolution_at_zero(n, (h, k), (0, 0))
            assert conv * ExactScaled(-1, 1, 1) == closed_form_integral(n, h, k)

    def test_rejects_even_order(self):
        with pytest.raises(DomainError):
            closed_form_integral(4, 1, 2)

    def test_exact_consistency_with_odd_order_rhs(self):
        # Zero-tolerance link between the three closed forms:
        #   thm13_rhs(n,h,k) = n zeta(n+1)/(pi (hk)^n)
        #                      + (hk)^(1-n)/(2i) * closed_form_integral(n,h,k)
        # with zeta(n+1) = -(2 pi i)^(n+1) B_{n+1} / (2 (n+1)!), everything a
        # rational multiple of pi^n for odd n.
        from math import factorial

        for n, h, k in [(3, 1, 2), (3, 2, 3), (5, 3, 4), (7, 2, 5)]:
            b = exact.bernoulli_number(n + 1)
            zeta_np1 = ExactScaled(
                -Fraction(2 ** n) * b / factorial(n + 1), n + 1, n + 1)
            zeta_term = (zeta_np1 * n).scale_rational_power(h * k, -n) \
                * ExactScaled(1, -1, 0)
            half_i_inv = ExactScaled(Fraction(-1, 2), 0, 1)  # 1/(2i)
            integral_term = (closed_form_integral(n, h, k) * half_i_inv
                             ).scale_rational_power(h * k, 1 - n)
            assert zeta_term + integral_term == exact.thm13_rhs(n, h, k)


class TestLineIntegral:
    def test_value_311(self):
        with mp.workdps(40):
            v = line_integral_cotcot(3, 1, 1, QUAD, CFG)
            ref = -1j * mp.pi ** 3 / 15
            assert abs(v.val - ref) <= v.abs_err
            assert v.abs_err < 1e-8

    def test_matches_closed_form(self):
        with mp.workdps(40):
            for n, h, k in [(3, 1, 2), (5, 2, 3), (3, 3, 4), (5, 1, 6), (7, 2, 5)]:
                v = line_integral_cotcot(n, h, k, QUAD, CFG)
                ref = closed_form_integral(n, h, k).numeric(40)
                assert abs(v.val - ref) <= v.abs_err, (n, h, k)

    def test_epsilon_independence(self):
        a, h, k = 2.5, 2, 3
        v1 = line_integral_cotcot(a, h, k, QuadratureConfig(epsilon=0.1), CFG)
        v2 = line_integral_cotcot(a, h, k, QuadratureConfig(epsilon=0.25), CFG)
        assert abs(v1.val - v2.val) <= v1.abs_err + v2.abs_err

    def test_target_self_consistency(self):
        a, h, k = 2.5, 2, 3
        coarse = line_integral_cotcot(a, h, k, QuadratureConfig(target_abs_err=1e-8), CFG)
        fine = line_integral_cotcot(a, h, k, QuadratureConfig(target_abs_err=1e-12), CFG)
        assert abs(coarse.val - fine.val) <= coarse.abs_err

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            line_integral_cotcot(0.5, 1, 2, QUAD, CFG)
        with pytest.raises(DomainError):
            line_integral_cotcot(3, 2, 4, QUAD, CFG)


class TestHalfLine:
    """Both half-lines are integrated over [0, T] from one evaluation per node
    pair.  A real exponent takes the lower half as the conjugate of the upper
    one; an imaginary part of 1e-40 evaluates conj(z)^(-s) on its own."""

    QUAD_8 = QuadratureConfig(target_abs_err=1e-8)

    @pytest.mark.parametrize("s,ks,ms", [
        (2.5, (2, 3), (0, 0)),
        (3, (2, 3, 5), (0, 0, 0)),  # odd d: the halves subtract different constants
        (3.5, (3, 4), (1, 0)),      # derivative factor: sampled tail
    ])
    def test_matches_full_line(self, s, ks, ms):
        half = cot_product_line_integral(s, ks, ms, self.QUAD_8, CFG)
        full = cot_product_line_integral(s + 1e-40j, ks, ms, self.QUAD_8, CFG)
        assert abs(half.val - full.val) <= min(half.abs_err, full.abs_err)
        assert half.val.real == 0

    @staticmethod
    def _count_calls(monkeypatch, module, name, call):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        value = call()
        monkeypatch.setattr(module, name, original)
        return value, len(calls)

    def test_complex_exponent_shares_cot_evaluations(self, monkeypatch):
        # One real exponential per node pair, whatever the exponent: the lower
        # half-line reuses the conjugate of the upper half's cot product.  The
        # node pairs are counted through _integrate_line, plus the sampled
        # tail's one pair at T.
        original_exp, original_line = mp.exp, recip._integrate_line
        real_exps, pairs = [], []

        def exp(x):
            if isinstance(x, mp.mpf):
                real_exps.append(1)
            return original_exp(x)

        def integrate_line(pair, *args):
            def counted(u):
                pairs.append(1)
                return pair(u)
            return original_line(counted, *args)

        monkeypatch.setattr(mp, "exp", exp)
        monkeypatch.setattr(recip, "_integrate_line", integrate_line)
        values = []
        for s in (3.5, 3.5 + 1e-40j):
            real_exps.clear()
            pairs.clear()
            values.append(cot_product_line_integral(s, (3, 4), (1, 0), self.QUAD_8, CFG))
            assert 0 < len(real_exps) == len(pairs) + 1
        real, cplx = values
        assert abs(real.val - cplx.val) <= min(real.abs_err, cplx.abs_err)

    def test_real_order_halves_mellin_gamma_evaluations(self, monkeypatch):
        quad = QuadratureConfig(target_abs_err=1e-4)
        cfg = PrecisionConfig(20, 1e-8)

        def g(a):
            return lambda: g_a_numeric(a, 1, 2, quad, cfg)
        half, n_half = self._count_calls(monkeypatch, specfn, "complex_gamma", g(-2.5))
        full, n_full = self._count_calls(monkeypatch, specfn, "complex_gamma",
                                         g(-2.5 + 1e-40j))
        assert 0 < n_half <= n_full / 2
        assert abs(half.val - full.val) <= min(half.abs_err, full.abs_err)
        assert half.val.imag == 0


class TestThm12:
    def test_residuals(self):
        for a, h, k in [(3, 1, 2), (2.5, 2, 3), (2 + 1j, 3, 4)]:
            r = verify_thm12(a, h, k, QUAD, CFG)
            assert r.residual_mag() <= 1e-8, (a, h, k)
            assert r.passes()

    def test_orientation_pin(self):
        # Flipping the integral's sign (i.e. integrating upward) must leave a
        # residual of twice the integral term, pinning the convention once.
        a, h, k = 2.5, 2, 3
        with mp.workdps(40):
            ac = mp.mpc(a)
            r = verify_thm12(a, h, k, QUAD, CFG)
            integral = line_integral_cotcot(a, h, k, QUAD, CFG)
            term = integral.val * mp.mpf(h * k) ** (1 - ac) / (2j)
            flipped = r.lhs.val - (r.rhs.val - 2 * term)
            assert abs(abs(flipped) - 2 * abs(term)) < 1e-6
            assert abs(flipped) > 0.01

    def test_rejects_small_re(self):
        with pytest.raises(DomainError):
            verify_thm12(1, 1, 2, QUAD, CFG)


class TestCor23:
    def test_listed_points(self):
        for n, h, k in [(3, 1, 1), (3, 1, 2), (5, 2, 3)]:
            r = verify_cor23(n, h, k, QUAD, CFG)
            assert r.residual_mag() <= 1e-8


class TestResidueMachinery:
    def test_residue_at_one_clean_case(self):
        # For d = 2, all orders zero: residue = -a zeta(a+1) / (pi^2 h k)
        with mp.workdps(40):
            for a, (h, k) in [(2.5, (2, 3)), (3 + 0.5j, (3, 4))]:
                v = residue_at_one(a, (h, k), (0, 0, 0), CFG)
                ac = mp.mpc(a)
                ref = -ac * mp.zeta(ac + 1) / (mp.pi ** 2 * h * k)
                assert abs(v.val - ref) < mp.mpf("1e-12"), a

    def test_convolution_support_is_finite(self):
        conv = convolution_at_zero(4, (2, 3), (1, 0))
        assert isinstance(conv, ExactScaled)

    @pytest.mark.parametrize("ms", [(0,), (2,), (0, 1), (2, 0), (1, 0, 2), (0, 0, 0)])
    def test_cot_index_tuples_match_brute_force(self, ms):
        for total in range(-7, 5):
            found = list(recip._cot_index_tuples(ms, total))
            box = [range(-(m + 1), total + sum(ms) + len(ms) + 1) for m in ms]
            expected = {t for t in product(*box) if sum(t) == total
                        and all(l == -(m + 1) or l >= 0 for l, m in zip(t, ms))}
            assert len(found) == len(set(found)), total
            assert set(found) == expected, total


class TestThm31:
    def test_listed_cases(self):
        cases = [
            (2.5, (2, 3), (0, 0, 0)),
            (3.5, (2, 3), (1, 0, 0)),
            (2.5, (2, 3, 5), (0, 0, 0, 0)),
        ]
        for a, ks, ms in cases:
            r = verify_thm31(a, ks, ms, QUAD, CFG)
            assert r.residual_mag() <= 1e-6, (a, ks, ms)

    def test_cotangent_derivative_orders(self):
        r = verify_thm31(2.75, (3, 4), (0, 1, 2), QUAD, CFG)
        assert r.residual_mag() <= 1e-6

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            verify_thm31(2.5, (2, 4), (0, 0, 0), QUAD, CFG)


class TestThm32:
    def test_listed_cases(self):
        cases = [
            (3, (2, 3), (0, 0, 0)),   # 0 + 3 + 2 + 0 odd
            (4, (3, 4), (1, 0, 0)),   # 1 + 4 + 2 + 0 odd
        ]
        for n, ks, ms in cases:
            r = verify_thm32(n, ks, ms, CFG)
            assert r.residual_mag() <= 1e-6, (n, ks, ms)

    def test_derivative_orders(self):
        r = verify_thm32(4, (2, 3), (0, 1, 0), CFG)
        assert r.residual_mag() <= 1e-6

    def test_parity_rejection(self):
        with pytest.raises(DomainError):
            verify_thm32(4, (2, 3), (0, 0, 0), CFG)


class TestCor33:
    def test_reduces_to_closed_form(self):
        r = verify_cor33(3, (2, 3), (0, 0, 0), QUAD, CFG)
        assert r.residual_mag() <= 1e-8
        cf = ComplexVal.from_exact(closed_form_integral(3, 2, 3), CFG)
        assert abs(r.rhs.val - cf.val) < 1e-12

    def test_listed_cases(self):
        for n, ks, ms in [(4, (2, 3), (0, 1, 0)), (2, (2, 3, 5), (0, 0, 0, 0))]:
            r = verify_cor33(n, ks, ms, QUAD, CFG)
            assert r.residual_mag() <= 1e-6, (n, ks, ms)

    def test_odd_factor_count_compensation(self):
        # d = 3 pure cotangent has unequal top/bottom limits; the closed-form
        # compensation keeps the identity.
        r = verify_cor33(2, (1, 2, 3), (0, 0, 0, 0), QUAD, CFG)
        assert r.residual_mag() <= 1e-6

    def test_parity_rejection(self):
        # 0 + 4 + 2 + 0 is even
        with pytest.raises(DomainError):
            verify_cor33(4, (2, 3), (0, 0, 0), QUAD, CFG)


@pytest.mark.parametrize("ms", [(-2, 0, 0), (0, -1, 0)])
@pytest.mark.parametrize("verifier", [
    lambda ms: verify_thm31(2.5, (2, 3), ms, QUAD, CFG),
    lambda ms: verify_thm32(3, (2, 3), ms, CFG),
    lambda ms: verify_cor33(3, (2, 3), ms, QUAD, CFG),
], ids=["thm31", "thm32", "cor33"])
def test_multifactor_rejects_negative_orders(verifier, ms):
    with pytest.raises(DomainError, match="derivative orders must be nonnegative"):
        verifier(ms)


@pytest.mark.parametrize("verifier", [verify_thm31, verify_thm32, verify_cor33],
                         ids=["thm31", "thm32", "cor33"])
def test_multifactor_needs_a_modulus(verifier):
    # With no cotangent factor every side of the laws is an empty sum, so
    # the identity would pass without checking anything.
    with pytest.raises(DomainError, match="at least one cotangent modulus"):
        verifier(3, (), (0,))


class TestPeriodFunctionNumeric:
    def test_g_odd_matches_polynomial(self):
        with mp.workdps(40):
            g = g_a_numeric(-3, 1, None, QUAD, CFG)
            ref = exact.g_polynomial(3).evaluate(1, CFG)
            assert abs(g.val - ref.val) <= 1e-6
            # -2 pi^3/45, for the record
            assert abs(g.val + 2 * mp.pi ** 3 / 45) < 1e-10

    def test_psi_odd_matches_polynomial(self):
        with mp.workdps(40):
            psi = psi_a_numeric(-3, 1, None, QUAD, CFG)
            ref = -1j * mp.pi ** 3 / (30 * mp.zeta(3))
            assert abs(psi.val - ref) < 1e-6

    def test_psi_at_rational_point(self):
        with mp.workdps(40):
            psi = psi_a_numeric(-3, mp.mpf(2) / 3, None, QUAD, CFG)
            ref = exact.psi_polynomial(3).evaluate(mp.mpf(2) / 3, CFG)
            assert abs(psi.val - ref.val) < 1e-10

    def test_generic_order_against_period_route(self):
        # psi_a via the q-series period identity at a generic order, z in the
        # upper half-plane; pins the Mellin integral's orientation and sign.
        cfg = CFG
        with mp.workdps(40):
            a = mp.mpf("-2.5")
            z = mp.mpc("0.6", "0.8")
            e1 = specfn.eisenstein_E(a, z, None, cfg)
            e2 = specfn.eisenstein_E(a, -1 / z, None, cfg)
            ref = e1.val - z ** (-1 - a) * e2.val
            psi = psi_a_numeric(a, z, None, QUAD, cfg)
            assert abs(psi.val - ref) < 1e-8

    def test_m_invariance(self):
        vals = []
        for M in (2, 3):
            vals.append(g_a_numeric(-2.5, 1.0, M, QUAD, CFG))
        assert abs(vals[0].val - vals[1].val) <= vals[0].abs_err + vals[1].abs_err

    def test_guards(self):
        with pytest.raises(DomainError):
            g_a_numeric(-2, 1, None, QUAD, CFG)  # even integer order
        with pytest.raises(DomainError):
            g_a_numeric(-3, -1, None, QUAD, CFG)  # on the cut
        with pytest.raises(DomainError):
            g_a_numeric(-3, 1, 1, QUAD, CFG)  # M below the constraint
        with pytest.raises(DomainError):
            psi_a_numeric(0, 1, None, QUAD, CFG)

    def test_pole_guard_function(self):
        with pytest.raises(AbscissaShiftError):
            recip._mellin_pole_guard(-4.4, 2)


class TestThm11:
    def test_polynomial_route(self):
        for a, h, k in [(-3, 2, 3), (-5, 3, 5)]:
            r = verify_thm11(a, h, k, QUAD, CFG)
            assert r.params["psi_route"] == "polynomial"
            assert r.residual_mag() <= 1e-6, (a, h, k)

    def test_numeric_route_generic_order(self):
        r = verify_thm11(-2.5, 2, 3, QUAD, CFG)
        assert r.params["psi_route"] == "numeric"
        assert r.residual_mag() <= 1e-6

    def test_numeric_route_complex_order(self):
        # Exercises the nonvanishing cot(pi a/2) term and the Mellin pole
        # guards off the real axis.
        r = verify_thm11(-2.5 + 0.5j, 2, 3, QUAD, CFG)
        assert r.residual_mag() <= 1e-6


class TestThm14Cross:
    def test_cross_check(self):
        for n, z in [(3, 1), (5, 2)]:
            r = verify_thm14_cross(n, z, None, QUAD, CFG)
            assert r.residual_mag() <= 1e-6, (n, z)


class TestEisensteinPeriod:
    def test_listed_points(self):
        for n, z in [(3, mp.mpc(0, 1)), (5, mp.mpc(1, 1))]:
            r = verify_eisenstein_period(n, z, CFG)
            assert r.residual_mag() <= 1e-8, (n, z)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            verify_eisenstein_period(3, mp.mpc(0, -2), CFG)


class TestRandomizedSweep:
    def test_multifactor_laws_random_parameters(self):
        # Seeded sweep over random moduli sets, derivative orders and orders;
        # every law must verify regardless of which slots carry derivatives.
        import random

        rng = random.Random(90125)
        coprime_sets = [(2, 3), (3, 4), (2, 5), (4, 5), (2, 3, 5), (3, 4, 5)]
        for _ in range(18):
            ks = rng.choice(coprime_sets)
            d = len(ks)
            ms = tuple(rng.randint(0, 2) for _ in range(d + 1))
            kind = rng.choice(["31", "32", "33"])
            if kind == "31":
                a = round(rng.uniform(1.3, 4.0), 2)
                if rng.random() < 0.3:
                    a += round(rng.uniform(-1, 1), 2) * 1j
                r = verify_thm31(a, ks, ms, QUAD, CFG)
            else:
                n = rng.randint(2, 6)
                if (ms[0] + n + d + sum(ms[1:])) % 2 == 0:
                    n = n + 1 if n < 6 else n - 1
                if (ms[0] + n + d + sum(ms[1:])) % 2 == 0:
                    continue
                if kind == "32":
                    r = verify_thm32(n, ks, ms, CFG)
                else:
                    r = verify_cor33(n, ks, ms, QUAD, CFG)
            assert r.residual_mag() <= 1e-6, (kind, ks, ms, r.residual_mag())


class TestDedekindRecip:
    def test_small_sweep(self):
        from math import gcd
        for k in range(1, 15):
            for h in range(1, 15):
                if gcd(h, k) == 1:
                    r = verify_dedekind_recip(h, k)
                    assert r.details["exact_zero"]
                    assert r.residual.val == 0
