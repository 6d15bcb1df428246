import math

import numpy as np
import pytest

from substochastic import dyson
from substochastic.dyson import (
    DPState,
    _simpson_convolution,
    _simpson_weights,
    dp_B_integral,
    dp_convolution_residual,
    dp_laplace,
    dp_partial_sum,
    dp_term,
    dp_uniform_tail,
    dyadic_node,
)
from substochastic.l1 import PosSeq, mass
from substochastic.minimal import semigroup_V
from substochastic.models import (
    Kernel,
    ModelError,
    ModelSpec,
    RateFn,
    apply_J,
    apply_resolvent_A,
    apply_U,
)

e0 = PosSeq.basis(0)
EXP1 = math.exp(-1.0)
EXP2 = math.exp(-2.0)


class TestDpTerm:
    def test_order_zero_is_exact_decay(self, m_two_state):
        out = dp_term(m_two_state, 0, 0.8, e0)
        ref = apply_U(m_two_state, 0.8, e0)
        assert out.value.entries == ref.entries and out.error == 0.0

    def test_two_state_first_order_convolution(self, m_two_state):
        out = dp_term(m_two_state, 1, 1.0, e0)
        assert set(out.value.entries) == {1}
        assert out.value.get(1) == pytest.approx(EXP1 - EXP2, abs=5e-10)
        assert abs(out.value.get(1) - (EXP1 - EXP2)) <= out.error + 1e-12

    def test_nilpotent_kernel_vanishes(self, m_two_state):
        assert dp_term(m_two_state, 2, 1.0, e0).value.is_zero

    def test_sampling_stops_at_an_exact_zero(self, m_two_state, monkeypatch):
        # B^2 = 0 on two_state: from e0 the second term is exactly 0, and no
        # convolution is spent on any term after it
        calls = {"conv": 0, "level": 0}
        conv, sample = dyson._simpson_convolution, DPState._sample_level

        def counted_conv(*args):
            calls["conv"] += 1
            return conv(*args)

        def counted_level(self, *args):
            calls["level"] += 1
            return sample(self, *args)

        monkeypatch.setattr(dyson, "_simpson_convolution", counted_conv)
        monkeypatch.setattr(DPState, "_sample_level", counted_level)
        st = DPState(m_two_state, e0, 2.0, 16)
        assert calls["level"] >= 2 and calls["conv"] == 2 * calls["level"]
        assert st.terms[1].any() and not any(st.terms[n].any() for n in range(2, 17))


def _direct_convolution(g, decay, h):
    f = np.zeros_like(g)
    for j in range(1, g.shape[0]):
        f[j] = np.einsum("i,ik,ik->k", _simpson_weights(j, h), g[: j + 1], decay[j::-1])
    return f


class TestSimpsonConvolution:
    @pytest.mark.parametrize("M", [1, 2, 4, 32, 1024])
    @pytest.mark.parametrize("W", [1, 5, 41])
    @pytest.mark.parametrize("stiff", [False, True])
    def test_running_sums_match_direct_weights(self, M, W, stiff):
        rng = np.random.default_rng(1000 * M + 10 * W + stiff)
        t = 2.0
        h = t / M
        a = rng.uniform(0.0, 5.0, W)
        if stiff:
            a[::2] = 1e6 * M  # a*h far past exp underflow
        decay = np.exp(-np.outer(np.linspace(0.0, t, M + 1), a))
        if stiff:
            assert decay[1, 0] == 0.0
        g = rng.uniform(0.0, 1.0, (M + 1, W))
        f = _simpson_convolution(g, decay, h)
        ref = _direct_convolution(g, decay, h)
        assert np.all(f >= 0.0)
        assert np.all(f[0] == 0.0)
        np.testing.assert_allclose(f[1:], ref[1:], rtol=1e-13, atol=0.0)


class TestPartialSums:
    def test_order_zero(self, m_yule):
        out = dp_partial_sum(m_yule, 0, 1.0, e0)
        assert out.value.get(0) == pytest.approx(EXP1, rel=1e-14)

    def test_two_state_terminates_at_one(self, m_two_state):
        out = dp_partial_sum(m_two_state, 3, 1.0, e0)
        v, br, _ = semigroup_V(m_two_state, 1.0, e0)
        assert out.mass == pytest.approx(br.mid, abs=1e-9)

    def test_quadratic_gap_is_explosion_in_progress(self, m_quadratic):
        out = dp_partial_sum(m_quadratic, 10, 1.0, e0)
        _, br, _ = semigroup_V(m_quadratic, 1.0, e0)
        assert out.mass < br.hi - 1e-3  # strict gap: the series lags the semigroup

    def test_domination_and_mass_bound(self, m_two_state, m_yule):
        for m, t in ((m_two_state, 1.0), (m_yule, 0.7)):
            v, br, _ = semigroup_V(m, t, e0)
            running = 0.0
            prev_mass = -1.0
            for K in range(4):
                ps = dp_partial_sum(m, K, t, e0)
                for k, val in ps.value.entries.items():
                    assert val <= v.get(k) + br.width + ps.error + 1e-9
                assert ps.mass >= prev_mass - 1e-12  # increases toward |V(t)u|
                prev_mass = ps.mass
                term = dp_term(m, K, t, e0)
                running += term.mass
                assert running <= 1.0 + term.error + 1e-9


class TestConvolutionLaw:
    def test_order_zero_exact(self, m_two_state):
        assert dp_convolution_residual(m_two_state, 0, 0.6, 0.4, e0) == 0.0

    def test_two_state_first_order(self, m_two_state):
        assert dp_convolution_residual(m_two_state, 1, 0.5, 0.5, e0) <= 1e-8

    def test_s_zero_vanishes(self, m_two_state):
        assert dp_convolution_residual(m_two_state, 1, 0.8, 0.0, e0) <= 1e-10

    def test_yule_low_orders(self, m_yule):
        for n in (1, 2):
            assert dp_convolution_residual(m_yule, n, 0.5, 0.5, e0) <= 1e-8

    def test_rejects_large_n(self, m_two_state):
        with pytest.raises(ValueError):
            dp_convolution_residual(m_two_state, 5, 0.5, 0.5, e0)


class TestBIntegral:
    def test_zero_kernel(self, m_pure_loss):
        assert dp_B_integral(m_pure_loss, 0, 1.0, e0).value.is_zero

    def test_two_state_order_zero(self, m_two_state):
        out = dp_B_integral(m_two_state, 0, 1.0, e0)
        assert set(out.value.entries) == {1}
        assert out.value.get(1) == pytest.approx(1.0 - EXP1, abs=1e-9)

    def test_norms_decrease_towards_mass_defect(self, m_two_state):
        norms = [dp_B_integral(m_two_state, n, 1.0, e0).mass for n in range(3)]
        assert norms[0] > norms[1] >= norms[2] == 0.0

    def test_limit_is_mass_loss_defect(self, m_quadratic):
        # |B int_0^t V_n u| decreases to -Delta_u(t) = |u| - |V(t)u| on a
        # conservative explosive model; check the sandwich at moderate n
        from substochastic.minimal import semigroup_V

        _, br, _ = semigroup_V(m_quadratic, 1.0, e0)
        defect = 1.0 - br.mid
        terms = [dp_B_integral(m_quadratic, n, 1.0, e0) for n in range(0, 13, 4)]
        masses = [t.mass for t in terms]
        assert all(b <= a + 1e-9 for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= defect - terms[-1].error - 2e-3
        assert masses[-1] <= defect + 0.08  # slow tail: explosion in progress


class TestLaplace:
    def test_order_zero_is_resolvent(self, m_two_state):
        out = dp_laplace(m_two_state, 0, 1.0, e0)
        ref = apply_resolvent_A(m_two_state, 1.0, e0)
        assert out.value.get(0) == pytest.approx(ref.get(0), abs=1e-7)

    def test_two_state_first_order(self, m_two_state):
        out = dp_laplace(m_two_state, 1, 1.0, e0)
        assert out.value.get(1) == pytest.approx(1.0 / 6.0, abs=1e-7)

    def test_zero_kernel_higher_orders(self, m_pure_loss):
        assert dp_laplace(m_pure_loss, 1, 1.0, e0).value.is_zero
        assert dp_laplace(m_pure_loss, 3, 2.0, e0).value.is_zero

    @pytest.mark.parametrize("n", range(6))
    def test_identity_with_resolvent_iterates(self, m_two_state, n):
        lam = 1.0
        out = dp_laplace(m_two_state, n, lam, e0)
        w = e0
        for _ in range(n):
            w = apply_J(m_two_state, lam, w)
        ref = apply_resolvent_A(m_two_state, lam, w)
        resid = sum(
            abs(out.value.get(k) - ref.get(k)) for k in set(out.value.entries) | set(ref.entries)
        )
        assert resid <= max(out.error * 2.0, 1e-6)


class TestUniformTail:
    def test_zero_kernel_all_zero(self, m_pure_loss):
        rep = dp_uniform_tail(m_pure_loss, 3, 1.0, 2.0, e0)
        assert rep.computed == (0.0, 0.0, 0.0, 0.0)
        assert rep.all_within

    def test_two_state_bound_honored(self, m_two_state):
        rep = dp_uniform_tail(m_two_state, 4, 1.0, 2.0, e0)
        assert rep.all_within
        # order zero tail is the exact closed form int_2^inf e^{-2s} ds
        assert rep.computed[0] == pytest.approx(0.5 * math.exp(-4.0), abs=1e-6)

    def test_quadratic_bound(self, m_quadratic):
        rep = dp_uniform_tail(m_quadratic, 3, 1.0, 5.0, e0)
        assert rep.all_within
        assert rep.bound <= math.exp(-5.0) + 1.0 / 6.0  # e^-5 |u| + exact first tail


class TestGridNodes:
    def test_dyadic_node(self):
        assert dyadic_node(2.0, 2.0) == 32 and dyadic_node(0.0, 2.0) == 0
        assert dyadic_node(0.25, 2.0) == 4 and dyadic_node(1.0, 1.0) == 32
        for s, t in ((0.1, 1.0), (0.3, 1.0), (2.5, 2.0), (-0.25, 2.0), (1.0 / 64, 1.0)):
            assert dyadic_node(s, t) is None

    @pytest.mark.parametrize("node", [0.1, 1.0 / 64, 2.5, -0.25])
    def test_off_grid_node_rejected(self, m_bd_kill, node):
        with pytest.raises(ValueError):
            DPState(m_bd_kill, e0, 2.0, 2, (0.5, node))

    def test_one_node_state_is_the_plain_state(self, m_bd_kill):
        plain = DPState(m_bd_kill, e0, 1.5, 4)
        served = DPState(m_bd_kill, e0, 1.5, 4, (1.5,))
        assert plain.level == served.level and plain.errors == served.errors
        for n in range(5):
            assert np.array_equal(plain.terms[n], served.terms[n])
            for lam in (0.0, 0.7):
                a, b = plain.integral(n, lam), served.integral(n, lam)
                assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    @pytest.mark.parametrize("name", ["m_bd_kill", "m_two_state", "m_closed_chain"])
    def test_nodes_match_their_own_states(self, name, request):
        # each served node reads what a state built at that time reads, within
        # both quadrature error estimates
        m = request.getfixturevalue(name)
        grid = DPState(m, e0, 2.0, 6, (0.25, 0.5, 1.25))
        with pytest.raises(ValueError):
            grid.integral(0, s=0.75)  # a node of the grid, but not served
        for s in (0.25, 0.5, 1.25, 2.0):
            own = DPState(m, e0, s, 6)
            assert (own.lo, own.hi) == (grid.lo, grid.hi)
            assert set(grid.errors) == {0.25, 0.5, 1.25, 2.0}
            j = grid.nodes[s] << (grid.level - dyson._MIN_LEVEL)
            for n in range(7):
                (a, ea), (b, eb) = grid.integral(n, s=s), own.integral(n)
                assert np.abs(a - b).sum() <= ea + eb
                assert np.abs(grid.terms[n][j] - own.terms[n][-1]).sum() <= grid.errors[s][n] + own.errors[s][n] + 1e-15
                for ea_n in (grid.errors[s][n], grid.errors_int[s][n]):
                    assert ea_n <= dyson._QUAD_TOL


class TestDPStateWindow:
    def test_under_declared_stride_is_rejected(self):
        # state 3 feeds state 12, but the declared stride of 1 sizes the
        # window [1, 6) for n_max = 1, so the leak sits inside the margin
        kernel = Kernel("table", columns=((3, ((12, 0.5),)),))
        leaky = ModelSpec("leaky", RateFn.power(1.0, 0.0), kernel, conservative=False, stride=1)
        with pytest.raises(ModelError):
            DPState(leaky, PosSeq.basis(3), 1.0, 1)
        declared = ModelSpec("declared", RateFn.power(1.0, 0.0), kernel, conservative=False)
        st = DPState(declared, PosSeq.basis(3), 1.0, 1)
        assert not st.window.leak.any()
        assert st.term_at_t(1).value.get(12) > 0.0
