import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from substochastic.dyson import (
    DPState,
    dp_B_integral,
    dp_convolution_residual,
    dp_laplace,
    dp_partial_sum,
    dp_term,
    dp_uniform_tail,
)
from substochastic import minimal
from substochastic.honesty import ahat_dp, delta_by_routes
from substochastic.l1 import Bracket, PosSeq
from substochastic.minimal import _poisson_weights, semigroup_V
from substochastic.models import (
    _ULP,
    Kernel,
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

    def test_sampling_stops_at_an_exact_zero(self, m_two_state):
        # B^2 = 0 on two_state: from e0 the second term is exactly 0, and so
        # is every term after it
        st = DPState(m_two_state, e0, (2.0,), 16)
        rows, _ = st.term(2.0)
        assert rows[1].any() and not rows[2:].any()


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
    """Every time of a grid stops its weights at its own Poisson window, so
    its rows are what a state of its own reads, whatever the grid."""

    def test_one_node_state_is_the_plain_state(self, m_bd_kill):
        plain = DPState(m_bd_kill, e0, (1.5,), 4)
        served = DPState(m_bd_kill, e0, (0.4, 1.5), 4)
        assert plain.level == served.level and plain.errors[1.5] == served.errors[1.5]
        for read in ("term", "integral"):
            (a, ea), (b, eb) = getattr(plain, read)(1.5), getattr(served, read)(1.5)
            assert np.array_equal(a, b) and ea == eb

    @pytest.mark.parametrize("name", ["m_bd_kill", "m_two_state", "m_closed_chain"])
    def test_nodes_match_their_own_states(self, name, request):
        m = request.getfixturevalue(name)
        ts = (0.1, 0.25, 1.3, 2.0)  # dyadic or not
        grid = DPState(m, e0, ts, 6)
        assert grid.level == max(DPState(m, e0, (t,), 6).level for t in ts)
        for t in ts:
            own = DPState(m, e0, (t,), 6)
            assert (own.lo, own.hi) == (grid.lo, grid.hi)
            for read in ("term", "integral"):
                (a, ea), (b, eb) = getattr(grid, read)(t), getattr(own, read)(t)
                assert np.array_equal(a, b) and ea == eb


class TestTimeZero:
    def test_a_time_zero_grid_runs_no_step(self, m_bd_kill):
        # Poisson(0) sits on power 0: the rows are u and zeros, exact up to
        # the read's rounding pad, and the integral rows are 0
        st = DPState(m_bd_kill, e0, (0.0,), 3)
        assert st.level == 0
        rows, err = st.term(0.0)
        assert rows[0][-st.lo] == 1.0 and rows.sum() == 1.0
        assert 0.0 < err <= 16 * _ULP
        rows, err = st.integral(0.0)
        assert not rows.any() and err == 0.0


class TestDPStateWindow:
    def test_the_kernel_stride_window_holds_a_far_target(self):
        # state 3 feeds state 12: the stride of 9 is the kernel's, so the
        # window holds 12 and leaks nothing
        kernel = Kernel("table", columns=((3, ((12, 0.5),)),))
        m = ModelSpec("far", RateFn.power(1.0, 0.0), kernel, conservative=False)
        assert m.stride == kernel.stride == 9
        st = DPState(m, PosSeq.basis(3), (1.0,), 1)
        assert not st.window.leak.any()
        assert st.term(1.0)[0][1][12 - st.lo] > 0.0

    def test_the_stride_is_not_settable(self):
        assert [f.name for f in dataclasses.fields(ModelSpec)] == ["name", "a", "kernel", "conservative"]
        with pytest.raises(TypeError):
            ModelSpec("s", RateFn.power(1.0, 0.0), Kernel("zero"), conservative=True, stride=1)

    @pytest.mark.parametrize("k0", [0, 5])
    def test_no_tracked_term_reaches_the_window_edge(self, zoo, k0):
        # the window reaches n_max + 1 strides past u, and the n_max + 1
        # jumps that feed the terms up to n_max stay inside it: no state
        # that deep inside leaks, on any zoo model
        for m in zoo:
            st = DPState(m, PosSeq.basis(k0), (0.5,), 3)
            margin = 4 * m.stride
            assert not st.window.leak[margin : st.hi - st.lo - margin].any(), m.name

    def test_a_chain_past_the_largest_truncation_is_refused(self, m_bd_kill, monkeypatch):
        # e0 with n_max = 3 on a stride-1 walk: a window [0, 5), four rows
        assert DPState(m_bd_kill, e0, (0.5,), 3).window.hi == 5
        monkeypatch.setattr(minimal, "_N_MAX", 19)
        with pytest.raises(ValueError, match="counted chain of 20 states"):
            DPState(m_bd_kill, e0, (0.5,), 3)
        monkeypatch.setattr(minimal, "_N_MAX", 20)
        DPState(m_bd_kill, e0, (0.5,), 3)


class TestCountedRows:
    """The pass runs the counted chain, term n of a window state at n W plus
    the state: a word never crosses into another term's row but through B,
    and what the last row sends is dropped, so a state that tracks more
    terms reads the same low ones."""

    @pytest.mark.parametrize(
        "name, ts, lam",
        [
            ("m_bd_kill", (0.5, 2.0), 0.0),
            ("m_closed_chain", (0.5, 2.0), 0.0),
            ("m_two_state", (0.5, 2.0), 0.0),
            ("m_bd_kill", (math.inf, 1.0), 0.5),
        ],
    )
    def test_more_terms_leave_the_low_rows(self, name, ts, lam, request):
        m, K = request.getfixturevalue(name), 3
        few, more = DPState(m, e0, ts, K, lam), DPState(m, e0, ts, K + 3, lam)
        at = slice(few.lo - more.lo, few.hi - more.lo)  # few's window in more's
        for t in ts:
            for read in ("integral",) if lam else ("term", "integral"):
                (a, ea), (b, eb) = getattr(few, read)(t), getattr(more, read)(t)
                aligned = np.zeros((K + 1, more.hi - more.lo))
                aligned[:, at] = a
                assert b[K + 1 :].any() or name == "m_two_state"
                assert float(np.abs(aligned - b[: K + 1]).sum()) <= ea + eb

    @pytest.mark.parametrize("name", ["m_bd_kill", "m_closed_chain"])
    def test_rows_are_the_plain_recurrence(self, name, request):
        # w_{j+1,n} = D w_{j,n} + E w_{j,n-1} one term row at a time, B by
        # the window's bands, each weighted sum by math.fsum: the pass
        # differs by rounding order alone, inside its pad
        m, t, K = request.getfixturevalue(name), 1.3, 4
        st = DPState(m, e0, (t,), K)
        win, c = st.window, st.c
        w = np.zeros((K + 1, st.hi - st.lo))
        w[0, -st.lo] = 1.0  # e0
        words = [w]
        for _ in range(st.level):
            w = (1.0 - win.a / c) * w
            w[1:] += win.apply_B(words[-1][:-1]) / c
            words.append(w)
        pmf, _, _ = _poisson_weights(c * t, st.level)
        cells = np.ndindex(w.shape)
        ref = np.array([math.fsum(p * x[cell] for p, x in zip(pmf, words)) for cell in cells]).reshape(w.shape)
        pad = (st.level * (len(win.bands) + 8) + 16) * _ULP
        assert float(np.abs(st.term(t)[0] - ref).sum()) <= pad

    def test_a_long_grid_holds_its_sums_and_one_block(self, m_bd_kill):
        # 1,000 times share one pass of 110 steps; past the 2 T (n_max + 1) W
        # sums it reads, it holds one block of words and the weights
        ts = tuple(np.linspace(0.01, 10.0, 1000).tolist())
        tracemalloc.start()
        try:
            st = DPState(m_bd_kill, e0, ts, 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sums = 2 * len(ts) * (st.n_max + 1) * (st.hi - st.lo) * 8
        assert st.hi - st.lo == 50
        assert peak <= 1.5 * sums


def _loss(a):
    """One state lost at rate a: ahat(t) = 1 - e^{-at}."""
    return ModelSpec.table(a_values=(a,), columns={0: []}, tail_c=1.0, tail_p=0.0, name="loss")


class TestCountedTerms:
    @pytest.mark.parametrize("a, ts", [(243.0, (0.5, 2.8)), (243.0, (2.9,)), (1.0, (0.3, 700.0))])
    def test_loss_brackets_hold_the_closed_form(self, a, ts):
        # stiff rates: every certified edge holds 1 - e^{-at} < 1, and the
        # integral row holds (1 - e^{-at})/a within its error
        m = _loss(a)
        st = DPState(m, e0, ts, 0)
        for t in ts:
            exact = -math.expm1(-a * t)
            r = ahat_dp(m, t, e0, a0=Bracket(0.0, 1.0), st=st)
            assert r.bracket.lo <= exact <= r.bracket.hi and r.bracket.hi <= 1.0
            rows, err = st.integral(t)
            assert abs(rows[0][0] - exact / a) <= err

    def test_a_window_past_the_step_budget_reads_the_trivial_bound(self, m_pure_loss):
        # c t = 1e7 steps exceeds minimal._STEP_BUDGET: that time reads 0
        # with error t|u|, and the pass runs only the other time's steps
        st = DPState(m_pure_loss, e0, (1e7, 1.0), 0)
        assert st.level < 100
        rows, err = st.integral(1e7)
        assert not rows.any() and err >= 1e7
        r = ahat_dp(m_pure_loss, 1e7, e0, a0=Bracket(0.0, 1.0), st=st)
        assert (r.bracket.lo, r.bracket.hi) == (0.0, 1.0)

    def test_a_patched_step_budget_holds(self, m_bd_kill, monkeypatch):
        # the pass reads minimal._STEP_BUDGET when it runs: 10 steps fit no
        # window at t = 2, which reads 0 with the trivial errors |u| and t|u|
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 10)
        st = DPState(m_bd_kill, e0, (2.0,), 3)
        assert st.level == 0 and st.errors[2.0] == (1.0, 2.0)
        rows, err = st.integral(2.0)
        assert not rows.any() and err == 2.0

    def test_rejects_bad_times(self, m_two_state):
        for ts, lam in (((-1.0,), 0.0), ((math.inf,), 0.0), ((1.0,), -1.0)):
            with pytest.raises(ValueError):
                DPState(m_two_state, e0, ts, 2, lam)


def _random_table(draw):
    """A finite table of 2-6 states with log-uniform rates in [1e-2, 5e2];
    each state sends up to three shares of its rate to other states and
    kills the rest."""
    n = draw(st.integers(2, 6))
    a = [10.0 ** draw(st.floats(-2.0, math.log10(500.0))) for _ in range(n)]
    columns = {}
    for k in range(n):
        targets = draw(st.lists(st.integers(0, n - 1).filter(lambda j, k=k: j != k), max_size=3, unique=True))
        shares = [draw(st.floats(0.05, 1.0)) for _ in targets]
        scale = draw(st.floats(0.3, 1.0)) / max(sum(shares), 1.0)
        columns[k] = [(j, a[k] * s * scale) for j, s in zip(targets, shares)]
    return ModelSpec.table(a_values=a, columns=columns, tail_c=1.0, tail_p=0.0, name="random")


def _generator(m, n):
    q = -np.diag(m.a.array(0, n))
    for k, col in m.kernel.columns:
        for j, r in col:
            q[j, k] += r
    return q


@st.composite
def _tables(draw):
    m = _random_table(draw)
    n = len(m.a.values)
    # off the dyadic grid: a 3-digit time
    return m, n, draw(st.integers(0, n - 1)), draw(st.integers(1, 2500)) / 1000.0 + 0.0007


class TestRandomTables:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_tables())
    def test_ahat_bracket_holds_expm(self, case):
        # a finite chain is honest, so ahat(t) = 1 - |e^{tQ}u|; a0 = [0, 1]
        # leaves the bracket to the counted terms alone (expm's own
        # rounding gets 1e-12)
        m, n, k, t = case
        u = PosSeq.basis(k)
        exact = 1.0 - float(expm(t * _generator(m, n))[:, k].sum())
        r = ahat_dp(m, t, u, a0=Bracket(0.0, 1.0))
        assert r.bracket.lo - 1e-12 <= exact <= r.bracket.hi + 1e-12
        assert r.bracket.width <= 1e-7

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_tables(), st.floats(0.5, 2.0))
    def test_resolvent_route_holds_expm(self, case, lam):
        # a finite chain is honest, so the resolvent route's abar of the
        # trajectory integral is 1 - |e^{tQ}u| (expm's own rounding gets
        # 1e-12), and its Delta bracket meets the expansion route's
        m, n, k, t = case
        ts = (0.0, t / 3.0, t)
        for s, (res, dp) in zip(ts, delta_by_routes(m, ts, PosSeq.basis(k), lam)):
            exact = 1.0 - float(expm(s * _generator(m, n))[:, k].sum())
            assert res.functional.lo - 1e-12 <= exact <= res.functional.hi + 1e-12
            assert res.bracket.overlaps(dp.bracket)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_tables(), st.integers(0, 3))
    def test_laplace_terms_hold_the_resolvent_iterates(self, case, n):
        # int_0^inf e^{-lam s} V_n(s)u ds = (lam-A)^{-1} J^n u, at lam = max a
        m, _, k, _ = case
        lam = max(m.a.values)
        u = PosSeq.basis(k)
        out = dp_laplace(m, n, lam, u)
        w = u
        for _ in range(n):
            w = apply_J(m, lam, w)
        ref = apply_resolvent_A(m, lam, w)
        keys = set(out.value.entries) | set(ref.entries)
        resid = math.fsum(abs(out.value.get(j) - ref.get(j)) for j in keys)
        assert resid <= out.error + 1e-15 * ref.head_sum()
