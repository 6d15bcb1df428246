import math
import tracemalloc
import warnings

import numpy as np
import pytest

from substochastic import minimal
from substochastic.l1 import PosSeq, mass
from substochastic.minimal import (
    evolve,
    integrate_V,
    resolvent_G,
    semigroup_V,
)
from substochastic.models import _ULP, Kernel, ModelSpec, OperatorWindow, RateFn, apply_J, apply_resolvent_A, model_from_json

e0 = PosSeq.basis(0)

# a table column that feeds 2^21 - 1, the largest state a model file may
# name, from state 0
FAR_OK = {
    "name": "far_ok",
    "space": "l1",
    "A": {"kind": "power", "c": 1.0, "p": 0.0},
    "B": {"kind": "table", "columns": [[0, [[(1 << 21) - 1, 0.5]]]], "tail": None},
    "conservative": False,
}

EXP1 = math.exp(-1.0)
EXP2 = math.exp(-2.0)


def random_closed_model(rng: np.random.Generator, n_max: int = 32):
    """Dissipative kernel confined to [0, n): every reachable column stays
    inside, so the generator is literally a finite matrix."""
    n = int(rng.integers(2, n_max + 1))
    a = 0.5 + 2.5 * rng.random(n)
    cols = {}
    for k in range(n):
        n_t = int(rng.integers(0, 3))
        targets = rng.choice(n, size=n_t, replace=False) if n_t else []
        raw = rng.random(n_t)
        scale = 0.9 * a[k] / max(raw.sum(), 1.0)
        cols[k] = [(int(j), float(r * scale)) for j, r in zip(targets, raw) if j != k]
    return ModelSpec.table(tuple(a), cols, tail_c=1.0, tail_p=0.0, name=f"rand{n}")


def dense_generator(m: ModelSpec, n: int) -> np.ndarray:
    q = np.diag([-m.a(k) for k in range(n)]).astype(float)
    for k in range(n):
        for j, r in m.column(k):
            if j < n:
                q[j, k] += r
    return q


class TestResolventG:
    def test_zero_kernel_truncates(self, m_pure_loss):
        res = resolvent_G(m_pure_loss, 1.0, e0, tol=1e-12)
        assert res.terms_used == 1 and res.defect == 0.0
        assert res.value.entries == {0: 0.5}

    def test_two_state_matches_dense_inverse(self, m_two_state):
        res = resolvent_G(m_two_state, 1.0, e0, tol=1e-12)
        q = dense_generator(m_two_state, 2)
        ref = np.linalg.solve(np.eye(2) - q, [1.0, 0.0])
        assert res.value.get(0) == pytest.approx(ref[0], rel=1e-12)
        assert res.value.get(1) == pytest.approx(ref[1], rel=1e-12)
        assert res.converged

    def test_yule_partial_sums_fill_unit_mass(self, m_yule, monkeypatch):
        # coordinates 1/((n+1)(n+2)) telescope to total mass 1
        monkeypatch.setattr(minimal, "_SERIES_MAX_TERMS", 20_000)
        res = resolvent_G(m_yule, 1.0, e0, tol=1e-4)
        for n in (0, 1, 5):
            assert res.value.get(n) == pytest.approx(1.0 / ((n + 1) * (n + 2)), rel=1e-12)
        assert res.mass_bracket.contains(1.0)
        assert res.defect <= 1.1e-4

    def test_lambda_mass_chain_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_closed_model(rng, 12)
            lam = float(0.25 + 2.0 * rng.random())
            res = resolvent_G(m, lam, e0, tol=1e-10)
            assert lam * (res.value.head_sum() + res.defect) <= 1.0 + 1e-9

    def test_flushed_mass_counts_in_the_defect(self):
        # 1e-299/21 at state 0 and its image 1e-299/21 at state 1 both fall
        # below PosSeq's flush threshold; the exact mass is 1e-299/21 * 1.5
        m = ModelSpec.table([20.0, 1.0], {0: [(1, 1.0)]})
        res = resolvent_G(m, 1.0, PosSeq({0: 1e-299}))
        assert res.mass_bracket.contains(1e-299 / 21.0 * 1.5)
        assert res.mass_bracket.hi <= 1e-299

    def test_dishonest_defect_reported_not_hidden(self, m_quadratic, monkeypatch):
        monkeypatch.setattr(minimal, "_SERIES_MAX_TERMS", 200)
        res = resolvent_G(m_quadratic, 1.0, e0, tol=1e-9)
        assert not res.converged
        assert res.defect > 0.25  # the honesty defect over lambda stalls here


class TestResolventGr:
    """resolvent_G with Kato's weight r: the resolvent of A + r*B."""

    def test_r_zero_is_plain_resolvent(self, m_two_state):
        res = resolvent_G(m_two_state, 1.0, e0, tol=1e-12, r=0.0)
        assert res.value.entries == {0: 0.5}

    def test_zero_kernel_any_r(self, m_pure_loss):
        res = resolvent_G(m_pure_loss, 1.0, e0, tol=1e-12, r=0.5)
        assert res.value.entries == {0: 0.5}
        assert res.converged

    def test_geometric_tail_certified_and_monotone_in_r(self, m_quadratic):
        tol = 1e-10
        r_lo = resolvent_G(m_quadratic, 1.0, e0, tol=tol, r=0.5)
        r_hi = resolvent_G(m_quadratic, 1.0, e0, tol=tol, r=0.9)
        assert r_lo.converged and r_hi.converged
        assert r_lo.defect <= tol and r_hi.defect <= tol
        for k in r_lo.value.entries:
            assert r_hi.value.get(k) >= r_lo.value.get(k) - 1e-12
        assert r_hi.value.head_sum() >= r_lo.value.head_sum()

    @pytest.mark.parametrize("r", [1.5, -0.1])
    def test_rejects_r_outside_unit_interval(self, m_yule, r):
        with pytest.raises(ValueError):
            resolvent_G(m_yule, 1.0, e0, r=r)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 1.0])
    def test_certificate_against_dense_solve(self, r):
        # tol 1e-4 stops the series early, so the defect has to carry the tail
        rng = np.random.default_rng(int(10 * r) + 11)
        for _ in range(10):
            m = random_closed_model(rng, 12)
            n = len(m.a.values)
            lam = float(0.25 + 2.0 * rng.random())
            u = PosSeq({k: float(v) for k, v in enumerate(rng.random(n))})
            res = resolvent_G(m, lam, u, tol=1e-4, r=r)
            q = dense_generator(m, n)
            a = -np.diag(np.diag(q))
            gen = -a + r * (q + a)
            exact = np.linalg.solve(lam * np.eye(n) - gen, [u.get(k) for k in range(n)])
            got = np.array([res.value.get(k) for k in range(n)])
            assert np.all(exact >= got * (1.0 - 1e-12))
            lo = res.value.head_sum()
            assert lo * (1.0 - 1e-12) <= exact.sum() <= (lo + res.defect) * (1.0 + 1e-12)
            assert lam * (lo + res.defect) <= u.head_sum() * (1.0 + 1e-12)


def _block_models():
    rng = np.random.default_rng(17)
    tables = [random_closed_model(rng, 12) for _ in range(3)]
    # state 4 takes three addends (from 2, 3 and 5); a row from 2 alone has a
    # window from 2, whose bands come in another order than the block's from 0
    fed = {0: [(3, 0.5)], 1: [(0, 0.5)], 2: [(4, 0.7), (5, 0.2)], 3: [(4, 0.6)], 4: [(2, 0.3), (3, 0.4)], 5: [(4, 0.9)]}
    tables.append(ModelSpec.table((1.1, 1.3, 1.7, 1.9, 2.3, 2.9), fed, name="three_addends"))
    walks = [ModelSpec.birth_death(1.0, 1.0, kill=0.5, name="bd_kill"), ModelSpec.pure_birth(RateFn.power(1.0, 1.0))]
    return tables + walks


class TestSeriesBlock:
    """The block series against the dict primitives apply_J and
    apply_resolvent_A, which it never calls (the oracle stays independent)."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-12])
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
    def test_rows_are_their_own_runs_and_hold_the_dict_series(self, r, tol, monkeypatch):
        # the cap stops yule's rows at r = 1, tol = 1e-12, past their first window
        monkeypatch.setattr(minimal, "_SERIES_MAX_TERMS", 300)
        rng = np.random.default_rng(int(10 * r) + 3)
        for m in _block_models():
            lam = float(0.5 + 1.5 * rng.random())
            spread = {k: float(v) for k, v in enumerate(rng.random(4))}
            inputs = [{0: 1.0}, spread, {1: 1e-6}, {}, {2: 0.5, 3: 0.25}]
            block = minimal._series_block(m, lam, inputs, tol, r)
            for u, (acc, first, rem, terms, err) in zip(inputs, block):
                (acc1, first1, rem1, terms1, err1) = minimal._series_block(m, lam, [u], tol, r)[0]
                # bit for bit: the same terms, remainder, error and entries
                assert (rem, terms, err) == (rem1, terms1, err1)
                assert PosSeq.from_array(acc, first).entries == PosSeq.from_array(acc1, first1).entries
                # the first K terms of sum_n r^n (lam - A)^{-1} J^n u by the dict primitives
                w, want = PosSeq(u), {}
                for n in range(terms):
                    for k, v in apply_resolvent_A(m, lam, w).entries.items():
                        want[k] = want.get(k, 0.0) + r**n * v
                    w = apply_J(m, lam, w)
                got = PosSeq.from_array(acc, first)
                for k in set(want) | set(got.entries):
                    assert abs(got.get(k) - want.get(k, 0.0)) <= 2.0 * err * want.get(k, 0.0) + 1e-300 * terms
                assert rem >= r**terms * w.head_sum() / lam * (1.0 - 1e-13)
                if u and r == 0.0:
                    assert terms == 1 and rem <= 1e-20  # r^1 = 0, up to the underflow allowance
            live = [terms for u, (_, _, _, terms, _) in zip(inputs, block) if u]
            if r > 0.0 and min(live) < 300:
                assert len(set(live)) > 1  # the rows stop at terms of their own
            if m.name == "pure_birth" and r == 1.0:
                # each iterate is one state a step further up: the row from e0
                # left its first window, the inputs and _SERIES_SLACK more
                acc, first, _, terms, _ = block[0]
                assert terms > 4 + minimal._SERIES_SLACK and PosSeq.from_array(acc, first).support[-1] == terms - 1

    def test_a_block_of_empty_inputs_counts_one_term_each(self, m_bd_kill):
        rows = minimal._series_block(m_bd_kill, 1.0, [{}, {}], 1e-8)
        assert all(acc.size == 0 and rem == 0.0 and k == 1 for acc, _, rem, k, _ in rows)


class TestSlidingWindow:
    """A cascade's iterate is one state moving a state up a term: its series
    window slides with it, a few states wide, however long the series."""

    @staticmethod
    def _widths(monkeypatch) -> list[int]:
        widths = []

        class Recording(OperatorWindow):
            def __init__(self, m, lo, hi):
                widths.append(hi - lo)
                super().__init__(m, lo, hi)

        monkeypatch.setattr(minimal, "OperatorWindow", Recording)
        return widths

    def test_a_dishonest_cascade_of_50000_terms(self, monkeypatch):
        from substochastic.honesty import abar_resolvent

        m = ModelSpec(
            "head_deficit",
            RateFn.table([3.0], tail_c=1.0, tail_p=2.0),
            Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)),
            conservative=False,
        )
        widths = self._widths(monkeypatch)
        r = abar_resolvent(m, 1.0, e0)
        assert r.terms_used == minimal._SERIES_MAX_TERMS
        assert max(widths) <= 2 + minimal._SERIES_SLACK
        assert len(widths) >= minimal._SERIES_MAX_TERMS // (1 + minimal._SERIES_SLACK)

    def test_yule_to_20000_terms(self, m_yule, monkeypatch):
        monkeypatch.setattr(minimal, "_SERIES_MAX_TERMS", 20_000)
        widths = self._widths(monkeypatch)
        res = resolvent_G(m_yule, 1.0, e0, tol=1e-4)
        assert res.terms_used > 9_000 and res.value.support == tuple(range(res.terms_used))
        assert max(widths) <= 2 + minimal._SERIES_SLACK


class TestFiniteDimensionalExactness:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            m = random_closed_model(rng)
            n = len(m.a.values)
            lam = 1.0
            res = resolvent_G(m, lam, e0, tol=1e-13)
            ref = np.linalg.solve(lam * np.eye(n) - dense_generator(m, n), np.eye(n)[0])
            got = np.array([res.value.get(k) for k in range(n)])
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-13)


class TestSemigroupV:
    def test_t_zero_identity(self, m_quadratic):
        v, br, _ = semigroup_V(m_quadratic, 0.0, e0)
        assert v is e0 and br.lo == br.hi == 1.0

    def test_two_state_closed_form(self, m_two_state):
        v, br, res = semigroup_V(m_two_state, 1.0, e0)
        assert not res.flagged and br.width <= 1e-12
        assert v.get(0) == pytest.approx(EXP1, abs=1e-13)
        assert v.get(1) == pytest.approx(EXP1 - EXP2, abs=1e-13)
        assert br.contains(EXP1 + EXP1 - EXP2)

    def test_quadratic_mass_matches_theta_series(self, m_quadratic):
        # |V(t)e0| = P(T > t) for the explosion time T = sum_n E_n/n^2,
        # whose law is the theta series 2 sum_{n>=1} (-1)^{n+1} e^{-n^2 t}
        exact = 2.0 * math.fsum((-1) ** (n + 1) * math.exp(-n * n) for n in range(1, 30))
        assert exact == pytest.approx(0.69937420, abs=1e-8)
        _, br, _ = semigroup_V(m_quadratic, 1.0, e0)
        assert br.contains(exact)

    def test_yule_mass_preserved(self, m_yule):
        v, br, res = semigroup_V(m_yule, 1.0, e0)
        assert br.contains(1.0)
        assert br.lo >= 1.0 - 1e-7
        # per-state law of the linear cascade: geometric with p = e^-t
        p = math.exp(-1.0)
        for k in range(4):
            assert v.get(k) == pytest.approx(p * (1 - p) ** k, rel=1e-6)

    def test_substochastic(self, zoo, monkeypatch):
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 600_000)
        u = PosSeq({0: 0.5, 1: 0.5})
        for m in zoo:
            v, br, _ = semigroup_V(m, 0.7, u)
            assert br.hi <= mass(u).hi + 1e-12

    def test_monotone_ladder(self, m_quadratic):
        # V_N(t)u grows with N; evolve runs one level on this cascade, so
        # each truncation's pass is called directly
        values = []
        for n in (64, 128, 256, 512, 1024):
            win, c = OperatorWindow(m_quadratic, 0, n), minimal._poisson_window(m_quadratic, n, 0.0)[0]
            (v_arr,), *_ = minimal._uniformized((win.a, win.shifts()), c, 0.0, e0.entries, (1.0,), False)
            values.append(PosSeq.from_array(v_arr))
        masses = [v.head_sum() for v in values]
        assert masses[-1] > masses[0]
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
        # entrywise monotone up to the rounding wobble of ~1e6-step sums, up
        # to N = 512; at N = 1024 the Poisson weights share a certified
        # relative scale error of 6e-9 (inside the pass's value error), which the
        # converged low entries show
        for lo_v, hi_v in zip(values[:4], values[1:4]):
            for k, val in lo_v.entries.items():
                assert hi_v.get(k) >= val - 1e-10

    def test_semigroup_law_within_brackets(self, m_two_state, m_closed_chain):
        for m in (m_two_state, m_closed_chain):
            v_s, _, _ = semigroup_V(m, 0.4, e0)
            v_ts, br_ts, _ = semigroup_V(m, 1.0, e0)
            v_comp, br_comp, _ = semigroup_V(m, 0.6, v_s)
            assert abs(br_comp.mid - br_ts.mid) <= br_comp.width + br_ts.width + 1e-10
            for k in set(v_ts.entries) | set(v_comp.entries):
                assert v_comp.get(k) == pytest.approx(v_ts.get(k), rel=1e-8, abs=1e-10)

    def test_budget_flagging(self, m_quadratic, monkeypatch):
        # N = 128 needs 17,576 steps at t = 1 (and its inner level 3,360 more)
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 10_000)
        _, br, res = semigroup_V(m_quadratic, 1.0, e0)
        assert res.flagged and res.flag_reason
        assert br.width > 0

    def test_budget_binds_the_first_level(self, m_quadratic, monkeypatch):
        # the first truncation from e_200 alone needs ~2.7e5 Poisson steps
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 10_000)
        res = evolve(m_quadratic, 1.0, PosSeq.basis(200))
        assert res.steps_used <= 10_000
        assert res.flagged and res.flag_reason == "step budget reached"
        assert (res.mass_bracket.lo, res.mass_bracket.hi) == (0.0, 1.0)
        assert (res.integral_bracket.lo, res.integral_bracket.hi) == (0.0, 1.0)
        assert res.value.is_zero

    def test_explosive_walk_keeps_the_trivial_upper_edge(self, monkeypatch):
        # b = 2(k+1)^2, d = (k+1)^2 explodes without being pure birth: the
        # reach bound stays near 1 at every truncation, so the certified
        # upper edge is |u|, flagged, and the lower edge is the truncated mass
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 100_000)
        m = ModelSpec.birth_death(RateFn.power(2.0, 2.0), RateFn.power(1.0, 2.0), name="explosive_walk")
        res = evolve(m, 1.0, e0, want_integral=False)
        assert res.flagged and res.flag_reason == "step budget reached"
        assert res.mass_bracket.hi == 1.0
        assert res.mass_bracket.lo == pytest.approx(res.value.head_sum(), abs=1e-9)

    def test_start_below_the_largest_truncation(self, m_two_state):
        # from e_{2^19}, which decays at rate 1, the first truncation certifies
        # the mass; a start at 2^20 has no truncation left to hold it
        res = evolve(m_two_state, 0.5, PosSeq.basis(1 << 19), want_integral=False)
        assert res.mass_bracket.lo == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert res.mass_bracket.hi == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert not res.flagged and res.mass_bracket.width <= 1e-12
        with pytest.raises(ValueError, match="largest truncation"):
            evolve(m_two_state, 0.5, PosSeq.basis(1 << 20))

    def test_work_budget_flags_a_large_start(self, m_quadratic):
        # from e_500000 the first truncation is 2^20 states with 112,976
        # steps, about 1.2e11 state-steps: flagged before any reach bound
        res = evolve(m_quadratic, 1e-7, PosSeq.basis(500_000))
        assert res.flagged and res.flag_reason == "work budget reached"
        assert res.n_used == 0 and res.value.is_zero
        assert (res.mass_bracket.lo, res.mass_bracket.hi) == (0.0, 1.0)

    def test_work_budget_caps_a_long_pass(self, m_bd_conservative, monkeypatch):
        # the upward walk at t = 1e5 is certified only at N = 262,144 with
        # 254,540 steps; the largest level inside the budget is N = 8192
        n, _, reason = minimal._truncation(m_bd_conservative, 1e5, 0, 1e-8, False)
        assert (n, reason) == (8192, "work budget reached")
        assert n * minimal._poisson_window(m_bd_conservative, n, 1e5)[1] <= minimal._WORK_BUDGET
        # the flagged pass keeps a certified bracket; a smaller budget keeps it short
        monkeypatch.setattr(minimal, "_WORK_BUDGET", 1 << 22)
        res = evolve(m_bd_conservative, 1e4, e0)
        assert res.flagged and res.flag_reason == "work budget reached"
        assert res.n_used * res.steps_used <= 1 << 22 and res.n_used == 128
        assert res.mass_bracket.lo <= 1.0 == res.mass_bracket.hi

    def test_overflowing_window_does_not_fit(self):
        # c t overflows: the Poisson window is infinite, which no budget fits
        m = ModelSpec.pure_birth(RateFn.power(1e300, 0.0), name="huge")
        assert minimal._poisson_window(m, 64, 1e10)[1] == math.inf
        res = evolve(m, 1e10, e0)
        assert res.flagged and res.flag_reason == "step budget reached"
        assert (res.mass_bracket.lo, res.mass_bracket.hi) == (0.0, 1.0)


def theta_mass(t: float) -> float:
    """|V(t)e0| on quadratic_birth: P(T > t) for the explosion time
    T = sum_n E_n/n^2, the theta series 2 sum_{n>=1} (-1)^{n+1} e^{-n^2 t}.
    Below t = 0.25 the series cancels to a few ulps above 1, and Jacobi's
    dual form P(T <= t) = 2 sqrt(pi/t) sum_{k>=0} e^{-pi^2 (2k+1)^2 / (4t)}
    serves instead (the two agree to 1e-16 from t = 0.1 to 4)."""
    if t < 0.25:
        return 1.0 - 2.0 * math.sqrt(math.pi / t) * math.fsum(math.exp(-((math.pi * (2 * k + 1)) ** 2) / (4.0 * t)) for k in range(60))
    return 2.0 * math.fsum((-1) ** (n + 1) * math.exp(-n * n * t) for n in range(1, 200))


def theta_integral(t: float) -> float:
    """int_0^t P(T > s) ds = 2 sum (-1)^{n+1} (1 - e^{-n^2 t})/n^2, where
    2 sum (-1)^{n+1}/n^2 = pi^2/6."""
    return math.pi**2 / 6.0 - 2.0 * math.fsum((-1) ** (n + 1) * math.exp(-n * n * t) / (n * n) for n in range(1, 200))


class TestRenewalRoute:
    """evolve on an explosive pure-birth cascade: one certified pass."""

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0])
    def test_theta_oracle(self, m_quadratic, t):
        res = evolve(m_quadratic, t, e0, want_integral=False)
        assert res.mass_bracket.contains(theta_mass(t))
        assert res.mass_bracket.width <= 1.5e-4
        assert not res.flagged
        assert res.ladder.levels == (128,) and res.n_used == 128

    def test_theta_oracle_on_a_fine_grid(self, m_quadratic):
        # the stratified edges at N = 128, their CDF bounds narrowed by the
        # inner level at N' = 512, hold the exact mass at every t; the
        # widest, 1.43e-4 near t = 1, is under the 2.3e-4 of the Chernoff
        # bounds alone at N = 256
        for t in np.arange(1, 41) * 0.05:
            res = evolve(m_quadratic, float(t), e0, want_integral=False)
            assert res.mass_bracket.contains(theta_mass(float(t))), t
            assert not res.flagged and res.n_used == 128
            if t <= 1.0:
                assert res.mass_bracket.width <= 1.5e-4, t

    def test_zero_death_walk_takes_the_renewal_route(self, m_quadratic):
        walk = ModelSpec.birth_death(RateFn.power(1.0, 2.0), 0.0)
        res = evolve(walk, 0.5, e0)
        assert not res.flagged and res == evolve(m_quadratic, 0.5, e0)

    def test_integral_holds_the_theta_integral(self, m_quadratic):
        t = 1.0
        exact = theta_integral(t)
        assert exact == pytest.approx(0.91830560, abs=1e-8)
        res = evolve(m_quadratic, t, e0)
        assert res.integral_bracket.contains(exact)
        # the truncated integral is a lower bound that the sandwich beats
        assert res.integral.head_sum() < res.integral_bracket.lo
        assert res.integral_bracket.width <= 1.5e-4

    @pytest.mark.parametrize(("t", "width"), [(0.25, 1.178e-6), (0.5, 2.464e-5), (1.0, 1.934e-4), (2.0, 4.680e-4)])
    def test_integral_is_no_wider_than_the_quantile_edges(self, m_quadratic, t, width):
        # ``width`` is the integral bracket's width with one edge at each
        # epsilon-quantile of R_512, the sandwich the strata replace; at
        # N = 128 with the inner level the bracket is under ``inner``, and
        # under the 1.40e-7, 1.38e-5, 1.15e-4 and 2.79e-4 of the Chernoff
        # strata alone at N = 256
        inner = {0.25: 8.75e-8, 0.5: 8.60e-6, 1.0: 7.17e-5, 2.0: 1.741e-4}[t]
        res = evolve(m_quadratic, t, e0)
        assert res.integral_bracket.contains(theta_integral(t))
        assert res.integral_bracket.width <= min(width, inner)

    @pytest.mark.parametrize("t", [0.1, 0.5])
    def test_start_e3_holds_the_exact_law(self, m_quadratic, t):
        # from e_3 the explosion time is sum_{n>=4} E_n/n^2, whose survival
        # function drops the factors m = 1..3 from the theta coefficients;
        # the series cancels badly for larger starts or smaller t
        exact = math.fsum(
            2.0 * (-1) ** (n + 1) * math.prod((m * m - n * n) / (m * m) for m in range(1, 4)) * math.exp(-n * n * t)
            for n in range(4, 200)
        )
        res = evolve(m_quadratic, t, PosSeq.basis(3), want_integral=False)
        assert res.mass_bracket.contains(exact)
        assert not res.flagged and res.ladder.levels == (128,)

    def test_several_sources_are_linear(self, m_quadratic):
        u = PosSeq({0: 0.25, 3: 0.5})
        res = evolve(m_quadratic, 0.25, u, want_integral=False)
        parts = [evolve(m_quadratic, 0.25, PosSeq.basis(k), want_integral=False).mass_bracket for k in (0, 3)]
        assert res.mass_bracket.lo >= 0.25 * parts[0].lo + 0.5 * parts[1].lo - 1e-12
        assert res.mass_bracket.hi <= 0.25 * parts[0].hi + 0.5 * parts[1].hi + 1e-12

    def test_budget_halves_the_truncation(self, m_quadratic, monkeypatch):
        # N = 128 needs 17,576 steps at t = 1, N = 64 4,712
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 10_000)
        res = evolve(m_quadratic, 1.0, e0)
        assert res.ladder.levels == (64,) and res.steps_used <= 10_000
        assert res.flagged and res.flag_reason == "step budget reached"
        assert res.mass_bracket.contains(theta_mass(1.0))

    @pytest.mark.parametrize(("a0", "t", "frozen"), [(5.0, 0.25, 0.42886683), (5.0, 1.0, 0.05972007), (100.0, 0.05, None)])
    def test_head_kill_holds_the_oracle(self, a0, t, frozen):
        # state 0 feeds state 1 at rate 1 and kills at rate a0 - 1; past it
        # a_k = (k+1)^2 all feeds k+1.  From e0, |V(t)e0| = e^{-a0 t} +
        # int_0^t e^{-a0 s} P(T' > t-s) ds with T' = sum_{n>=2} E_n/n^2 the
        # explosion time from state 1, whose survival function is
        # sum_{n>=2} 2(-1)^n (n^2-1) e^{-n^2 x} (the partial fractions of
        # prod n^2/(n^2+s)); below x = 1e-3 it is 1 to double precision.
        # At a0 = 100 the lower edge shifted by r_lo would read above the
        # exact mass: paths still at state 0 die between t - r_lo and t
        quad = pytest.importorskip("scipy.integrate").quad

        def survival(x: float) -> float:
            return 1.0 if x < 1e-3 else math.fsum(2.0 * (-1) ** n * (n * n - 1) * math.exp(-n * n * x) for n in range(2, 400))

        val, _ = quad(lambda s: math.exp(-a0 * s) * survival(t - s), 0.0, t, points=[t - 1e-3], limit=200)
        exact = math.exp(-a0 * t) + val
        if frozen is not None:
            assert exact == pytest.approx(frozen, abs=1e-8)
        m = ModelSpec("head_kill", RateFn.table([a0], tail_c=1.0, tail_p=2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        res = evolve(m, t, e0, want_integral=False)
        assert res.mass_bracket.contains(exact)
        assert not res.flagged and res.ladder.levels == (512,)

    def test_inner_level_holds_the_exact_law(self, m_quadratic):
        # nothing kills from e_3, so P(R_3 > r) = |V(r)e_3|, the series of
        # test_start_e3_holds_the_exact_law; trivial outer bounds leave the
        # inner level's bracket (at N' = 128) alone
        r, lo_c, hi_c = minimal._renewal_tails(m_quadratic.a, 3, 2.5e-9)
        trivial = np.zeros(r.size - 1), np.ones(r.size - 1)
        lo, hi, steps = minimal._cascade_tails(m_quadratic, 3, r, *trivial, 1e-8, minimal._STEP_BUDGET, minimal._WORK_BUDGET)
        assert steps > 0
        for x, below, above in zip(r[1:].tolist(), lo, hi):
            survival = math.fsum(
                2.0 * (-1) ** (n + 1) * math.prod((m * m - n * n) / (m * m) for m in range(1, 4)) * math.exp(-n * n * x)
                for n in range(4, 200)
            )
            assert below <= 1.0 - survival <= above, x
        # near the median the cascade's own law is the tighter one
        assert (hi - lo).max() < 0.1 < (hi_c - lo_c).max()

    @pytest.mark.parametrize("n", [128, 256])
    def test_inner_level_narrows_the_chernoff_bounds(self, m_quadratic, n):
        # the combined bounds are the tighter edge of the two, monotone, in
        # [0, 1], inside the Chernoff ones and far narrower
        r, lo_c, hi_c = minimal._renewal_tails(m_quadratic.a, n, 2.5e-9)
        budgets = 1e-8, minimal._STEP_BUDGET, minimal._WORK_BUDGET
        lo, hi, steps = minimal._cascade_tails(m_quadratic, n, r, lo_c, hi_c, *budgets)
        lo_i, hi_i, _ = minimal._cascade_tails(m_quadratic, n, r, np.zeros(lo.size), np.ones(hi.size), *budgets)
        assert steps > 0
        assert np.array_equal(lo, np.maximum(lo_c, lo_i)) and np.array_equal(hi, np.minimum(hi_c, hi_i))
        assert np.all(0.0 <= lo) and np.all(lo <= hi) and np.all(hi <= 1.0)
        assert np.all(np.diff(lo) >= 0.0) and np.all(np.diff(hi) >= 0.0)
        assert np.all(lo_c <= lo) and np.all(hi <= hi_c) and (hi - lo).sum() < 0.5 * (hi_c - lo_c).sum()

    def test_inner_reads_carry_the_pad(self, m_quadratic, monkeypatch):
        # with the reads' own errors zeroed, every inner read lies (N' + 3
        # strata) ulps from the sandwich's values
        stratum_sums, sandwich, seen = minimal._stratum_sums, minimal._sandwich, []

        def exact_reads(*args):
            rows = stratum_sums(*args)
            rows[2:] = 0.0
            return rows

        def spy(vals, lo_err, hi_err, *rest):
            seen.append((vals.shape, lo_err, hi_err))
            return sandwich(vals, lo_err, hi_err, *rest)

        monkeypatch.setattr(minimal, "_stratum_sums", exact_reads)
        monkeypatch.setattr(minimal, "_sandwich", spy)
        r, lo, hi = minimal._renewal_tails(m_quadratic.a, 128, 2.5e-9)
        minimal._cascade_tails(m_quadratic, 128, r, lo, hi, 1e-8, minimal._STEP_BUDGET, minimal._WORK_BUDGET)
        ((shape, lo_err, hi_err),) = seen
        pad = (512 + 3 * shape[1]) * _ULP
        assert shape[0] == r.size - 1
        for err in (lo_err, hi_err):
            assert np.all(err == pad)

    @pytest.mark.parametrize(("budget", "value"), [("_STEP_BUDGET", 20_000), ("_WORK_BUDGET", 3_000_000)])
    def test_budget_that_rejects_the_inner_pass(self, m_quadratic, monkeypatch, budget, value):
        # N = 128 takes 17,576 steps at t = 1 (2.25e6 state-steps), its inner
        # level 3,360 more at N' = 512 (1.72e6): a budget that fits the first
        # alone keeps the Chernoff bracket, certified and not flagged
        full = evolve(m_quadratic, 1.0, e0)
        assert full.steps_used == 17_576 + 3_360
        monkeypatch.setattr(minimal, budget, value)
        res = evolve(m_quadratic, 1.0, e0)
        assert not res.flagged and res.n_used == 128 and res.steps_used == 17_576
        assert res.mass_bracket.contains(theta_mass(1.0)) and res.integral_bracket.contains(theta_integral(1.0))
        assert full.mass_bracket.width < res.mass_bracket.width
        monkeypatch.setattr(minimal, "_cascade_tails", lambda m, n, r, lo, hi, *_: (lo, hi, 0))
        chernoff = evolve(m_quadratic, 1.0, e0)
        assert (res.mass_bracket, res.integral_bracket) == (chernoff.mass_bracket, chernoff.integral_bracket)

    def test_tails_of_the_time_beyond_n(self, m_quadratic):
        # R_512 = sum_{n > 512} E_n/n^2 has mean sum_{n > 512} 1/n^2, which
        # a partial sum and the integral bound hold; the lower tail bound
        # past the summed head tightens r_lo (1.551e-3 without it)
        r, _, _ = minimal._renewal_tails(m_quadratic.a, 512, 2.5e-9)
        r_lo, r_hi = r[1], r[-1]
        assert r_lo < math.fsum(1.0 / m_quadratic.a.array(512, 200_000))
        assert m_quadratic.a.reciprocal_tail_bound(512) < r_hi
        assert r_lo == pytest.approx(1.666e-3, abs=1e-6)
        assert r_hi == pytest.approx(2.297e-3, abs=1e-6)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_cdf_bounds_of_the_time_beyond_n(self, m_quadratic, n):
        eps = 2.5e-9
        r, lo, hi = minimal._renewal_tails(m_quadratic.a, n, eps)
        assert r.size == minimal._RENEWAL_STRATA + 1 and r[0] == 0.0 and np.all(np.diff(r) > 0.0)
        assert np.all(0.0 <= lo) and np.all(lo <= hi) and np.all(hi <= 1.0)
        assert np.all(np.diff(lo) >= 0.0) and np.all(np.diff(hi) >= 0.0)
        # lo near 1 is good to the spacing of floats there
        assert hi[0] <= eps and 1.0 - lo[-1] <= eps + 2 * _ULP
        # E[R] = int_0^inf P(R > r) dr, which the bounds hold between the
        # strata, against a partial sum and the integral bound on
        # sum_{m >= n} 1/a_m; past r_hi the survival is at most eps
        mean_lo = math.fsum(1.0 / m_quadratic.a.array(n, 200_000))
        mean_hi = m_quadratic.a.reciprocal_tail_bound(n)
        assert math.fsum(np.diff(r) * (1.0 - hi)) <= mean_hi
        assert math.fsum(np.diff(r) * (1.0 - np.concatenate(([0.0], lo[:-1])))) + eps * r[-1] >= mean_lo

    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_start_past_the_killing_head_takes_the_strata(self, t):
        # head_kill from e_1 never meets its killing state 0: the lower edge
        # is stratified at N = 128, and the law is the explosion time from
        # state 1, sum_{n>=2} 2(-1)^n (n^2-1) e^{-n^2 t}
        exact = math.fsum(2.0 * (-1) ** n * (n * n - 1) * math.exp(-n * n * t) for n in range(2, 400))
        m = ModelSpec("head_kill", RateFn.table([5.0], tail_c=1.0, tail_p=2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        res = evolve(m, t, PosSeq.basis(1), want_integral=False)
        assert res.mass_bracket.contains(exact) and res.mass_bracket.width <= 1.5e-4
        assert not res.flagged and res.ladder.levels == (128,)

    def test_only_a_start_that_cannot_die_runs_the_inner_level(self, monkeypatch):
        # from e0 the lower edge is the truncated mass whatever the CDF, so
        # head_kill keeps the Chernoff bounds; from e_1 the inner level runs
        m = ModelSpec("head_kill", RateFn.table([5.0], tail_c=1.0, tail_p=2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        tails, seen = minimal._cascade_tails, []
        monkeypatch.setattr(minimal, "_cascade_tails", lambda m, n, *rest: seen.append(n) or tails(m, n, *rest))
        evolve(m, 0.25, e0, want_integral=False)
        assert seen == []
        evolve(m, 0.25, PosSeq.basis(1), want_integral=False)
        assert seen == [128]

    def test_which_models_take_the_renewal_route(self, zoo):
        for m in zoo:
            assert minimal._renewal_applies(m) == (m.name == "quadratic_birth")
        # a separate birth rate takes it too; a divergent reciprocal sum does not
        fed = ModelSpec("fed", RateFn.power(2.0, 2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        assert minimal._renewal_applies(fed)
        assert not minimal._renewal_applies(ModelSpec.pure_birth(RateFn.power(1.0, 1.0)))
        res = evolve(fed, 0.25, e0, want_integral=False)
        assert res.ladder.levels == (512,) and not res.flagged

    def test_yule_runs_one_level(self, m_yule):
        res = evolve(m_yule, 1.0, e0, want_integral=False)
        assert res.ladder.levels == (64,) and not res.flagged


class TestReachBound:
    """The chance of reaching a truncation by time t, which certifies every
    model off the renewal route."""

    @pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
    def test_yule_law(self, m_yule, t):
        # yule reaches N from e0 by t with probability (1 - e^{-t})^N
        for n in (64, 128, 256):
            assert minimal._reach(m_yule, 0, n, t) >= (1.0 - math.exp(-t)) ** n

    def test_start_band_counts(self, m_yule):
        # the optimum is 2.2e-12 against the exact 1.8e-13; leaving out the
        # start's own band would give 8.0e-11
        assert minimal._reach(m_yule, 0, 64, 1.0) <= 1e-11

    @pytest.mark.parametrize(("c", "t"), [(1.0, 40.0), (3.0, 2.0), (0.5, 100.0)])
    def test_constant_rate_poisson_tail(self, c, t):
        # a constant rate c reaches N from e0 by t exactly when Poisson(ct) >= N;
        # Chernoff is within a factor of about sqrt(2 pi N) of that tail
        m = ModelSpec.pure_birth(RateFn.power(c, 0.0))
        lam = c * t
        for n in (64, 128):
            tail = math.fsum(math.exp(k * math.log(lam) - lam - math.lgamma(k + 1.0)) for k in range(n, n + 4000))
            assert tail <= minimal._reach(m, 0, n, t) <= 30.0 * tail

    def test_zero_without_transport(self, m_pure_loss):
        assert minimal._reach(m_pure_loss, 0, 64, 1e6) == 0.0

    def test_evolve_adds_the_reach_to_the_upper_edges(self, m_yule):
        # at a loose tol yule from e0 stops at N = 64 by t = 3, where the
        # truncation has lost (1 - e^{-3})^64 = 0.038 of the unit mass; the
        # exact mass is 1 and the exact integral 3
        res = evolve(m_yule, 3.0, e0, tol=0.5)
        assert res.n_used == 64 and not res.flagged
        assert res.mass_bracket.lo == pytest.approx(1.0 - (1.0 - math.exp(-3.0)) ** 64, abs=1e-10)
        assert res.mass_bracket.hi == 1.0 and res.integral_bracket.hi == 3.0

    @pytest.mark.parametrize(("b", "d"), [(1.0, 2.0), (1.0, 1.0), (2.0, 1.0)])
    def test_walks_hold_the_exact_hitting_chance(self, b, d):
        # the linear walk b(k+1) up, d(k+1) down (none at 0) reaches n = 12
        # from e0 by t with the chance that the walk on 0..n-1, n absorbing,
        # sits at n at t
        expm = pytest.importorskip("scipy.linalg").expm
        n = 12
        m = ModelSpec.birth_death(RateFn.power(b, 1.0), RateFn.power(d, 1.0))
        q = np.zeros((n + 1, n + 1))
        for k in range(n):
            q[k + 1, k] = b * (k + 1)
            q[k - 1, k] = d * (k + 1) if k else 0.0
            q[k, k] = -q[k + 1, k] - q[k - 1, k]
        for t in (0.5, 3.0, 30.0):
            exact = expm(q * t)[n, 0]
            assert minimal._reach(m, 0, n, t) >= exact
            assert minimal._drift_reach(m, 0, n, t) >= exact

    def test_up_rates_and_drift_keep_a_subcritical_walk_at_the_first_level(self):
        # b = k+1, d = 2(k+1): the band bound counts only the up rates, and
        # with V = 2^k, whose drift is positive only at 0 (rate 1), the drift
        # bound is (1 + t) 2^{-N} at every t, up to the 4% spacing of its
        # grid of x near log 2; the mass is exactly 1
        m = ModelSpec.birth_death(RateFn.power(1.0, 1.0), RateFn.power(2.0, 1.0))
        # the total rate 3(k+1) in place of the up rate would read about 1
        assert minimal._reach(m, 0, 512, 3.0) <= 1e-10
        assert minimal._drift_reach(m, 0, 64, 1e6) <= 4.0 * (1.0 + 1e6) * 2.0**-64
        for t, width in ((3.0, 1e-11), (100.0, 1e-10)):
            res = evolve(m, t, e0, want_integral=False)
            assert res.n_used == 64 and not res.flagged
            assert res.mass_bracket.contains(1.0) and res.mass_bracket.width <= width

    @pytest.mark.parametrize(("b", "t", "n"), [(2.0, 3.0, 2048), (1.0, 10.0, 512)])
    def test_growing_walks_need_no_more_than_the_doubling_ladder(self, b, t, n):
        # b(k+1) up, (k+1) down: the up rates alone would ask N of about
        # 19 e^{bt}; the drift bound with x(s) falling at the linear rate
        # follows the walk's own scale, e^{(b-1)t}, or t at b = 1, and
        # certifies the N the doubling ladder used to stop at
        m = ModelSpec.birth_death(RateFn.power(b, 1.0), RateFn.power(1.0, 1.0))
        res = evolve(m, t, e0, want_integral=False)
        assert res.n_used == n and not res.flagged
        assert res.mass_bracket.contains(1.0) and res.mass_bracket.width <= 1e-9

    def test_a_dead_up_rate_keeps_the_first_level(self):
        # b = (1, 0, 1, 1, ...), d = 1: from e0 the walk never passes state
        # 1, whose band has no up rate, so the band bound is 0
        m = model_from_json(
            {
                "name": "stuck",
                "space": "l1",
                "A": {"kind": "table", "values": [1.0, 1.0], "tail": {"c": 2.0, "p": 0.0}},
                "B": {
                    "kind": "birth_death",
                    "b": {"kind": "table", "values": [1.0, 0.0], "tail": {"c": 1.0, "p": 0.0}},
                    "d": {"kind": "power", "c": 1.0, "p": 0.0},
                    "kill": {"kind": "power", "c": 0.0, "p": 0.0},
                },
                "conservative": True,
            }
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minimal._reach(m, 0, 64, 1.0) == 0.0
            res = evolve(m, 1.0, e0, want_integral=False)
        assert res.n_used == 64 and not res.flagged
        assert res.mass_bracket.contains(1.0) and res.mass_bracket.width <= 1e-12

    def test_a_stride_past_every_truncation_is_flagged_not_raised(self):
        # state 0 feeds 2^21 - 1 at rate 1/2 and loses 1/2: no truncation up
        # to _N_MAX = 2^20 holds a band, so the band bound is 1, and the drift
        # bound's rises overflow; from e0 |V(t)e0| = e^{-t}(1 + t/2)
        m = model_from_json(FAR_OK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minimal._reach(m, 0, minimal._N_MAX, 0.5) == 1.0
            assert minimal._truncation(m, 0.5, 0, 1e-8, 0)[::2] == (minimal._N_MAX, "n_max reached")
            res = evolve(m, 0.5, e0, want_integral=False)
        assert res.n_used == minimal._N_MAX and res.flag_reason == "n_max reached"
        assert res.mass_bracket.contains(math.exp(-0.5) * 1.25)

    def test_finite_table_keeps_the_first_level(self, m_closed_chain):
        # no column is listed past state 7, so no path ever reaches 64
        assert minimal._reach(m_closed_chain, 0, 64, 1e12) == 0.0
        for t, width in ((50.0, 1e-12), (1e4, 2e-10)):
            res = evolve(m_closed_chain, t, e0, want_integral=False)
            assert res.n_used == 64 and not res.flagged
            assert res.mass_bracket.width <= width


@pytest.mark.parametrize(
    ("t", "tol", "message"),
    [
        (1.0, 0.0, "finite tol > 0"),
        (1.0, -1.0, "finite tol > 0"),
        (1.0, math.nan, "finite tol > 0"),
        (1.0, math.inf, "finite tol > 0"),
        (math.inf, 1e-8, "finite t >= 0"),
        (math.nan, 1e-8, "finite t >= 0"),
        (-1.0, 1e-8, "finite t >= 0"),
    ],
)
def test_evolve_rejects_bad_t_and_tol(m_bd_kill, t, tol, message):
    with pytest.raises(ValueError, match=message):
        evolve(m_bd_kill, t, e0, tol)


def sequential_pass(m: ModelSpec, times, u: PosSeq, n: int, want_integral: bool):
    """The uniformized pass as a plain loop: the stepper's operations in its
    order, one power at a time, and every weighted sum of each time's
    ``_poisson_read`` weights by math.fsum."""
    c, steps = minimal._poisson_window(m, n, max(times))
    win = OperatorWindow(m, 0, n)
    diag = 1.0 - win.a / c
    powers = [np.zeros(n)]
    for k, v in u.entries.items():
        powers[0][k] = v
    for _ in range(steps):
        v, out = powers[-1], np.empty(n)
        np.multiply(v, diag, out=out)
        for tgt, src, r in win.shifts():
            out[tgt] += (r / c) * v[src]
        powers.append(out)
    refs = []
    for t in times:
        first, _, vw, head, iw, _, _ = minimal._poisson_read(c, 0.0, t, steps, len(win.bands) + 2)
        iw = minimal._from_power_0(c, 0.0, first, head, iw)
        v_ref = np.array([math.fsum(w * powers[first + j][k] for j, w in enumerate(vw)) for k in range(n)])
        i_ref = np.array([math.fsum(w * powers[j][k] for j, w in enumerate(iw)) for k in range(n)])
        refs.append((v_ref, i_ref if want_integral else None))
    return refs, powers


def times_for_steps(m: ModelSpec, n: int, steps: int) -> float:
    """The least t (to float resolution) whose Poisson window has ``steps`` steps."""
    lo, hi = 0.0, 1.0
    while minimal._poisson_window(m, n, hi)[1] < steps:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if minimal._poisson_window(m, n, mid)[1] < steps else (lo, mid)
    assert minimal._poisson_window(m, n, hi)[1] == steps
    return hi


class TestBlockedKernel:
    """_uniformized adds t's weights to a block of powers by one matrix
    product; the sums agree with sequential fsum ones of the same weights
    within the reordering slack of a sum of at most steps + 16 roundings."""

    N = 64
    U = PosSeq({0: 0.5, 3: 0.25})

    @pytest.mark.parametrize("want_integral", [False, True])
    @pytest.mark.parametrize("edge", [-1, 0, 1, "2rows+1"])
    @pytest.mark.parametrize("model", ["m_quadratic", "m_bd_kill"])
    def test_matches_sequential_fsum(self, model, edge, want_integral, request):
        m = request.getfixturevalue(model)
        rows = minimal._block_rows(self.N)
        steps = 2 * rows + 1 if edge == "2rows+1" else rows + edge
        t = times_for_steps(m, self.N, steps)
        times = (t, 0.6 * t, 0.0)  # a full window, a shorter one and the identity
        refs, _ = sequential_pass(m, times, self.U, self.N, want_integral)
        for s, (v_ref, i_ref) in zip(times, refs):
            win, c = OperatorWindow(m, 0, self.N), minimal._poisson_window(m, self.N, 0.0)[0]
            sums, _, got_steps, _ = minimal._uniformized((win.a, win.shifts()), c, 0.0, self.U.entries, (s,), want_integral)
            v_acc, i_acc = sums[0], sums[1] if want_integral else None
            assert got_steps == (steps if s == t else minimal._poisson_window(m, self.N, s)[1])
            fp_slack = (got_steps + 16) * _ULP * self.U.head_sum()
            assert float(np.abs(v_acc - v_ref).sum()) <= fp_slack
            if want_integral:
                assert float(np.abs(i_acc - i_ref).sum()) <= fp_slack * max(s, 1.0)
            else:
                assert i_acc is None

    @pytest.mark.parametrize("edge", [-1, 0, 1, "2rows+1"])
    def test_stratum_sums_match_the_sequential_ones(self, m_quadratic, edge):
        # the masses are row sums of the very powers, so they differ from an
        # fsum of each by summation order alone; each stratum reads them
        # with the sequential sums' weights, so it differs from those by the
        # masses' N roundings and its own reordering slack alone
        rows = minimal._block_rows(self.N)
        steps = 2 * rows + 1 if edge == "2rows+1" else rows + edge
        t = times_for_steps(m_quadratic, self.N, steps)
        times = (t, 0.6 * t, 0.0)
        c = minimal._poisson_window(m_quadratic, self.N, t)[0]
        win = OperatorWindow(m_quadratic, 0, self.N)
        *_, sums = minimal._uniformized((win.a, win.shifts()), c, 0.0, self.U.entries, (t,), False, np.array(times))
        refs, powers = sequential_pass(m_quadratic, times, self.U, self.N, True)
        u = self.U.head_sum()
        stepper = minimal._make_stepper((win.a, win.shifts()), c, rows)
        _, mass = minimal._blocked_sums(stepper, self.U.entries, steps, [], masses=True)
        assert mass.size == steps + 1
        assert all(abs(mj - math.fsum(p)) <= self.N * _ULP * u for mj, p in zip(mass, powers))
        pad = (self.N + steps + 16) * _ULP * u
        for (v_ref, i_ref), s, (g, i_g, *_) in zip(refs, times, sums.T):
            assert abs(g - math.fsum(v_ref)) <= pad
            assert abs(i_g - math.fsum(i_ref)) <= pad * max(s, 1.0)

    def test_stepper_powers_are_the_sequential_ones_bit_for_bit(self, m_bd_kill):
        steps = 2 * minimal._block_rows(self.N) + 1
        t = times_for_steps(m_bd_kill, self.N, steps)
        _, powers = sequential_pass(m_bd_kill, (t,), self.U, self.N, False)
        c = minimal._poisson_window(m_bd_kill, self.N, t)[0]
        win = OperatorWindow(m_bd_kill, 0, self.N)
        block, fill = minimal._make_stepper((win.a, win.shifts()), c, 5)
        block[0] = powers[0]
        for j0 in range(0, steps - 5, 5):
            fill(5)
            assert np.array_equal(block, np.array(powers[j0 : j0 + 6]))
            block[0] = block[5]

    def test_a_large_pass_allocates_a_few_vectors(self, m_two_state):
        # N = 2^21 holds one row per block, so the pass keeps seven
        # N-vectors: the block's two rows, diag, the band's rates and
        # scratch, the accumulator and the product; a 256-row block would be
        # 257.  The window is built untraced, as its own transients are not
        # the pass's.
        n = 1 << 21
        win, c = OperatorWindow(m_two_state, 0, n), minimal._poisson_window(m_two_state, n, 0.0)[0]
        tracemalloc.start()
        try:
            _, _, steps, _ = minimal._uniformized((win.a, win.shifts()), c, 0.0, PosSeq.basis(1 << 19).entries, (0.5,), False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 50 and minimal._block_rows(n) == 1
        assert peak <= 8 * 8 * n


class TestPoissonRead:
    """The one read rule: each time's weights, summed exactly (40 digits),
    meet their closed forms within the errors the read returns."""

    @staticmethod
    def check(total, exact, err):
        # the read may lie err[0] above and err[1] below the exact value
        assert exact - err[1] <= total <= exact + err[0]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("t", [0.0, 0.25, 2.8])
    @pytest.mark.parametrize("c", [1.0, 243.0, 65536.0])
    def test_weights_meet_their_closed_forms(self, c, t, lam):
        mp = pytest.importorskip("mpmath")
        first, last, values, head, integrals, v_err, i_err = minimal._poisson_read(c, lam, t, math.inf, 4)
        assert first + values.size - 1 <= last and first + integrals.size <= last
        integrals = minimal._from_power_0(c, lam, first, head, integrals)
        with mp.workdps(40):
            if lam:
                assert values.size == 0
                exact = -mp.expm1(-lam * mp.mpf(t)) / lam
            else:
                self.check(mp.fsum(values.tolist()), 1, v_err)
                exact = mp.mpf(t)
            self.check(mp.fsum(integrals.tolist()), exact, i_err)

    @pytest.mark.parametrize("c", [1.0, 243.0])  # at c = 65536 the window holds 2.4e6 weights
    def test_the_laplace_weights_sum_to_one_over_lam(self, c):
        mp = pytest.importorskip("mpmath")
        first, last, values, _, integrals, _, i_err = minimal._poisson_read(c, 1.0, math.inf, math.inf, 4)
        assert first == values.size == 0 and integrals.size == last + 1
        with mp.workdps(40):
            self.check(mp.fsum(integrals.tolist()), 1, i_err)

    def test_a_window_past_the_steps_reads_the_trivial_bound(self):
        first, last, values, _, integrals, v_err, i_err = minimal._poisson_read(243.0, 0.0, 2.8, 100, 4)
        assert last > 100 and first == values.size == integrals.size == 0
        self.check(0.0, 1.0, v_err)
        self.check(0.0, 2.8, i_err)


def exact_truncated_mass(m: ModelSpec, n: int, t: float):
    """|V_N(t)e0| of the N-state truncation at 50 digits: exp(Qt)e0 for the
    truncated generator Q, by its Taylor series after the shift Q = c(P - I)
    with c = max a, so that every term is nonnegative and nothing cancels,
    summed until the Poisson weight left is below 1e-45."""
    mp = pytest.importorskip("mpmath")
    win = OperatorWindow(m, 0, n)
    c = float(win.a.max())
    with mp.workdps(50):
        ct = mp.mpf(c) * t
        diag = [1 - mp.mpf(a) / c for a in win.a.tolist()]
        bands = [(d, [mp.mpf(x) / c for x in r.tolist()]) for d, r in win.bands.items()]
        v = {0: mp.mpf(1)}  # the nonzero entries of P^k e0
        weight = mp.exp(-ct)
        total, left, k = weight, 1 - weight, 0
        while left > mp.mpf(10) ** -45:
            step = {i: diag[i] * x for i, x in v.items()}
            for d, r in bands:
                for i, x in v.items():
                    if r[i]:
                        step[i + d] = step.get(i + d, 0) + r[i] * x
            v, k = step, k + 1
            weight *= ct / k
            left -= weight
            total += weight * mp.fsum(v.values())
        return total


class TestLongPassOracle:
    """evolve's mass bracket against the exact truncated mass: a pass of
    thousands of steps rounds thousands of times, which the read's pad
    counts."""

    @pytest.mark.parametrize(("name", "t"), [("m_closed_chain", 50.0), ("m_closed_chain", 1e4), ("m_bd_kill", 2.0)])
    def test_the_bracket_holds_the_truncated_mass(self, name, t, request):
        # no path of closed_chain reaches N (reach 0), so the truncated mass
        # is the mass; bd_kill's lies at most reach below it
        m = request.getfixturevalue(name)
        res = evolve(m, t, e0, want_integral=False)
        assert not res.flagged
        exact = exact_truncated_mass(m, res.n_used, t)
        assert res.mass_bracket.lo <= exact <= res.mass_bracket.hi

    def test_a_conservative_walk(self):
        # b = k+1, d = 2(k+1): the truncation at N = 64 keeps all but about
        # 1e-20 of the unit mass by t = 3
        m = ModelSpec.birth_death(RateFn.power(1.0, 1.0), RateFn.power(2.0, 1.0))
        res = evolve(m, 3.0, e0, want_integral=False)
        assert res.n_used == 64 and not res.flagged
        assert res.mass_bracket.lo <= exact_truncated_mass(m, 64, 3.0)
        assert res.mass_bracket.contains(1.0)


class TestIntegrateV:
    def test_t_zero(self, m_two_state):
        iv, br, _ = integrate_V(m_two_state, 0.0, e0)
        assert iv.is_zero and br == type(br)(0.0, 0.0)

    def test_scalar_decay(self, m_pure_loss):
        iv, br, _ = integrate_V(m_pure_loss, 1.0, e0)
        assert iv.get(0) == pytest.approx(1.0 - EXP1, abs=1e-12)

    def test_two_state_closed_form(self, m_two_state):
        iv, br, _ = integrate_V(m_two_state, 1.0, e0)
        assert iv.get(0) == pytest.approx(1.0 - EXP1, abs=1e-12)
        assert iv.get(1) == pytest.approx(0.5 - EXP1 + 0.5 * EXP2, abs=1e-12)

    @pytest.mark.parametrize("extra", range(12))
    def test_short_window_keeps_the_integral_tail(self, extra, monkeypatch):
        # kill 0.001 at every state, so |int_0^t V(s)e0 ds| = (1 - e^{-0.001 t})/0.001;
        # a window ending at 2ct + extra leaves integral weight t P(X >= jmax)
        # outside it, which the read's upper error must count
        m = ModelSpec.birth_death(1.0, 1.0, kill=0.001)
        monkeypatch.setattr(minimal, "_poisson_last", lambda x: math.ceil(2.0 * x) + extra)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            _, br, res = integrate_V(m, t, e0)
            assert res.steps_used == math.ceil(2.0 * minimal._poisson_window(m, res.n_used, t)[0] * t) + extra
            assert br.contains(-math.expm1(-0.001 * t) / 0.001)


class TestLaplaceConsistency:
    def test_resolvent_is_laplace_transform_of_mass(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = random_closed_model(rng, 8)
            lam = 1.0
            res = resolvent_G(m, lam, e0, tol=1e-12)

            def mass_at(t: float) -> float:
                v, _, _ = semigroup_V(m, t, e0)
                return v.head_sum()

            val, err = scipy_integrate.quad(
                lambda t: math.exp(-lam * t) * mass_at(t), 0.0, 40.0, limit=100
            )
            assert lam * val == pytest.approx(res.mass_bracket.mid, abs=2e-6 + err)
