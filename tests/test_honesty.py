import dataclasses
import math

import numpy as np
import pytest

from substochastic import honesty, minimal
from substochastic.honesty import (
    DISHONEST,
    HONEST,
    a0_on_integral,
    a_frak,
    abar_resolvent,
    ahat_dp,
    delta_by_routes,
    hereditary_audit,
    honesty_verdict,
    mass_loss_delta,
    report_from_json,
    report_to_json,
    subsolution_check,
    xi,
    xi_dual,
)
from substochastic.l1 import PosSeq, SignedSeq
from substochastic.minimal import semigroup_V
from test_minimal import dense_generator, random_closed_model

e0 = PosSeq.basis(0)
EXP1 = math.exp(-1.0)
EXP2 = math.exp(-2.0)

# frozen from the partial-product oracle below and the closed form pi/sinh(pi)
XI_QUADRATIC = 0.2720290549821331
A_TWO_STATE = 1.0 - 2.0 * EXP1 + EXP2  # = 0.3995764003594543


def product_oracle(lam: float, factors: int = 1_000_000) -> tuple[float, float]:
    """Partial products of m^2/(m^2+lam) with the reciprocal-square tail
    bound: an independent bracket for the quadratic-cascade defect."""
    m = np.arange(1.0, factors + 1.0)
    log_p = -np.log1p(lam / (m * m)).sum()
    upper = math.exp(log_p)
    lower = upper * math.exp(-lam / factors)  # sum_{m>K} 1/m^2 <= 1/K
    return lower, upper


def xi_quadratic(lam: float, k: int) -> float:
    """lim_n |J(lam)^n e_k| on quadratic_birth: pi sqrt(lam)/sinh(pi sqrt(lam))
    with the first k factors n^2/(n^2+lam) divided out."""
    s = math.pi * math.sqrt(lam)
    return s / math.sinh(s) * math.exp(math.fsum(math.log1p(lam / (n * n)) for n in range(1, k + 1)))


class TestAFrak:
    def test_conservative_zero(self, m_yule):
        u = PosSeq({0: 0.3, 7: 0.7})
        assert a_frak(m_yule, u) == 0.0

    def test_two_state_column_deficit(self, m_two_state):
        assert a_frak(m_two_state, PosSeq.basis(1)) == 2.0
        assert a_frak(m_two_state, PosSeq.basis(0)) == 0.0

    def test_zero_and_signed(self, m_two_state):
        assert a_frak(m_two_state, PosSeq.zero()) == 0.0
        s = SignedSeq(PosSeq.basis(1, 2.0), PosSeq.basis(1, 0.5))
        assert a_frak(m_two_state, s) == pytest.approx(3.0)


class TestA0OnIntegral:
    def test_t_zero(self, m_two_state):
        b = a0_on_integral(m_two_state, 0.0, e0)
        assert b.lo == b.hi == 0.0

    def test_two_state_closed_form(self, m_two_state):
        b = a0_on_integral(m_two_state, 1.0, e0)
        assert b.mid == pytest.approx(A_TWO_STATE, abs=1e-10)

    def test_yule_mass_preserving(self, m_yule):
        b = a0_on_integral(m_yule, 1.0, e0)
        assert b.lo >= 0.0 and b.hi <= 1e-6


class TestAbarResolvent:
    def test_conservative_identically_zero(self, m_quadratic):
        r = abar_resolvent(m_quadratic, 1.0, e0)
        assert r.bracket.lo == r.bracket.hi == 0.0

    def test_two_state_value(self, m_two_state):
        r = abar_resolvent(m_two_state, 1.0, e0)
        assert r.bracket.mid == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert r.converged

    def test_zero_kernel_single_term(self, m_pure_loss):
        r = abar_resolvent(m_pure_loss, 1.0, e0)
        assert r.bracket.mid == pytest.approx(0.5, abs=1e-12)  # deficit 1 at (1+1)^-1
        assert r.terms_used == 1

    def test_contains_dense_mass_balance(self):
        # finite closed models are honest, so abar((lam-G)^{-1} e0) is the
        # mass balance 1 - lam |(lam-G)^{-1} e0|, here from a dense solve
        rng = np.random.default_rng(2024)
        for _ in range(10):
            m = random_closed_model(rng, 12)
            n = len(m.a.values)
            lam = float(0.25 + 2.0 * rng.random())
            x = np.linalg.solve(lam * np.eye(n) - dense_generator(m, n), np.eye(n)[0])
            exact = 1.0 - lam * math.fsum(x)
            r = abar_resolvent(m, lam, e0)
            assert r.converged and r.bracket.width <= 1e-8
            assert r.bracket.lo - 1e-13 <= exact <= r.bracket.hi + 1e-13

    def test_xi_credit_closes_a_dishonest_remainder(self):
        # a_0 = 3, then a_k = (k+1)^2 with birth rate (k+1)^2: only state 0
        # has a deficit, so abar = 2/(lam+3) = 1/2 exactly.  The series
        # remainder lam * defect stalls at the cascade's defect xi > 0; only
        # the credit of xi's certified lower edge closes it (0.636 without)
        from substochastic.models import Kernel, ModelSpec, RateFn

        m = ModelSpec(
            "head_deficit",
            RateFn.table([3.0], tail_c=1.0, tail_p=2.0),
            Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)),
            conservative=False,
        )
        r = abar_resolvent(m, 1.0, e0)
        assert r.bracket.contains(0.5)
        assert r.bracket.width <= 1e-5

    @pytest.mark.parametrize(
        "model, bracket",
        [
            ("m_bd_kill", (0.32252894627238377, 0.3549421074552301)),
            ("m_closed_chain", (0.09950416301748016, 0.12680559517817055)),
        ],
    )
    def test_no_xi_credit_off_pure_birth(self, model, bracket, request, monkeypatch):
        # a series cut at 5 terms leaves a remainder past tol; off a pure
        # birth xi's lower edge is 0, so it is not asked for one
        calls = []
        monkeypatch.setattr(minimal, "_SERIES_MAX_TERMS", 5)
        monkeypatch.setattr(honesty, "xi", lambda *args: calls.append(args))
        r = abar_resolvent(request.getfixturevalue(model), 1.0, e0)
        assert calls == [] and not r.converged
        assert (r.bracket.lo, r.bracket.hi) == bracket


class TestXi:
    def test_quadratic_against_product_oracle(self, m_quadratic):
        lo, hi = product_oracle(1.0)
        assert lo <= XI_QUADRATIC <= hi and hi - lo < 1e-6
        assert math.pi / math.sinh(math.pi) == pytest.approx(XI_QUADRATIC, abs=1e-15)
        x = xi(m_quadratic, 1.0, e0)
        assert x.certification == "product-bracket"
        assert x.bracket.width <= 1e-6
        assert abs(x.bracket.mid - XI_QUADRATIC) <= 1e-6

    def test_yule_certified_zero(self, m_yule):
        x = xi(m_yule, 1.0, e0)
        assert x.bracket.hi <= 1e-6 and x.bracket.lo == 0.0
        # the divergent rate sum decides without a J application
        assert x.certification == "divergent-rate-sum" and x.j_norms == (1.0,)

    def test_zero_kernel(self, m_pure_loss):
        assert xi(m_pure_loss, 1.0, e0).bracket == type(xi(m_pure_loss, 1.0, e0).bracket)(0.0, 0.0)

    def test_lambda_dependence_on_dishonest_data(self, m_quadratic):
        # the defect values are genuinely lambda-dependent (only the zero set
        # is not): decreasing in lambda
        vals = [xi(m_quadratic, lam, e0).bracket.mid for lam in (0.5, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_closed_models_vanish(self, m_two_state, m_closed_chain):
        for m in (m_two_state, m_closed_chain):
            x = xi(m, 1.0, e0)
            assert x.bracket.hi <= 1e-9

    def test_norms_nonincreasing(self, m_bd_kill):
        x = xi(m_bd_kill, 1.0, PosSeq({0: 0.5, 2: 0.5}))
        assert all(b <= a + 1e-13 for a, b in zip(x.j_norms, x.j_norms[1:]))

    def test_thinned_cascade_certified_zero(self):
        # birth rate strictly below the diagonal tail: the per-step penalty
        # keeps the defect at zero even though the diagonal alone explodes
        from substochastic.models import Kernel, ModelSpec, RateFn

        m = ModelSpec(
            "thinned",
            RateFn.power(1.0, 2.0),
            Kernel("pure_birth", birth=RateFn.power(0.5, 2.0)),
            conservative=False,
        )
        x = xi(m, 1.0, e0)
        assert x.bracket.hi == 0.0 and x.certification == "thinner-birth-tail"

    def test_table_head_positive_defect(self):
        # diagonal with an inflated head but conservative quadratic tail:
        # the defect picks up the exact head factor r_0/(lam+a_0) = 1/6
        from substochastic.models import Kernel, ModelSpec, RateFn

        m = ModelSpec(
            "head_kill",
            RateFn.table([5.0], tail_c=1.0, tail_p=2.0),
            Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)),
            conservative=False,
        )
        x = xi(m, 1.0, e0)
        # oracle: (1/6) * prod_{m>=1} m^2/(m^2+1) = (1/6) * (pi/sinh(pi)) / (1/2)
        expected = (1.0 / 6.0) * XI_QUADRATIC * 2.0
        assert x.certification == "product-bracket"
        assert x.bracket.lo <= expected <= x.bracket.hi
        assert x.bracket.width <= 1e-6
        assert honesty_verdict(m, e0).verdict == DISHONEST

    def test_quadratic_tail_bracket_holds_the_sinh_product(self, m_quadratic):
        # one window of 1,024 factors and the closed-form tail bracket
        for k in (0, 63):
            for lam in (0.5, 1.0, 2.0):
                x = xi(m_quadratic, lam, PosSeq.basis(k))
                assert x.bracket.lo <= xi_quadratic(lam, k) <= x.bracket.hi
                assert x.bracket.width <= 1e-8 and x.iterations <= 4096

    def test_head_kill_tail_bracket(self):
        # a_0 = 5 kills 4/5 of the mass at state 0, so xi = (1/6) prod_{n>=2} n^2/(n^2+1)
        from substochastic.models import Kernel, ModelSpec, RateFn

        m = ModelSpec(
            "head_kill",
            RateFn.table([5.0], tail_c=1.0, tail_p=2.0),
            Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)),
            conservative=False,
        )
        x = xi(m, 1.0, e0)
        assert x.bracket.lo <= math.pi / math.sinh(math.pi) / 3.0 <= x.bracket.hi
        assert x.bracket.width <= 1e-8

    def test_table_birth_takes_the_product_bracket(self):
        # a_0 = 2 kills half of state 0, then a = birth = (k+1)^2; the birth
        # rate as a table and as a power law spell the same rates
        from substochastic.models import Kernel, ModelSpec, RateFn

        a = RateFn.table([2.0], tail_c=1.0, tail_p=2.0)
        twins = [
            ModelSpec("table_birth", a, Kernel("pure_birth", birth=birth), conservative=False)
            for birth in (RateFn.table([1.0], tail_c=1.0, tail_p=2.0), RateFn.power(1.0, 2.0))
        ]
        for lam in (0.5, 1.0, 2.0):
            x, y = (xi(m, lam, e0) for m in twins)
            assert x.certification == y.certification == "product-bracket"
            assert x.bracket == y.bracket
            assert x.bracket.lo <= xi_quadratic(lam, 0) * (1.0 + lam) / (2.0 + lam) <= x.bracket.hi
        # a birth rate of 0 in the head stops every path: xi = 0
        dead = ModelSpec("dead", a, Kernel("pure_birth", birth=RateFn.table([0.0], tail_c=1.0, tail_p=2.0)), False)
        assert xi(dead, 1.0, e0).bracket.lo == 0.0 and xi(dead, 1.0, e0).bracket.hi <= 1e-300

    def test_cascade_routes_apply_no_J(self, m_yule, m_quadratic, monkeypatch):
        # the cascade certificates are closed forms: xi records |u| alone
        from substochastic.models import Kernel, ModelSpec, RateFn

        birth = RateFn.table([1.0], tail_c=1.0, tail_p=2.0)
        table_birth = ModelSpec("table_birth", RateFn.table([2.0], 1.0, 2.0), Kernel("pure_birth", birth=birth), False)
        head_kill = ModelSpec("head_kill", RateFn.table([5.0], 1.0, 2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        calls = []
        apply_J = honesty.apply_J

        def spy(m, lam, u):
            calls.append(m.name)
            return apply_J(m, lam, u)

        monkeypatch.setattr(honesty, "apply_J", spy)
        u = PosSeq({0: 0.5, 3: 0.25})
        for m in (m_yule, m_quadratic, table_birth, head_kill):
            for lam in (0.5, 1.0, 2.0):
                assert xi(m, lam, u).j_norms == (0.75,)
        assert calls == []

    def test_thin_tail_inside_the_brute_force_bracket(self):
        # p = 1.2: the tail's lam^2 S2 / 2 stays above tol for one window, so
        # the window grows to the cap; its bracket must sit inside the
        # partial product over as many factors with the old tail credit
        # exp(-lam (1/a_F + int_F^inf 1/a))
        from substochastic.models import ModelSpec, RateFn

        p, lam, factors = 1.2, 1.0, 2_000_000
        m = ModelSpec.pure_birth(RateFn.power(1.0, p))
        x = xi(m, lam, e0, tol=1e-12)
        assert x.iterations == factors
        n = np.arange(1.0, factors + 1.0)
        partial = math.exp(-math.fsum(np.log1p(lam / n**p)))
        credit = (factors + 1.0) ** -p + (factors + 1.0) ** (1.0 - p) / (p - 1.0)
        assert partial * math.exp(-lam * credit) <= x.bracket.lo <= x.bracket.hi <= partial


class TestXiDual:
    def test_zero_kernel_dies_immediately(self, m_pure_loss):
        dw = xi_dual(m_pure_loss, 1.0, 16, 3)
        assert max(dw.values) == 0.0

    def test_quadratic_matches_primal(self, m_quadratic):
        n = 1 << 20
        dw = xi_dual(m_quadratic, 1.0, n, n)
        assert dw.residual <= 1e-8
        x = xi(m_quadratic, 1.0, e0).bracket.mid
        assert dw.values[0] == pytest.approx(x, abs=1e-6)

    def test_yule_vanishes_entrywise(self, m_yule):
        n = 200_000
        dw = xi_dual(m_yule, 1.0, n, n)
        assert max(dw.values[:10]) <= 1e-4

    def test_monotone_in_iterations(self, m_quadratic):
        a = xi_dual(m_quadratic, 1.0, 4096, 10)
        b = xi_dual(m_quadratic, 1.0, 4096, 100)
        assert all(y <= x + 1e-15 for x, y in zip(a.values, b.values))
        assert all(v <= 1.0 + 1e-15 for v in a.values)


class TestAhat:
    def test_conservative_zero(self, m_yule):
        r = ahat_dp(m_yule, 1.0, e0)
        assert r.bracket.lo == r.bracket.hi == 0.0

    def test_two_state_matches_a0(self, m_two_state):
        r = ahat_dp(m_two_state, 1.0, e0)
        assert r.bracket.mid == pytest.approx(A_TWO_STATE, abs=1e-8)
        assert r.bracket.width <= 1e-7

    def test_zero_kernel_single_term(self, m_pure_loss):
        r = ahat_dp(m_pure_loss, 1.0, e0)
        assert r.bracket.mid == pytest.approx(1.0 - EXP1, abs=1e-8)
        assert len(r.terms) == 1

    def test_one_state_per_call(self, m_bd_kill, monkeypatch):
        builds = []

        class Counting(honesty.DPState):
            def __init__(self, *args):
                builds.append(args[3])
                super().__init__(*args)

        monkeypatch.setattr(honesty, "DPState", Counting)
        r = ahat_dp(m_bd_kill, 2.0, e0)
        assert builds == [len(r.terms) - 1]

    def test_a_given_state_is_read_whole(self, m_bd_kill, monkeypatch):
        # a state sized at t = 2 serves t = 0.5: every one of its terms is
        # read there, and nothing sizes or builds another window
        st = honesty.DPState(m_bd_kill, e0, (2.0, 0.5), honesty._ahat_terms(m_bd_kill, 2.0, e0, 1e-8))
        own = ahat_dp(m_bd_kill, 0.5, e0)
        a0 = a0_on_integral(m_bd_kill, 0.5, e0)

        def refuse(*args):
            raise AssertionError("ahat_dp sized or built a window")

        monkeypatch.setattr(honesty, "_ahat_terms", refuse)
        monkeypatch.setattr(honesty, "OperatorWindow", refuse)
        r = ahat_dp(m_bd_kill, 0.5, e0, a0=a0, st=st)
        assert len(r.terms) == len(r.b_integral_norms) == st.n_max + 1 > len(own.terms)
        assert r.b_integral_norms[-1] < own.b_integral_norms[-1]
        assert r.bracket.lo <= -math.expm1(-0.25) <= r.bracket.hi

    def test_a_start_past_every_listed_column_reads_one_term(self):
        # state 100 sits past the table's extent of 2: B is 0 on every state
        # the terms reach, so one term is exact, 1 - e^{-t} at a = 1
        from substochastic.models import Kernel, ModelSpec, RateFn

        m = ModelSpec("low_table", RateFn.power(1.0, 0.0), Kernel("table", columns=((0, ((1, 0.5),)),)), conservative=False)
        assert honesty._ahat_terms(m, 1.0, PosSeq.basis(100), 1e-8) == 0
        r = ahat_dp(m, 1.0, PosSeq.basis(100))
        assert len(r.terms) == 1 and r.bracket.contains(-math.expm1(-1.0))

    @pytest.mark.parametrize("name", ["m_bd_kill", "m_closed_chain", "m_two_state"])
    def test_bound_sized_state_meets_tol(self, name, request):
        # the term count comes from (beta t)^{n+1}/(n+1)! |u| <= tol, so the
        # computed remainder must land below tol too
        m = request.getfixturevalue(name)
        for t in np.arange(0.25, 2.01, 0.25):
            r = ahat_dp(m, float(t), e0)
            assert r.b_integral_norms[-1] <= 1e-8

    def test_tol_reaches_every_inner_call(self, m_two_state, monkeypatch):
        from substochastic.models import Kernel, ModelSpec, RateFn

        seen = []

        def spy(real):
            def wrapped(m, x, u, tol, *args, **kwargs):
                seen.append(tol)
                return real(m, x, u, tol, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(honesty, "evolve", spy(honesty.evolve))
        ahat_dp(m_two_state, 1.0, e0, tol=1e-6)
        assert seen == [1e-6]
        # the series remainder of a dishonest cascade takes xi's credit
        m = ModelSpec(
            "head_deficit",
            RateFn.table([3.0], tail_c=1.0, tail_p=2.0),
            Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)),
            conservative=False,
        )
        monkeypatch.setattr(honesty, "xi", spy(honesty.xi))
        abar_resolvent(m, 1.0, e0)
        assert seen[1:] == [honesty._ABAR_TOL]

    def test_dominated_by_a0(self, m_two_state, m_bd_kill):
        for m, t in ((m_two_state, 1.0), (m_bd_kill, 0.5), (m_bd_kill, 2.0)):
            ah = ahat_dp(m, t, e0)
            a0 = a0_on_integral(m, t, e0)
            assert ah.bracket.lo <= a0.hi + 1e-9


class TestMassLossDelta:
    def test_closed_model_honest(self, m_two_state):
        d = mass_loss_delta(m_two_state, 1.0, e0)
        assert d.bracket.lo >= -1e-8 and d.bracket.hi <= 0.0

    def test_yule_flat_zero(self, m_yule):
        for t in (0.5, 1.0, 2.0, 5.0):
            d = mass_loss_delta(m_yule, t, e0)
            assert d.bracket.lo >= -1e-6 and d.bracket.hi <= 0.0

    def test_quadratic_strictly_negative(self, m_quadratic, monkeypatch):
        # the budget bounds the one evolution pass (N = 256, 67,880 steps);
        # a conservative model builds no Dyson-Phillips state
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 400_000)
        d = mass_loss_delta(m_quadratic, 1.0, e0)
        assert d.bracket.hi < -0.25

    def test_nonincreasing_in_t(self, m_bd_kill, m_two_state):
        for m in (m_bd_kill, m_two_state):
            brs = [mass_loss_delta(m, t, e0).bracket for t in (0.25, 0.75, 1.5)]
            for b1, b2 in zip(brs, brs[1:]):
                assert b2.lo <= b1.hi + 1e-9

    def test_tol_reaches_the_expansion(self, m_bd_kill, m_two_state):
        # the expansion is sized for the call's tol, not for the default 1e-8
        for m in (m_bd_kill, m_two_state):
            d = mass_loss_delta(m, 1.0, e0, tol=1e-3)
            assert d.functional == ahat_dp(m, 1.0, e0, 1e-3, a0=d.a0).bracket


class TestRouteEquivalence:
    def test_two_state(self, m_two_state):
        ((res, dp),) = delta_by_routes(m_two_state, (1.0,), e0)
        assert abs(res.bracket.mid - dp.bracket.mid) <= 1e-8
        assert res.functional.mid == pytest.approx(A_TWO_STATE, abs=1e-8)
        assert dp.functional.mid == pytest.approx(A_TWO_STATE, abs=1e-8)

    def test_kill_walk(self, m_bd_kill):
        ((res, dp),) = delta_by_routes(m_bd_kill, (1.0,), e0)
        assert abs(res.bracket.mid - dp.bracket.mid) <= 1e-6


class TestGridRoute:
    GRID = tuple(0.25 * k for k in range(9))  # 0:2:0.25

    def test_one_state_per_dyadic_grid(self, m_bd_kill, monkeypatch):
        builds = []

        class Counting(honesty.DPState):
            def __init__(self, *args):
                builds.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(honesty, "DPState", Counting)
        rows = delta_by_routes(m_bd_kill, self.GRID, e0)
        assert len(builds) == 1 and max(builds[0]) == 2.0 and len(rows) == len(self.GRID)

    def test_one_term_count_per_grid(self, m_bd_kill, monkeypatch):
        sized = []

        def spy(m, t, u, tol):
            sized.append(t)
            return real(m, t, u, tol)

        real = honesty._ahat_terms
        monkeypatch.setattr(honesty, "_ahat_terms", spy)
        delta_by_routes(m_bd_kill, self.GRID, e0)
        assert sized == [2.0]

    def test_grid_brackets_hold_the_closed_form(self, m_bd_kill):
        # bd_kill loses mass at rate 1/2 from every state and is honest, so
        # ahat = a0 = 1 - e^{-t/2}
        rows = delta_by_routes(m_bd_kill, self.GRID, e0)
        for t, (res, dp) in zip(self.GRID, rows):
            exact = -math.expm1(-t / 2)
            assert dp.functional.lo - 1e-12 <= exact <= dp.functional.hi + 1e-12
            assert dp.bracket.lo <= 0.0 <= dp.bracket.hi + 1e-12 and res.bracket.lo <= 0.0
            if t > 0:
                per_t = ahat_dp(m_bd_kill, t, e0, a0=dp.a0)
                assert dp.functional.width <= per_t.bracket.width

    @pytest.mark.parametrize("name", ["m_bd_kill", "m_two_state"])
    def test_any_grid_is_one_state(self, name, request, monkeypatch):
        # (0.1, 0.3, 1.0) is no dyadic grid: one state serves it, and each
        # row holds the closed form and is no wider than its one-time call
        m = request.getfixturevalue(name)
        builds = []

        class Counting(honesty.DPState):
            def __init__(self, *args):
                builds.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(honesty, "DPState", Counting)
        ts = (0.1, 0.3, 1.0)
        rows = delta_by_routes(m, ts, e0, 1.3)
        assert len(builds) == 1
        for t, (_, dp) in zip(ts, rows):
            # bd_kill: 1 - e^{-t/2}; two_state: 1 - |V(t)e0| = (1 - e^{-t})^2
            exact = -math.expm1(-t / 2) if name == "m_bd_kill" else math.expm1(-t) ** 2
            assert dp.functional.lo <= exact <= dp.functional.hi
            own = delta_by_routes(m, (t,), e0, 1.3)[0][1]
            assert dp.functional.width <= own.functional.width and dp.bracket.width <= own.bracket.width

    def test_grid_rows_come_back_in_grid_order(self, m_two_state):
        ts = (0.0, 0.3, 0.5, 1.0)  # one state serves 0.3, 0.5 and 1.0
        rows = delta_by_routes(m_two_state, ts, e0)
        assert (rows[0][1].functional.lo, rows[0][1].functional.hi) == (0.0, 0.0)
        for t, (res, dp) in zip(ts, rows):
            assert dp.a0 == a0_on_integral(m_two_state, t, e0)
            assert abs(res.bracket.mid - dp.bracket.mid) <= 1e-8

    def test_an_empty_grid_has_no_rows(self, m_bd_kill):
        assert delta_by_routes(m_bd_kill, (), e0) == []

    @pytest.mark.parametrize("t", [-0.5, math.inf, math.nan])
    def test_rejects_bad_times(self, m_bd_kill, t):
        with pytest.raises(ValueError):
            delta_by_routes(m_bd_kill, (0.5, t), e0)


def _head_kill():
    """State 0 kills at rate 4 and feeds 1; past it a_k = (k+1)^2 all feeds k+1."""
    from substochastic.models import Kernel, ModelSpec, RateFn

    return ModelSpec("head_kill", RateFn.table([5.0], 1.0, 2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)


class TestOneRenewalLawPerGrid:
    """delta_by_routes hands R_N's law (strata, CDF bounds, inner pass) to
    every evolve of its grid; each row is still the lone evolve's."""

    GRIDS = [(0.25, 0.5, 1.0, 2.0), tuple(0.25 * k for k in range(9))]

    @staticmethod
    def grid_evolves(m, ts, u, monkeypatch) -> dict:
        seen, real = {}, honesty.evolve

        def spy(m, t, *args, **kwargs):
            seen[t] = real(m, t, *args, **kwargs)
            return seen[t]

        monkeypatch.setattr(honesty, "evolve", spy)
        delta_by_routes(m, ts, u)
        monkeypatch.setattr(honesty, "evolve", real)
        return seen

    @staticmethod
    def assert_lone(m, t, u, res):
        lone = minimal.evolve(m, t, u, want_integral=res.integral is not None)
        assert (res.mass_bracket, res.integral_bracket) == (lone.mass_bracket, lone.integral_bracket), t
        assert (res.value, res.integral, res.n_used, res.flag_reason) == (lone.value, lone.integral, lone.n_used, lone.flag_reason)
        return lone

    @pytest.mark.parametrize("ts", GRIDS)
    @pytest.mark.parametrize("k", [0, 5])
    def test_rows_are_the_lone_evolves(self, m_quadratic, ts, k, monkeypatch):
        # the inner pass (3,360 steps at N' = 512) runs once, at the largest
        # time, which the grid runs first; the grid wants no integral on a
        # conservative model, so one mapping shared by hand checks those
        u, laws = PosSeq.basis(k), {}
        seen = self.grid_evolves(m_quadratic, ts, u, monkeypatch)
        assert set(seen) == set(ts)
        for t, res in seen.items():
            lone = self.assert_lone(m_quadratic, t, u, res)
            assert lone.steps_used - res.steps_used == (3_360 if 0.0 < t < max(ts) else 0), t
            self.assert_lone(m_quadratic, t, u, minimal.evolve(m_quadratic, t, u, _laws=laws))

    def test_a_start_that_can_die_shares_the_chernoff_law(self, monkeypatch):
        # head_kill from e0 runs no inner pass: only the Chernoff law is shared
        m = _head_kill()
        seen = self.grid_evolves(m, (0.05, 0.1), e0, monkeypatch)
        for t, res in seen.items():
            assert res.n_used == 512
            assert self.assert_lone(m, t, e0, res).steps_used == res.steps_used

    def test_one_inner_pass_and_two_chernoff_grids(self, m_quadratic, monkeypatch):
        # one lone evolve per time would run 3 inner passes and 6 grids
        starts, grids = [], []
        uniformized, log_moments = minimal._uniformized, minimal._log_moments
        monkeypatch.setattr(minimal, "_uniformized", lambda chain, c, lam, start, *rest: starts.append(start) or uniformized(chain, c, lam, start, *rest))
        monkeypatch.setattr(minimal, "_log_moments", lambda a, n: grids.append(n) or log_moments(a, n))
        delta_by_routes(m_quadratic, (0.25, 0.5, 1.0), e0)
        assert starts.count({128: 1.0}) == 1 and len(starts) == 4
        assert sorted(grids) == [128, 512]

    def test_budgets_stay_per_time(self, m_quadratic, monkeypatch):
        # N = 128 takes 17,576 steps at t = 1 and the inner pass 3,360 more:
        # under a budget of 20,000 the inner pass fits t <= 0.75 alone, so
        # t = 1 keeps the Chernoff bounds, unflagged, in either order
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 20_000)
        ts = (0.25, 0.5, 0.75, 1.0)
        seen = self.grid_evolves(m_quadratic, ts, e0, monkeypatch)
        assert seen[1.0].steps_used == 17_576 and seen[0.75].steps_used > 13_000 + 3_360
        laws = {}
        up = {t: minimal.evolve(m_quadratic, t, e0, _laws=laws) for t in ts}  # the inner bounds are kept before t = 1
        for t in ts:
            for res in (seen[t], up[t]):
                self.assert_lone(m_quadratic, t, e0, res)
                assert not res.flagged
        assert up[1.0].steps_used == 17_576

    def test_a_start_that_can_die_has_a_law_of_its_own(self):
        # head_kill from e_200 cannot die and from e0 can, both at N = 512:
        # one mapping keeps a law for each, and each call is its lone one
        m, laws = _head_kill(), {}
        for u in (PosSeq.basis(200), e0, PosSeq.basis(200), e0):
            res = minimal.evolve(m, 0.05, u, _laws=laws)
            assert res.n_used == 512
            self.assert_lone(m, 0.05, u, res)
        assert len(laws) == 2


class TestVerdicts:
    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_rejected(self, m_quadratic, lam):
        # J(inf) = 0 would pass the sub-solution test J u <= u vacuously
        with pytest.raises(ValueError):
            honesty_verdict(m_quadratic, e0, lam)

    def test_yule_honest(self, m_yule):
        rep = honesty_verdict(m_yule, e0)
        assert rep.verdict == HONEST
        assert rep.evidence["lambda_sweep_consistent"]

    def test_quadratic_dishonest(self, m_quadratic):
        rep = honesty_verdict(m_quadratic, e0)
        assert rep.verdict == DISHONEST
        assert rep.xi_bracket.lo > 0.27 and rep.xi_bracket.hi < 0.28

    def test_zero_kernel_honest(self, m_pure_loss):
        assert honesty_verdict(m_pure_loss, e0).verdict == HONEST

    def test_walk_evidence_is_certified_work_only(self, m_bd_conservative, m_bd_kill):
        # from e_40 the norm ratios of both walks settle, which once fed an
        # extrapolated lower edge into the evidence; the iterated route
        # records its own first 64 norms
        for m in (m_bd_conservative, m_bd_kill):
            rep = honesty_verdict(m, PosSeq.basis(40))
            assert rep.verdict == HONEST and rep.evidence["certification"] == "iterated-upper"
            assert len(rep.evidence["j_norms"]) == min(rep.evidence["iterations"] + 1, 64)
            assert "heuristic_lo" not in rep.evidence
        assert "heuristic_lo" not in {f.name for f in dataclasses.fields(honesty.XiResult)}

    def test_rejects_zero_input(self, m_yule):
        with pytest.raises(ValueError):
            honesty_verdict(m_yule, PosSeq.zero())

    def test_flow_invariance_of_honesty(self, m_yule):
        for t in (0.5, 1.5):
            v, _, _ = semigroup_V(m_yule, t, e0)
            trimmed = PosSeq({k: x for k, x in v.entries.items() if x > 1e-12})
            assert honesty_verdict(m_yule, trimmed).verdict == HONEST

    def test_report_json_round_trip(self, m_quadratic):
        rep = honesty_verdict(m_quadratic, e0)
        text = report_to_json(rep)
        again = report_from_json(text)
        assert again.xi_bracket == rep.xi_bracket
        assert again.verdict == rep.verdict
        assert report_to_json(again) == text


class TestSubsolution:
    def test_two_state_certificate(self, m_two_state):
        r = subsolution_check(m_two_state, 1.0, PosSeq({0: 1.0, 1: 1.0}))
        assert r is True
        assert honesty_verdict(m_two_state, PosSeq({0: 1.0, 1: 1.0})).verdict == HONEST

    def test_support_mismatch_no_conclusion(self, m_quadratic):
        r = subsolution_check(m_quadratic, 1.0, e0)
        assert r is False

    def test_zero_kernel_holds(self, m_pure_loss):
        r = subsolution_check(m_pure_loss, 1.0, PosSeq({0: 0.5, 2: 0.5}))
        assert r is True


class TestHereditary:
    def test_yule_subelements_honest(self, m_yule):
        rep = hereditary_audit(m_yule, 1.0, PosSeq.basis(0), samples=25, seed=2024)
        assert rep.all_honest and rep.samples == 25

    def test_vacuous_on_zero(self, m_yule):
        rep = hereditary_audit(m_yule, 1.0, PosSeq.zero(), samples=5, seed=1)
        assert rep.samples == 0

    def test_zero_kernel_subelements_honest(self, m_pure_loss):
        v = PosSeq({0: 0.5, 3: 0.5})
        rep = hereditary_audit(m_pure_loss, 1.0, v, samples=10, seed=3)
        assert rep.all_honest

    def test_rejects_dishonest_base(self, m_quadratic):
        with pytest.raises(ValueError):
            hereditary_audit(m_quadratic, 1.0, e0, samples=3, seed=1)


class TestHighSupportWindow:
    def test_delta_for_walk_started_away_from_origin(self, m_bd_kill):
        # exercises the expansion window when its floor sits above state 0
        u = PosSeq.basis(20)
        d = mass_loss_delta(m_bd_kill, 0.5, u)
        assert d.bracket.lo >= -1e-6 and d.bracket.hi <= 0.0
        ah = ahat_dp(m_bd_kill, 0.5, u)
        a0 = a0_on_integral(m_bd_kill, 0.5, u)
        assert ah.bracket.mid == pytest.approx(a0.mid, abs=1e-7)
