import math

import numpy as np
import pytest

from substochastic import montecarlo
from substochastic.l1 import PosSeq
from substochastic.minimal import semigroup_V
from substochastic.models import Kernel, ModelSpec, RateFn
from substochastic.montecarlo import (
    SimEstimates,
    explosion_cdf,
    simulate,
    simulate_path,
)

e0 = PosSeq.basis(0)


class TestValidation:
    def test_seed_zero_reserved(self, m_yule):
        with pytest.raises(ValueError):
            simulate(m_yule, e0, 1.0, 10, seed=0)

    def test_initial_must_be_normalized(self, m_yule):
        with pytest.raises(ValueError):
            simulate(m_yule, PosSeq.basis(0, 0.5), 1.0, 10, seed=1)


class TestDeterminism:
    def test_bitwise_reproducible(self, m_quadratic):
        a = simulate(m_quadratic, e0, 1.0, 10_000, seed=9)
        b = simulate(m_quadratic, e0, 1.0, 10_000, seed=9)
        assert a == b

    def test_seed_sensitivity(self, m_quadratic):
        a = simulate(m_quadratic, e0, 1.0, 10_000, seed=9)
        b = simulate(m_quadratic, e0, 1.0, 10_000, seed=10)
        assert a.exploded != b.exploded


class TestOutcomeAccounting:
    def test_frequencies_sum_to_one(self, zoo):
        for m in zoo:
            est = simulate(m, e0, 0.8, 5_000, seed=4)
            assert est.counts_sum_to_one
            assert est.aborted == 0

    def test_conservative_models_never_killed(self, m_yule, m_quadratic, m_bd_conservative):
        for m in (m_yule, m_quadratic, m_bd_conservative):
            est = simulate(m, e0, 1.0, 5_000, seed=4)
            assert est.killed == 0.0


class TestAgainstClosedForms:
    def test_pure_loss_survival(self, m_pure_loss):
        est = simulate(m_pure_loss, e0, 1.0, 100_000, seed=42)
        assert est.survival == pytest.approx(math.exp(-1.0), abs=3 * est.survival_ci)

    def test_two_state_survival(self, m_two_state):
        est = simulate(m_two_state, e0, 1.0, 100_000, seed=42)
        exact = math.exp(-1.0) + math.exp(-1.0) - math.exp(-2.0)
        assert est.survival == pytest.approx(exact, abs=3 * est.survival_ci)

    def test_kill_thinning_survival(self, m_bd_kill):
        # constant kill rate 0.5 thins the conservative walk independently
        est = simulate(m_bd_kill, e0, 2.0, 50_000, seed=11)
        assert est.survival == pytest.approx(math.exp(-1.0), abs=3 * est.survival_ci)

    @pytest.mark.parametrize(
        "m",
        [
            # a three-target column and an empty one (state 3 always dies)
            ModelSpec.table(
                (3.0, 2.0, 4.0, 1.0, 2.5),
                {
                    0: [(1, 1.0), (3, 0.5), (4, 1.0)],
                    1: [(0, 0.5), (2, 1.0)],
                    2: [(4, 2.0), (0, 1.0), (1, 0.5)],
                    3: [],
                    4: [(0, 1.0), (2, 1.5)],
                },
                name="table_three_targets",
            ),
        ],
        ids=lambda m: m.name,
    )
    def test_stepper_matches_semigroup_mass(self, m):
        est = simulate(m, e0, 1.0, 20_000, seed=13)
        assert est.counts_sum_to_one and est.aborted == 0
        _, mass, _ = semigroup_V(m, 1.0, e0)
        assert mass.lo - 4 * est.survival_ci <= est.survival <= mass.hi + 4 * est.survival_ci

    @pytest.mark.parametrize(
        "m",
        [
            # killing cascade: birth 1.5(k+1) under the diagonal 2(k+1)
            ModelSpec(
                "killing_birth",
                RateFn.power(2.0, 1.0),
                Kernel("pure_birth", birth=RateFn.power(1.5, 1.0)),
                conservative=False,
            ),
        ],
        ids=lambda m: m.name,
    )
    def test_clock_runner_matches_semigroup_mass(self, m, monkeypatch):
        # every pure-birth kernel runs on the clock runner, killing or not
        monkeypatch.setattr(montecarlo, "_run_stepper_chunk", None)
        est = simulate(m, e0, 1.0, 20_000, seed=13)
        assert est.counts_sum_to_one and est.aborted == 0 and est.exploded == 0.0
        _, mass, _ = semigroup_V(m, 1.0, e0)
        assert mass.lo - 4 * est.survival_ci <= est.survival <= mass.hi + 4 * est.survival_ci

    def test_yule_never_explodes(self, m_yule):
        est = simulate(m_yule, e0, 1.0, 50_000, seed=5)
        assert est.survival == 1.0 and est.exploded == 0.0 and est.aborted == 0

    def test_stepper_step_cap_aborts_live_paths(self, m_closed_chain, monkeypatch):
        # the closed chain jumps until t: past the patched step cap of the
        # bounded-kernel runner its live paths are aborted
        assert simulate(m_closed_chain, e0, 5.0, 2_000, seed=5).aborted == 0
        monkeypatch.setattr(montecarlo, "_STEPPER_MAX_STEPS", 3)
        est = simulate(m_closed_chain, e0, 5.0, 2_000, seed=5)
        assert 0 < est.aborted <= 2_000

    def test_mixed_initial_distribution(self, m_pure_loss):
        init = PosSeq({0: 0.5, 1: 0.5})
        est = simulate(m_pure_loss, init, 1.0, 50_000, seed=5)
        assert est.survival == pytest.approx(math.exp(-1.0), abs=4 * est.survival_ci)


# (model, start, t, n_paths, seed) -> (survival, survival_ci, killed,
# killed_ci), recorded before the stepper kept live paths only and its jump
# table became a window; both keep the draws and every row bit for bit
_STEPPER_BYTES = [
    ("m_bd_kill", PosSeq.basis(0), 0.5, 10_000, 7, (0.7767, 0.008162573134594264, 0.2233, 0.008162573134594262)),
    ("m_bd_kill", PosSeq.basis(0), 1.0, 10_000, 7, (0.5998, 0.009602799124921858, 0.4002, 0.009602799124921858)),
    ("m_bd_kill", PosSeq.basis(0), 2.0, 10_000, 7, (0.3691, 0.009458197047556157, 0.6309, 0.009458197047556157)),
    ("m_bd_kill", PosSeq({0: 0.5, 300: 0.5}), 1.0, 5_000, 7, (0.606, 0.013544266553785775, 0.394, 0.013544266553785775)),
    ("m_bd_kill", PosSeq.basis(4096), 1.0, 1_000, 3, (0.62, 0.030084563483620635, 0.38, 0.030084563483620635)),
    ("m_closed_chain", PosSeq.basis(0), 0.5, 10_000, 7, (0.9474, 0.004375378552582621, 0.0526, 0.004375378552582622)),
    ("m_closed_chain", PosSeq.basis(0), 1.0, 10_000, 7, (0.8964, 0.005972922407532179, 0.1036, 0.0059729224075321784)),
    ("m_closed_chain", PosSeq.basis(0), 2.0, 10_000, 7, (0.7926, 0.00794671213763277, 0.2074, 0.00794671213763277)),
]


class TestStepper:
    @pytest.mark.parametrize("fixture, initial, t, n, seed, pinned", _STEPPER_BYTES)
    def test_estimates_pinned(self, request, fixture, initial, t, n, seed, pinned):
        s, s_ci, k, k_ci = pinned
        expected = SimEstimates(t, n, seed, s, s_ci, 0.0, 0.0, k, k_ci, 0)
        assert simulate(request.getfixturevalue(fixture), initial, t, n, seed) == expected

    def test_cost_follows_the_paths(self, m_bd_kill, monkeypatch):
        # no path from 2^12 or 2^18 reaches 0 by t = 1, so the two starts
        # draw alike and only the table's window moves
        spans = []
        cover = montecarlo._JumpTable.cover

        def spy(table, m, bottom, top):
            cover(table, m, bottom, top)
            spans.append(table.hi - table.lo)

        monkeypatch.setattr(montecarlo._JumpTable, "cover", spy)
        far = simulate(m_bd_kill, PosSeq.basis(1 << 18), 1.0, 1000, 3)
        assert max(spans) <= 4096
        assert far == simulate(m_bd_kill, PosSeq.basis(1 << 12), 1.0, 1000, 3)

    def test_window_rows_match_the_full_table(self):
        # a non-integer exponent, where a rate's last bit could depend on
        # how it is evaluated; every row must read the same in any window
        m = ModelSpec(
            "killing_birth_15",
            RateFn.power(2.0, 1.5),
            Kernel("pure_birth", birth=RateFn.power(1.5, 1.5)),
            conservative=False,
        )
        full, window = montecarlo._JumpTable(), montecarlo._JumpTable()
        full.cover(m, 0, 999)
        window.cover(m, 700, 710)
        window.cover(m, 650, 760)
        assert full.lo == 0 and 0 < window.lo <= 650 and 760 < window.hi <= full.hi
        rows = slice(window.lo, window.hi)
        assert np.array_equal(window.a, full.a[rows])
        assert np.array_equal(window.cum, full.cum[rows])
        assert np.array_equal(window.tgt, full.tgt[rows])


    def test_a_cover_reads_the_rates_once(self, m_closed_chain, monkeypatch):
        # one evaluation of the diagonal rates for the whole window, not one
        # per state (a table kernel reads no rate of its own)
        calls = []
        at = RateFn.at

        def spy(rate, ks):
            calls.append(np.size(ks))
            return at(rate, ks)

        monkeypatch.setattr(RateFn, "at", spy)
        table = montecarlo._JumpTable()
        table.cover(m_closed_chain, 0, 7)
        assert calls == [table.hi - table.lo]


def _cascade(name: str, a0: float, birth: RateFn) -> ModelSpec:
    """a_0 = a0 feeds state 1 at rate 1 and kills the rest; past it a = birth = (k+1)^2."""
    return ModelSpec(name, RateFn.table([a0], tail_c=1.0, tail_p=2.0), Kernel("pure_birth", birth=birth), False)


TABLE_BIRTH = _cascade("table_birth", 2.0, RateFn.table([1.0], tail_c=1.0, tail_p=2.0))
HEAD_KILL = _cascade("head_kill", 5.0, RateFn.power(1.0, 2.0))


class TestKillingCascades:
    """Killed paths die at state 0, at rate a0 - 1 for an Exponential(a0)
    time: the killed mass is (1 - 1/a0)(1 - e^{-a0 t}), and every other path
    that is not alive has exploded."""

    @pytest.mark.parametrize(
        "m, a0, ts",
        [(TABLE_BIRTH, 2.0, (0.5, 1.0, 2.0)), (HEAD_KILL, 5.0, (0.25, 1.0))],
        ids=["table_birth", "head_kill"],
    )
    def test_fractions_hold_the_laws(self, m, a0, ts):
        n = 100_000

        def off_by(est: float, lo: float, hi: float) -> float:
            """The distance of est from [lo, hi] in binomial standard errors."""
            p = min(max(est, 1.0 / n), 1.0 - 1.0 / n)
            return max(lo - est, est - hi, 0.0) / math.sqrt(p * (1.0 - p) / n)

        for t in ts:
            est = simulate(m, e0, t, n, seed=1)
            assert est.counts_sum_to_one and est.aborted == 0
            _, mass, _ = semigroup_V(m, t, e0)
            killed = (1.0 - 1.0 / a0) * -math.expm1(-a0 * t)
            assert off_by(est.survival, mass.lo, mass.hi) <= 5.0
            assert off_by(est.killed, killed, killed) <= 5.0
            assert off_by(est.exploded, 1.0 - killed - mass.hi, 1.0 - killed - mass.lo) <= 5.0
            assert est.exploded > 0.0 or t < 1.0

    def test_explosion_threshold(self, m_quadratic):
        # the explosive walk b = 2(k+1)^2, d = (k+1)^2 has a convergent
        # reciprocal rate sum, but no certificate holds for walks
        walk = ModelSpec.birth_death(RateFn.power(2.0, 2.0), RateFn.power(1.0, 2.0))
        assert montecarlo._explosion_threshold(walk, 5) == math.inf
        # below its last killing state a cascade's path may still be killed
        assert montecarlo._explosion_threshold(HEAD_KILL, 0) == math.inf
        assert montecarlo._explosion_threshold(HEAD_KILL, 1) < math.inf
        assert montecarlo._explosion_threshold(HEAD_KILL, 1) == montecarlo._explosion_threshold(m_quadratic, 1)

    def test_scalar_reference_kills_and_explodes(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_JUMP_CHECK", 64)
        rng = np.random.Generator(np.random.Philox(key=[79, 0]))
        outs = [simulate_path(TABLE_BIRTH, 0, 5.0, rng).status for _ in range(400)]
        assert {"killed", "exploded"} <= set(outs) <= {"alive", "killed", "exploded"}
        assert outs.count("killed") == pytest.approx(200, abs=5 * 10)


class TestExplosionCdf:
    def test_zero_time_and_monotone(self, m_quadratic):
        grid = (0.0, 0.5, 1.0, 2.0)
        ests = explosion_cdf(m_quadratic, 0, grid, 10_000, seed=13)
        assert ests[0].exploded == 0.0
        vals = [c.exploded for c in ests]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_honest_model_flat_zero(self, m_yule):
        ests = explosion_cdf(m_yule, 0, (0.5, 1.0), 5_000, seed=13)
        assert all(c.exploded == 0.0 for c in ests)

    def test_matches_mass_loss_over_grid(self, m_quadratic):
        # |Delta_{e0}(t)| is the explosion probability of the conservative
        # cascade; the empirical cdf must track it at every grid point
        from substochastic.honesty import mass_loss_delta

        grid = (0.5, 1.0, 2.0)
        ests = explosion_cdf(m_quadratic, 0, grid, 50_000, seed=31)
        for t, est in zip(grid, ests):
            d = mass_loss_delta(m_quadratic, t, e0)
            sigma = max(est.exploded_ci / 1.96, 1e-6)
            assert abs(est.exploded - abs(d.bracket.mid)) <= 3.0 * sigma + d.bracket.width / 2.0


class TestScalarReference:
    def test_outcomes_and_statistics(self, m_two_state):
        rng = np.random.Generator(np.random.Philox(key=[77, 0]))
        outs = [simulate_path(m_two_state, 0, 1.0, rng) for _ in range(4_000)]
        assert {o.status for o in outs} <= {"alive", "killed"}
        surv = sum(o.status == "alive" for o in outs) / len(outs)
        exact = math.exp(-1.0) + math.exp(-1.0) - math.exp(-2.0)
        assert surv == pytest.approx(exact, abs=0.035)
        killed = [o for o in outs if o.status == "killed"]
        assert all(o.time_of_absorption <= 1.0 for o in killed)

    def test_explodes_on_runaway_cascade(self, m_quadratic, monkeypatch):
        monkeypatch.setattr(montecarlo, "_JUMP_CHECK", 512)
        rng = np.random.Generator(np.random.Philox(key=[78, 0]))
        hits = [simulate_path(m_quadratic, 0, 5.0, rng).status for _ in range(200)]
        assert hits.count("exploded") > 150
