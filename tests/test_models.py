import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substochastic.l1 import PosSeq, leq, mass
from substochastic import minimal
from substochastic.minimal import resolvent_G, semigroup_V
from substochastic.models import (
    Kernel,
    ModelError,
    ModelSpec,
    STATE_LIMIT,
    OperatorWindow,
    RateFn,
    apply_A,
    apply_B,
    apply_J,
    apply_U,
    apply_resolvent_A,
    dissipativity_audit,
    model_from_json,
    model_to_json,
)
from substochastic.zoo import zoo_models

e0 = PosSeq.basis(0)


class TestRateFn:
    def test_power_and_table(self):
        r = RateFn.power(1.0, 2.0)
        assert r(0) == 1.0 and r(3) == 16.0
        tbl = RateFn.table([1.0, 2.0], tail_c=3.0, tail_p=1.0)
        assert tbl(0) == 1.0 and tbl(1) == 2.0 and tbl(2) == 9.0

    def test_array_matches_scalar(self):
        # bit for bit: every read is a view of RateFn.at
        for r in (RateFn.power(0.7, 1.5), RateFn.table([4.0, 5.0], tail_c=0.7, tail_p=1.5)):
            assert r.array(0, 1000).tolist() == [r(k) for k in range(1000)]
            assert r.at([999, 3, 0]).tolist() == [r(999), r(3), r(0)]

    def test_max_upto_covers_the_window(self, monkeypatch):
        m = ModelSpec.pure_birth(RateFn.power(0.7, 1.5), name="frac_birth")
        window_max = np.maximum.accumulate(OperatorWindow(m, 0, 4096).a)
        for n in range(64, 4097):
            assert window_max[n - 1] <= m.a.max_upto(n)
        # the uniformization constant never sits below a window rate, so
        # the stepper's diagonal 1 - a/c stays nonnegative
        monkeypatch.setattr(minimal, "_STEP_BUDGET", 100_000)
        _, bracket, _ = semigroup_V(m, 0.05, e0)
        assert 0.0 <= bracket.lo <= bracket.hi <= 1.0

    def test_reciprocal_tail_bound_is_upper_bound(self):
        r = RateFn.power(1.0, 2.0)
        for k0 in (0, 1, 7, 50):
            exact = math.fsum(1.0 / r.array(k0, 200_000))
            assert r.reciprocal_tail_bound(k0) >= exact
        assert math.isinf(RateFn.power(1.0, 1.0).reciprocal_tail_bound(0))

    def test_log_moment_holds_the_partial_sums(self):
        # K(th) = -sum_{m >= k0} log(1 - th/a_m) lies between a partial sum
        # over [k0, 200_000) and that sum plus th/(1 - th/a) times the
        # integral bound on the sum of 1/a_m past the cut
        for r in (RateFn.power(1.0, 2.0), RateFn.power(0.5, 3.0), RateFn.table([0.1, 9.0, 4.0], tail_c=2.0, tail_p=2.0)):
            cut = 2.0 * 0.05 * r.reciprocal_tail_bound(200_000)
            for k0 in (0, 1, 2, 7, 50):
                head = max(k0, len(r.values))
                lo, hi = r.log_moment(k0, [-0.05, 0.05], head)
                assert np.all(lo <= hi)
                below = -math.fsum(np.log1p(0.05 / r.array(k0, 200_000)))
                above = -math.fsum(np.log1p(-0.05 / r.array(k0, 200_000)))
                assert lo[0] <= below and below - cut <= hi[0] <= 0.0
                assert 0.0 <= lo[1] <= above + cut and above <= hi[1]
        # no finite tail when p <= 1, nor past a head inside the table
        for r, head in ((RateFn.power(1.0, 1.0), 0), (RateFn.table([1.0, 2.0], tail_c=1.0, tail_p=2.0), 1)):
            lo, hi = r.log_moment(head, [-1.0, 0.5], head)
            assert lo.tolist() == [-math.inf, 0.0] and hi.tolist() == [0.0, math.inf]

    def test_log_moment_holds_the_sinh_product(self):
        # a_m = (m+1)^2: sum_{m>=k0} log1p(lam/a_m) is log(sinh(s)/s), s = pi sqrt(lam),
        # less the first k0 terms; K(-lam) is its negative
        r = RateFn.power(1.0, 2.0)
        for lam in (0.5, 1.0, 2.0):
            s = math.pi * math.sqrt(lam)
            for k0 in (0, 1, 7, 1024):
                exact = math.log(math.sinh(s) / s) - math.fsum(math.log1p(lam / (n * n)) for n in range(1, k0 + 1))
                for head in (k0, k0 + 100):
                    lo, hi = (float(x[0]) for x in r.log_moment(k0, [-lam], head))
                    assert lo <= -exact <= hi
                    if k0 == 1024:
                        assert hi - lo <= 2e-9  # lam^2 S2/2 + lam (midpoint - trapezoid)

    def test_log_moment_holds_the_sine_product(self):
        # a_m = (m+1)^2 and 0 < th < 1: prod_{n>=1} (1 - th/n^2) = sin(s)/s,
        # s = pi sqrt(th), so K_0(th) = log(s/sin(s)), less the first k0 terms
        r = RateFn.power(1.0, 2.0)
        for th in (0.25, 0.5, 0.9):
            s = math.pi * math.sqrt(th)
            for k0 in (0, 7):
                exact = math.log(s / math.sin(s)) + math.fsum(math.log1p(-th / (n * n)) for n in range(1, k0 + 1))
                for head in (k0, 1024):
                    lo, hi = (float(x[0]) for x in r.log_moment(k0, [th], head))
                    assert 0.0 <= lo <= exact <= hi
                    if head == 1024:
                        assert hi - lo <= 1e-9

    @pytest.mark.parametrize(("k0", "head"), [(19, 1043), (128, 2176), (3, 40)])
    def test_log_moment_reads_each_th_alone(self, k0, head):
        # a th's K is the same bits alone as inside a 256-th call, in any order
        r = RateFn.power(1.0, 2.0)
        a = float((k0 + 1) ** 2)
        th = np.concatenate((-a * np.geomspace(1e4, 1e-4, 128), a * np.geomspace(1e-4, 0.999, 128)))
        lo, hi = r.log_moment(k0, th, head)
        for i, x in enumerate(th.tolist()):
            one_lo, one_hi = r.log_moment(k0, [x], head)
            assert (one_lo[0], one_hi[0]) == (lo[i], hi[i])
        perm = np.random.default_rng(0).permutation(th.size)
        mixed_lo, mixed_hi = r.log_moment(k0, th[perm], head)
        assert np.array_equal(mixed_lo, lo[perm]) and np.array_equal(mixed_hi, hi[perm])

    def test_log_moment_widens_instead_of_overflowing(self):
        # 1/c^2 overflows: the bracket drops the S2 form, never raises
        with np.errstate(all="raise"):
            lo, hi = RateFn.power(5.6e-309, 1.5).log_moment(1024, [-2.0], 1024)
        assert -math.inf < lo[0] <= hi[0] < 0.0
        assert RateFn.power(5.6e-309, 1.5).reciprocal_tail_bound(0, power=2.0) == math.inf

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            RateFn("exp", c=1.0)
        with pytest.raises(ModelError):
            RateFn.power(1.0, -1.0)
        with pytest.raises(ModelError):
            RateFn.power(1.0, math.nan)
        with pytest.raises(ModelError):
            RateFn.table([1.0, math.nan])

    def test_rejects_rates_whose_reciprocal_overflows(self):
        # the tail bounds divide by the rates: 1/5e-324 is inf in floats
        for bad in (
            lambda: RateFn.power(5e-324, 1.5),
            lambda: RateFn.power(5e-309, 0.0),
            lambda: RateFn.table([1.0, 5e-324]),
            lambda: RateFn.table([1.0], tail_c=1e-310, tail_p=2.0),
        ):
            with pytest.raises(ModelError):
                bad()
        # zero rates and a positive rate with a finite reciprocal still load
        assert RateFn.power(5.6e-309, 1.5).c == 5.6e-309
        assert RateFn.table([0.0, 5.6e-309], tail_c=0.0).values == (0.0, 5.6e-309)


class TestModelConstruction:
    def test_pure_birth_diagonal(self, m_quadratic):
        out = apply_A(m_quadratic, e0)
        assert out.minus.entries == {0: 1.0}
        assert apply_A(m_quadratic, PosSeq.zero()).minus.is_zero

    def test_birth_death_diagonal(self):
        m = ModelSpec.birth_death(1.0, 1.0, kill=0.0)
        out = apply_A(m, PosSeq.basis(2))
        assert out.minus.entries == {2: 2.0}

    def test_column_violation_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec.table(a_values=(1.0,), columns={0: [(1, 2.0)]})

    def test_conservative_mismatch_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec("t", RateFn.table((1.0,)), Kernel("table", columns=((0, ((1, 0.5),)),)), conservative=True)

    def test_conservative_declaration_checked_both_ways(self, m_quadratic):
        with pytest.raises(ModelError, match="declared conservative False"):
            model_from_json({**model_to_json(m_quadratic), "conservative": False})
        # columns 0..299 each feed k+1 at the full rate a_k = 1; the empty
        # column at 300, first past the table, kills
        doc = {
            "name": "chain300",
            "space": "l1",
            "A": {"kind": "power", "c": 1.0, "p": 0.0},
            "B": {"kind": "table", "columns": [[k, [[k + 1, 1.0]]] for k in range(300)], "tail": None},
            "conservative": True,
        }
        with pytest.raises(ModelError, match="declared conservative True"):
            model_from_json(doc)
        m = model_from_json({**doc, "conservative": False})
        assert m.kernel.extent == 300 and dissipativity_audit(m, 256).deficits[-1] == 1.0

    def test_zero_death_walk_is_the_cascade(self):
        b = RateFn.power(1.0, 2.0)
        # the death rate at state 0 is dropped, so only k >= 1 decide
        for death in (RateFn.power(0.0, 0.0), RateFn.table([3.0, 0.0], tail_c=0.0, tail_p=1.0)):
            assert Kernel("birth_death", birth=b, death=death) == Kernel("pure_birth", birth=b)
        assert Kernel("birth_death", birth=b, death=RateFn.table([0.0, 1.0], tail_c=0.0)).kind == "birth_death"
        m = ModelSpec.birth_death(b, 0.0, kill=RateFn.power(0.5, 2.0))
        assert model_to_json(m)["B"] == {"kind": "pure_birth", "birth": {"kind": "power", "c": 1.0, "p": 2.0}}
        assert model_from_json(model_to_json(m)) == m

    def test_kills_from(self, m_quadratic):
        # a_0 = 5 feeds state 1 at rate 1 and kills at rate 4; past it a = birth
        head_kill = ModelSpec("head_kill", RateFn.table([5.0], tail_c=1.0, tail_p=2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        assert head_kill.kills_from(0) and not head_kill.kills_from(1)
        # a thinner birth tail kills at every state, however far out
        thinner = ModelSpec("thinner", RateFn.power(2.0, 2.0), Kernel("pure_birth", birth=RateFn.power(1.0, 2.0)), False)
        assert all(thinner.kills_from(k) for k in (0, 1, 1000, 1 << 20))
        assert not any(m_quadratic.kills_from(k) for k in (0, 1, 1000))

    def test_named_states_lie_below_the_state_limit(self):
        # a table key or target at 2^21 is refused by the API as by the loader
        for cols in (((STATE_LIMIT, ((0, 0.5),)),), ((0, ((STATE_LIMIT, 0.5),)),)):
            with pytest.raises(ModelError, match="below 2\\^21"):
                Kernel("table", columns=cols)
        m = ModelSpec.table((1.0,), {0: [(STATE_LIMIT - 1, 0.5)], STATE_LIMIT - 1: [(0, 0.5)]})
        assert m.kernel.extent == STATE_LIMIT and m.deficit(0) == 0.5

    def test_overflowing_rates_rejected(self):
        # the audit reads the rates once, under errstate, and names the
        # overflow instead of reporting the inf - inf deficit it makes
        with np.errstate(all="raise"):
            with pytest.raises(ModelError, match="overflows"):
                ModelSpec.pure_birth(RateFn.power(1e300, 10.0))
            with pytest.raises(ModelError, match="overflows"):
                ModelSpec.birth_death(RateFn.power(1e300, 10.0), RateFn.power(1.0, 10.0))


class TestApplyB:
    def test_single_transition(self, m_quadratic):
        assert apply_B(m_quadratic, e0).entries == {1: 1.0}

    def test_zero_kernel(self, m_pure_loss):
        assert apply_B(m_pure_loss, PosSeq({0: 1.0, 4: 2.0})).is_zero

    def test_two_targets(self):
        m = ModelSpec.birth_death(1.0, 1.0, kill=0.0)
        out = apply_B(m, PosSeq.basis(2))
        assert out.entries == {1: 1.0, 3: 1.0}

    def test_unbounded_tail_rejected(self, m_yule):
        with pytest.raises(ModelError):
            apply_B(m_yule, PosSeq({0: 1.0}, 0.1))
        with pytest.raises(ModelError):
            apply_A(m_yule, PosSeq({0: 1.0}, 0.1))

    def test_bounded_rates_carry_the_tail(self, m_bd_kill):
        # bd_kill's rates are at most 2.5 (b = d = 1, kill 1/2), so a tail
        # of mass 1/4 feeds at most 2.5/4 through A and through B
        u = PosSeq({0: 1.0}, 0.25)
        assert m_bd_kill.a.sup_bound() == 2.5
        assert apply_B(m_bd_kill, u).tail_bound == 0.25 * 2.5
        assert apply_A(m_bd_kill, u).minus.tail_bound == 0.25 * 2.5


class TestResolventAndU:
    def test_resolvent_scaling(self, m_quadratic):
        assert apply_resolvent_A(m_quadratic, 1.0, e0).entries == {0: 0.5}
        assert apply_resolvent_A(m_quadratic, 1.0, PosSeq.zero()).is_zero

    def test_resolvent_linear_rates(self, m_yule):
        out = apply_resolvent_A(m_yule, 2.0, PosSeq.basis(3))
        assert out.entries[3] == pytest.approx(1.0 / 6.0)

    def test_resolvent_rejects_nonpositive_lambda(self, m_yule):
        with pytest.raises(ValueError):
            apply_resolvent_A(m_yule, 0.0, e0)

    def test_U_identity_and_decay(self, m_quadratic):
        assert apply_U(m_quadratic, 0.0, e0) is e0
        out = apply_U(m_quadratic, 1.0, e0)
        assert out.entries[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_U_uniform_decay_bound(self, m_yule):
        u = PosSeq({0: 0.5, 3: 0.5})
        for t in (1.0, 5.0):
            assert mass(apply_U(m_yule, t, u)).hi <= math.exp(-t) + 1e-15

    def test_U_rejects_negative_time(self, m_yule):
        with pytest.raises(ValueError):
            apply_U(m_yule, -0.1, e0)

    def test_semigroup_law_exact(self, m_quadratic):
        u = PosSeq({0: 0.4, 2: 0.6})
        lhs = apply_U(m_quadratic, 0.7, apply_U(m_quadratic, 0.3, u))
        rhs = apply_U(m_quadratic, 1.0, u)
        for k in u.entries:
            assert lhs.get(k) == pytest.approx(rhs.get(k), rel=1e-14)


class TestApplyJ:
    def test_shift_with_weight(self, m_quadratic):
        assert apply_J(m_quadratic, 1.0, e0).entries == {1: 0.5}

    def test_zero_kernel(self, m_pure_loss):
        assert apply_J(m_pure_loss, 1.0, e0).is_zero

    def test_telescoping_product(self, m_yule):
        # n applications of J at lambda=1 move e0 to e_n with weight 1/(n+1)
        u = e0
        for n in range(1, 8):
            u = apply_J(m_yule, 1.0, u)
            assert set(u.entries) == {n}
            assert u.entries[n] == pytest.approx(1.0 / (n + 1), rel=1e-14)

    @given(st.floats(min_value=0.1, max_value=10.0), entries_st := st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=1e-6, max_value=100.0),
        min_size=1,
        max_size=6,
    ))
    def test_cone_contraction(self, lam, entries):
        u = PosSeq(entries)
        for m in (ModelSpec.pure_birth(RateFn.power(1.0, 2.0)), ModelSpec.birth_death(1.0, 2.0, kill=0.5)):
            assert mass(apply_J(m, lam, u)).hi <= mass(u).hi * (1.0 + 1e-12)

    def test_tail_passes_through_unbounded_rates(self):
        # a conservative walk with linear rates: entries flushed below 1e-300
        # ride in the tail, which J never scales up
        m = ModelSpec.birth_death(RateFn.power(1.5, 1.0), RateFn.power(1.0, 1.0), name="bd_lin")
        w = e0
        for _ in range(1400):
            w = apply_J(m, 1.0, w)
        assert w.tail_bound > 0.0 and mass(w).hi <= 1.0
        assert apply_J(m, 1.0, PosSeq({3: 0.5}, 1e-300)).tail_bound == 1e-300

    def test_resolvent_monotone_in_lambda(self, m_quadratic, m_bd_kill):
        u = PosSeq({0: 1.0, 3: 0.25})
        for m in (m_quadratic, m_bd_kill):
            assert leq(apply_J(m, 2.0, u), apply_J(m, 0.5, u)) is True


class TestDissipativityAudit:
    def test_pure_birth_conservative(self, m_yule):
        rep = dissipativity_audit(m_yule, 32)
        assert not rep.violations
        assert rep.conservative_observed
        assert all(d == 0.0 for d in rep.deficits)

    def test_kill_deficit(self):
        m = ModelSpec.birth_death(1.0, 1.0, kill=1.0)
        rep = dissipativity_audit(m, 16)
        assert rep.deficits == tuple([1.0] * 17)
        assert not rep.conservative_observed

    def test_violation_flagged(self, m_yule):
        bad = Kernel("table", columns=((0, ((1, 5.0),)),))
        probe = ModelSpec.__new__(ModelSpec)
        object.__setattr__(probe, "name", "bad")
        object.__setattr__(probe, "a", RateFn.power(1.0, 0.0))
        object.__setattr__(probe, "kernel", bad)
        object.__setattr__(probe, "conservative", False)
        object.__setattr__(probe, "stride", 1)
        rep = dissipativity_audit(probe, 4)
        assert rep.violations and rep.violations[0][0] == 0


class TestEqCbBound:
    def test_b_flux_integral_below_input_mass(self, m_two_state, m_yule, m_bd_kill):
        # int_0^t |B U(s) u| ds <= |u| for cone inputs; the integrand is a
        # finite sum of exponentials, integrated exactly per entry
        scipy_integrate = pytest.importorskip("scipy.integrate")
        u = PosSeq({0: 0.25, 1: 0.5, 2: 0.25})
        for m in (m_two_state, m_yule, m_bd_kill):
            for t in (0.5, 2.0):
                val, err = scipy_integrate.quad(
                    lambda s: mass(apply_B(m, apply_U(m, s, u))).lo, 0.0, t, limit=200
                )
                assert val <= mass(u).lo + err + 1e-10


class TestModelJson:
    def test_round_trip(self, zoo):
        for m in zoo:
            doc = model_to_json(m)
            again = model_from_json(json.loads(json.dumps(doc)))
            assert model_to_json(again) == doc

    def test_unknown_fields_rejected(self, m_yule):
        doc = model_to_json(m_yule)
        doc["extra"] = 1
        with pytest.raises(ModelError):
            model_from_json(doc)
        doc = model_to_json(m_yule)
        doc["A"]["scale"] = 2
        with pytest.raises(ModelError):
            model_from_json(doc)

    def test_birth_death_kill_head_round_trips(self):
        doc = {
            "name": "bd_kill_head",
            "space": "l1",
            "A": {"kind": "table", "values": [2.5], "tail": {"c": 2.5, "p": 0.0}},
            "B": {
                "kind": "birth_death",
                "b": {"kind": "power", "c": 1.0, "p": 0.0},
                "d": {"kind": "power", "c": 1.0, "p": 0.0},
                "kill": {"kind": "table", "values": [1.5], "tail": {"c": 0.5, "p": 0.0}},
            },
            "conservative": False,
        }
        m = model_from_json(doc)
        again = model_from_json(json.loads(json.dumps(model_to_json(m))))
        ks = np.arange(301)
        assert again.deficits(ks).tolist() == m.deficits(ks).tolist()
        assert m.deficits(ks[:3]).tolist() == [1.5, 0.5, 0.5]

    def test_birth_death_diagonal_mismatch_rejected(self):
        m = ModelSpec.birth_death(1.0, 1.0, kill=0.5)
        doc = model_to_json(m)
        doc["A"] = {"kind": "power", "c": 9.0, "p": 0.0}
        with pytest.raises(ModelError):
            model_from_json(doc)

    def test_wrong_space_rejected(self, m_yule):
        doc = model_to_json(m_yule)
        doc["space"] = "l2"
        with pytest.raises(ModelError):
            model_from_json(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            {"conservative": "false"},  # bool("false") is True
            {"conservative": 0},
            {"A": {"kind": "power", "c": True, "p": 1.0}},
            {"A": {"kind": "power", "c": 1.0, "p": "1"}},
            {"A": {"kind": "power", "c": 1.0, "p": math.nan}},
            {"A": {"kind": "power", "c": math.inf, "p": 1.0}},
            pytest.param({"A": {"kind": "power", "c": 10**400, "p": 1.0}}, id="c-beyond-float-range"),
            {"A": {"kind": "power", "c": 1.0}},  # missing field
            {"A": {"kind": "table", "values": [1.0, False], "tail": {"c": 1.0, "p": 1.0}}},
            {"A": {"kind": "table", "values": "12", "tail": {"c": 1.0, "p": 1.0}}},
            {"A": {"kind": "table", "values": [1.0, math.nan], "tail": {"c": 1.0, "p": 1.0}}},
        ],
        ids=lambda e: json.dumps(e),
    )
    def test_strict_types_rejected(self, m_yule, edit):
        doc = {**model_to_json(m_yule), **edit}
        with pytest.raises(ModelError):
            model_from_json(doc)

    @staticmethod
    def _table_doc(columns):
        return {
            "name": "table",
            "space": "l1",
            "A": {"kind": "power", "c": 1.0, "p": 0.0},
            "B": {"kind": "table", "columns": columns, "tail": None},
            "conservative": False,
        }

    @pytest.mark.parametrize(
        "columns",
        [
            [[0, [[1, True]]]],  # rate must be a number, not a bool
            [[0, [[1, "0.5"]]]],
            [[0, [[1, math.nan]]]],
            [[0.0, [[1, 0.5]]]],  # keys and targets must be JSON integers
            [[True, [[1, 0.5]]]],
            [[0, [["1", 0.5]]]],
            [[0, [[1.5, 0.5]]]],
            [[0, [[1, 0.5, 7]]]],
            [[0, {"1": 0.5}]],
            [[0, [[1, 0.5]]], [0, [[1, 5.0]]]],  # duplicate key hiding a rate 5 > a_0 = 1
            [[1, [[-1, 0.5]]]],  # negative target
            [[-1, [[0, 0.5]]]],
            [[0, [[1, 5.0], [2, -4.0]]]],  # negative rate masking an excess
            [[300, [[301, 5.0]]]],  # violation beyond the first 257 states
            [[0, [[1 << 40, 0.5]]]],  # states at or past 2^21
            [[1 << 21, [[0, 0.5]]]],
            [[10**20, [[0, 0.5]]]],
        ],
        ids=lambda c: json.dumps(c),
    )
    def test_bad_table_kernel_rejected(self, columns):
        with pytest.raises(ModelError):
            model_from_json(self._table_doc(columns))

    @pytest.mark.parametrize(
        "a, b",
        [
            pytest.param(
                # b + d + kill = 7 against a_280 = 3: deficit(280) was -3
                {"kind": "table", "values": [2.0], "tail": {"c": 3.0, "p": 0.0}},
                {
                    "kind": "birth_death",
                    "b": {"kind": "table", "values": [1.0] * 280 + [5.0] + [1.0] * 19, "tail": {"c": 1.0, "p": 0.0}},
                    "d": {"kind": "power", "c": 1.0, "p": 0.0},
                    "kill": {"kind": "power", "c": 1.0, "p": 0.0},
                },
                id="birth-death-rate-head-280",
            ),
            pytest.param(
                # 0.01 (k+1)^1.2 outgrows (k+1) only past k ~ 1e10
                {"kind": "power", "c": 1.0, "p": 1.0},
                {"kind": "pure_birth", "birth": {"kind": "table", "values": [0.5], "tail": {"c": 0.01, "p": 1.2}}},
                id="pure-birth-table-tail",
            ),
            pytest.param(
                # 1e-40 (k+1)^10 is below rounding up to k = 256; deficit(20000) was -1023.5
                {"kind": "table", "values": [1.0], "tail": {"c": 2.0, "p": 0.0}},
                {
                    "kind": "birth_death",
                    "b": {"kind": "power", "c": 1e-40, "p": 10.0},
                    "d": {"kind": "power", "c": 1.0, "p": 0.0},
                    "kill": {"kind": "power", "c": 1.0, "p": 0.0},
                },
                id="birth-death-power-tail",
            ),
            pytest.param(
                # one exponent, but the tail coefficients sum to 2.5 against A's 3
                {"kind": "table", "values": [2.0] + [3.0] * 299, "tail": {"c": 3.0, "p": 0.0}},
                {
                    "kind": "birth_death",
                    "b": {"kind": "table", "values": [1.0] * 300, "tail": {"c": 0.5, "p": 0.0}},
                    "d": {"kind": "power", "c": 1.0, "p": 0.0},
                    "kill": {"kind": "power", "c": 1.0, "p": 0.0},
                },
                id="birth-death-tail-coefficient",
            ),
        ],
    )
    def test_deep_rate_violation_rejected(self, a, b):
        doc = {"name": "deep", "space": "l1", "A": a, "B": b, "conservative": False}
        with pytest.raises(ModelError):
            model_from_json(doc)

    def test_deep_table_columns_load(self):
        m = model_from_json(self._table_doc([[300, [[301, 0.25], [299, 0.75]]], [2, [[0, 1.0]]]]))
        assert m.deficit(300) == 0.0 and m.deficit(2) == 0.0 and m.deficit(301) == 1.0


_rate_coef = st.floats(min_value=0.0, max_value=4.0)
_rate_exp = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_rate_doc = st.one_of(
    st.builds(lambda c, p: {"kind": "power", "c": c, "p": p}, _rate_coef, _rate_exp),
    st.builds(
        lambda values, c, p: {"kind": "table", "values": values, "tail": {"c": c, "p": p}},
        st.lists(_rate_coef, max_size=5),
        _rate_coef,
        _rate_exp,
    ),
)
_kernel_doc = st.one_of(
    st.just({"kind": "zero"}),
    st.just({"kind": "pure_birth"}),
    st.builds(lambda birth: {"kind": "pure_birth", "birth": birth}, _rate_doc),
    st.builds(
        lambda b, d, kill: {"kind": "birth_death", "b": b, "d": d, "kill": kill}, _rate_doc, _rate_doc, _rate_doc
    ),
    st.builds(
        lambda cols: {"kind": "table", "columns": [[k, col] for k, col in cols.items()], "tail": None},
        st.dictionaries(
            st.integers(0, 5),
            st.lists(st.tuples(st.integers(0, 8), _rate_coef).map(list), max_size=3),
            max_size=4,
        ),
    ),
)


def _bd_doc(cb, cd, ck, p, conservative):
    """A birth-death file whose diagonal matches b + d + kill (no death at 0)."""
    a = {"kind": "table", "values": [cb + ck], "tail": {"c": cb + cd + ck, "p": p}}
    b, d, kill = ({"kind": "power", "c": c, "p": p} for c in (cb, cd, ck))
    B = {"kind": "birth_death", "b": b, "d": d, "kill": kill}
    return {"name": "fuzz", "space": "l1", "A": a, "B": B, "conservative": conservative}


def _assert_loads_substochastic(doc, max_terms):
    try:
        m = model_from_json(doc)
    except ModelError:
        return
    # hypothesis rejects the function-scoped monkeypatch fixture in @given tests
    with mock.patch.object(minimal, "_SERIES_MAX_TERMS", max_terms), mock.patch.object(minimal, "_STEP_BUDGET", 20_000):
        for k in range(4):
            u = PosSeq.basis(k)
            assert resolvent_G(m, 1.0, u, tol=1e-6).mass_bracket.hi <= 1.0 + 1e-12
            _, br, _ = semigroup_V(m, 0.25, u)
            assert 0.0 <= br.lo <= br.hi <= 1.0 + 1e-12


class TestLoaderFuzz:
    """A generated model file either fails to load with a ModelError or gives
    a substochastic resolvent and semigroup on e_0 ... e_3."""

    @given(_rate_doc, _kernel_doc, st.booleans())
    def test_loaded_models_are_substochastic(self, a, b, conservative):
        doc = {"name": "fuzz", "space": "l1", "A": a, "B": b, "conservative": conservative}
        _assert_loads_substochastic(doc, max_terms=2000)

    # independent b, d and kill almost never pass the diagonal audit above,
    # so consistent files are drawn here; a walk's support grows by one state
    # per resolvent term, which the shorter series (certified at any length)
    # and the exponents up to 1 keep it near half a second
    @settings(max_examples=20)
    @given(st.builds(_bd_doc, _rate_coef, _rate_coef, _rate_coef, st.sampled_from([0.0, 0.5, 1.0]), st.booleans()))
    def test_loaded_birth_death_is_substochastic(self, doc):
        _assert_loads_substochastic(doc, max_terms=200)


def _window_cases():
    frac = (
        ModelSpec.pure_birth(RateFn.power(0.7, 1.5), name="frac_birth"),
        ModelSpec.birth_death(RateFn.power(0.7, 1.5), RateFn.power(0.3, 1.5), name="frac_bd"),
    )
    cases = []
    for m in zoo_models() + frac:
        cases += [(m, 0, 16), (m, 3, 20)]
        if m.kernel.kind == "birth_death":
            cases.append((m, 1, 12))  # the death at lo leaks to 0
    return cases


def _old_window_matrix(m, lo, hi):
    """The dense B on [lo, hi) as DPState used to assemble it."""
    bmat = np.zeros((hi - lo, hi - lo))
    for k in range(lo, hi):
        for j, r in m.column(k):
            if r > 0 and lo <= j < hi:
                bmat[j - lo, k - lo] += r
    return bmat


class TestOperatorWindow:
    @pytest.mark.parametrize("m, lo, hi", _window_cases(), ids=lambda x: getattr(x, "name", x))
    def test_matches_sparse_primitives(self, m, lo, hi):
        win = OperatorWindow(m, lo, hi)
        ks = range(lo, hi)
        assert win.a.tolist() == [m.a(k) for k in ks]
        assert win.colsum.tolist() == [math.fsum(r for _, r in m.column(k)) for k in ks]
        for i, k in enumerate(ks):
            e = np.zeros(hi - lo)
            e[i] = 1.0
            fed = apply_B(m, PosSeq.basis(k)).entries
            inside = np.zeros(hi - lo)
            for j, v in fed.items():
                if lo <= j < hi:
                    inside[j - lo] = v
            assert win.apply_B(e).tolist() == inside.tolist()
            assert win.leak[i] == math.fsum(v for j, v in fed.items() if not lo <= j < hi)
        # B applied along the last axis to the identity gives B^T row by row
        assert np.array_equal(win.apply_B(np.eye(hi - lo)), _old_window_matrix(m, lo, hi).T)

    @pytest.mark.parametrize("m, lo, hi", _window_cases(), ids=lambda x: getattr(x, "name", x))
    def test_random_vectors_and_adjoint(self, m, lo, hi):
        rng = np.random.default_rng(lo * 1000 + hi)
        win = OperatorWindow(m, lo, hi)
        v, p = rng.random(hi - lo), rng.random(hi - lo)
        bv = win.apply_B(v)
        fed = apply_B(m, PosSeq({lo + i: x for i, x in enumerate(v)})).entries
        want = [fed.get(k, 0.0) for k in range(lo, hi)]
        assert bv == pytest.approx(want, rel=1e-14, abs=0.0)
        assert float(p @ bv) == pytest.approx(float(win.apply_Bt(p) @ v), rel=1e-13)
        # a stack is applied row by row, bit for bit
        stack = np.stack([v, p])
        assert np.array_equal(win.apply_B(stack), np.stack([bv, win.apply_B(p)]))
        assert np.array_equal(win.apply_Bt(stack), np.stack([win.apply_Bt(v), win.apply_Bt(p)]))

    def test_leaks_at_both_edges(self, m_bd_kill, m_quadratic):
        bd = OperatorWindow(m_bd_kill, 1, 12)
        assert bd.leak[0] == 1.0 and bd.leak[-1] == 1.0 and not bd.leak[1:-1].any()
        pb = OperatorWindow(m_quadratic, 0, 16)
        assert pb.leak[-1] == 256.0 and not pb.leak[:-1].any()

    def test_build_peak(self, m_bd_kill, m_two_state):
        # the states, a, the bands, colsum and leak: no mask or copy per band
        n = 1 << 20
        for m, vectors in ((m_bd_kill, 6.0), (m_two_state, 5.0)):
            tracemalloc.start()
            try:
                OperatorWindow(m, 0, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (vectors + 0.01) * 8 * n, m.name

    def test_empty_window_rejected(self, m_yule):
        with pytest.raises(ValueError):
            OperatorWindow(m_yule, 3, 3)
