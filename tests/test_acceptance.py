"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 7 is split: 7a states bracket overlap across
the resolvent parameter for *all* zoo models, which is mathematically
unattainable on dishonest data (the defect values are genuinely
lambda-dependent; only their zero set is not) -- it is kept as a strict
expected failure; 7b checks the meaningful invariant, classification
agreement across the sweep.
"""

import math
import time

import numpy as np
import pytest

from substochastic.dyson import (
    dp_convolution_residual,
    dp_laplace,
    dp_partial_sum,
    dp_term,
)
from substochastic.honesty import (
    DISHONEST,
    HONEST,
    a0_on_integral,
    ahat_dp,
    delta_by_routes,
    hereditary_audit,
    honesty_verdict,
    mass_loss_delta,
    subsolution_check,
    xi,
    xi_dual,
)
from substochastic.l1 import PosSeq
from substochastic.minimal import integrate_V, resolvent_G, semigroup_V
from substochastic.models import ModelSpec, apply_J
from substochastic.zoo import quadratic_birth, two_state, yule, zoo_models

e0 = PosSeq.basis(0)
EXP1 = math.exp(-1.0)
EXP2 = math.exp(-2.0)

XI_QUAD = 0.2720290549821331  # pi/sinh(pi), cross-checked by the product oracle


class _Clock:
    def __init__(self, num: str, limit: float | None):
        self.num, self.limit = num, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        cap = f" (limit {self.limit:.0f}s)" if self.limit else ""
        print(f"ACCEPTANCE {self.num}: {status} in {dt:.2f}s{cap}")
        if exc_type is None and self.limit is not None:
            assert dt < self.limit, f"criterion {self.num} exceeded its runtime limit"
        return False


def test_01_dishonesty_certificate():
    with _Clock("01 dishonesty certificate", 1.0):
        # independent oracle: 1e6 partial products with reciprocal-square tail
        m = np.arange(1.0, 1_000_001.0)
        upper = math.exp(-np.log1p(1.0 / (m * m)).sum())
        lower = upper * math.exp(-1.0 / 1_000_000.0)
        assert lower <= XI_QUAD <= upper and upper - lower < 1e-6
        model = quadratic_birth()
        x = xi(model, 1.0, e0)
        assert abs(x.bracket.mid - XI_QUAD) <= 1e-6
        assert x.bracket.lo <= XI_QUAD <= x.bracket.hi
        rep = honesty_verdict(model, e0)
        assert rep.verdict == DISHONEST


def test_02_honesty_certificate():
    with _Clock("02 honesty certificate", 10.0):
        model = yule()
        x = xi(model, 1.0, e0)
        assert 0.0 <= x.bracket.lo and x.bracket.hi <= 1e-6
        assert honesty_verdict(model, e0).verdict == HONEST
        for t in (0.5, 1.0, 2.0, 5.0):
            d = mass_loss_delta(model, t, e0)
            assert d.bracket.lo >= -1e-6 and d.bracket.hi <= 0.0


def _random_closed_model(rng: np.random.Generator) -> ModelSpec:
    n = int(rng.integers(2, 33))
    a = 0.5 + 2.5 * rng.random(n)
    cols = {}
    for k in range(n):
        n_t = int(rng.integers(0, 3))
        targets = rng.choice(n, size=n_t, replace=False) if n_t else []
        raw = rng.random(n_t)
        scale = 0.9 * a[k] / max(raw.sum(), 1.0)
        cols[k] = [(int(j), float(r * scale)) for j, r in zip(targets, raw) if j != k]
    return ModelSpec.table(tuple(a), cols, name=f"closed{n}")


def test_03_finite_dimensional_exactness():
    with _Clock("03 finite-dimensional exactness", 30.0):
        rng = np.random.default_rng(314159)
        for _ in range(50):
            model = _random_closed_model(rng)
            n = len(model.a.values)
            lam = 1.0
            res = resolvent_G(model, lam, e0, tol=1e-13)
            q = np.diag([-model.a(k) for k in range(n)]).astype(float)
            for k in range(n):
                for j, r in model.column(k):
                    q[j, k] += r
            ref = np.linalg.solve(lam * np.eye(n) - q, np.eye(n)[0])
            got = np.array([res.value.get(k) for k in range(n)])
            denom = max(np.abs(ref).max(), 1e-300)
            assert np.abs(got - ref).max() / denom <= 1e-10
            assert honesty_verdict(model, e0).verdict == HONEST


def test_04_two_state_closed_forms():
    with _Clock("04 two-state closed forms", 1.0):
        model = two_state()
        v, vbr, _ = semigroup_V(model, 1.0, e0)
        assert v.get(0) == pytest.approx(EXP1, abs=1e-8)
        assert v.get(1) == pytest.approx(EXP1 - EXP2, abs=1e-8)
        iv, ibr, _ = integrate_V(model, 1.0, e0)
        assert iv.get(0) == pytest.approx(1.0 - EXP1, abs=1e-8)
        assert iv.get(1) == pytest.approx(0.5 - EXP1 + 0.5 * EXP2, abs=1e-8)
        oracle = 1.0 - 2.0 * EXP1 + EXP2  # exact scalar integrals
        a0 = a0_on_integral(model, 1.0, e0)
        ah = ahat_dp(model, 1.0, e0)
        ((res_route, dp_route),) = delta_by_routes(model, (1.0,), e0)
        for name, val in (
            ("a0", a0.mid),
            ("ahat", ah.bracket.mid),
            ("abar", res_route.functional.mid),
        ):
            assert val == pytest.approx(oracle, abs=1e-8), name


def test_05_expansion_laws():
    with _Clock("05 expansion laws", 60.0):
        from substochastic.models import apply_resolvent_A

        for model in (two_state(), yule()):
            for t in (0.5, 1.0):
                v, vbr, _ = semigroup_V(model, t, e0)
                running = 0.0
                for n in range(6):
                    term = dp_term(model, n, t, e0)
                    running += term.mass
                    assert running <= 1.0 + term.error + 1e-9  # mass bound
                ps = dp_partial_sum(model, 5, t, e0)
                for k, val in ps.value.entries.items():  # domination
                    assert val <= v.get(k) + vbr.width + ps.error + 1e-9
            for n in (0, 1, 2):  # convolution law
                assert dp_convolution_residual(model, n, 0.5, 0.5, e0) <= 1e-8
            for n in range(5):  # resolvent identity of the weighted integrals
                lp = dp_laplace(model, n, 1.0, e0)
                w = e0
                for _ in range(n):
                    w = apply_J(model, 1.0, w)
                ref = apply_resolvent_A(model, 1.0, w)
                resid = sum(
                    abs(lp.value.get(k) - ref.get(k))
                    for k in set(lp.value.entries) | set(ref.entries)
                )
                assert resid <= 1e-6


def test_06_route_equivalence():
    with _Clock("06 route equivalence", 120.0):
        for model in zoo_models():
            ts = (0.5, 1.0)
            for t, (res, dp) in zip(ts, delta_by_routes(model, ts, e0)):
                disc = abs(res.bracket.mid - dp.bracket.mid)
                assert disc <= 1e-6, (model.name, t, disc)


_SWEEP = (0.5, 1.0, 2.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: on dishonest data the defect value depends on "
        "the resolvent parameter (e.g. 0.488/0.272/0.105 on the quadratic "
        "cascade); only its zero set is parameter-free, which 7b checks"
    ),
)
def test_07a_lambda_bracket_overlap_as_stated():
    with _Clock("07a lambda bracket overlap (as stated)", None):
        for model in zoo_models():
            for idx in range(5):
                brs = [xi(model, lam, PosSeq.basis(idx)).bracket for lam in _SWEEP]
                for i in range(len(brs)):
                    for j in range(i + 1, len(brs)):
                        assert brs[i].overlaps(brs[j]), (model.name, idx)


def test_07b_lambda_classification_agreement():
    with _Clock("07b lambda classification agreement", None):
        tol = 1e-7
        for model in zoo_models():
            for idx in range(5):
                u = PosSeq.basis(idx)
                verdicts = set()
                honest_brackets = []
                for lam in _SWEEP:
                    b = xi(model, lam, u).bracket
                    verdicts.add("zero" if b.hi <= tol else "positive")
                    if b.hi <= tol:
                        honest_brackets.append(b)
                assert len(verdicts) == 1, (model.name, idx)
                # where the defect vanishes the brackets do all overlap
                for i in range(len(honest_brackets)):
                    for j in range(i + 1, len(honest_brackets)):
                        assert honest_brackets[i].overlaps(honest_brackets[j])


def test_08_dual_route():
    with _Clock("08 dual route", 30.0):
        model = quadratic_birth()
        n_top = 1 << 20
        dw = xi_dual(model, 1.0, n_top, n_top)
        assert dw.residual <= 1e-8
        for k in range(11):
            x = xi(model, 1.0, PosSeq.basis(k))
            assert dw.values[k] == pytest.approx(x.bracket.mid, abs=1e-6), k


def test_09_monte_carlo_cross_oracle():
    with _Clock("09 Monte Carlo cross-oracle", 60.0):
        from substochastic.montecarlo import simulate

        model = quadratic_birth()
        _, br, _ = semigroup_V(model, 1.0, e0)
        est = simulate(model, e0, 1.0, 100_000, seed=12345)
        sigma = est.exploded_ci / 1.96
        assert abs(est.exploded - (1.0 - br.mid)) <= 3.0 * sigma
        assert est.aborted == 0
        y = simulate(yule(), e0, 1.0, 100_000, seed=12345)
        assert y.survival == 1.0 and y.aborted == 0


def test_10_hereditary_cone_and_delta_monotonicity():
    with _Clock("10 hereditary cone", None):
        model = yule()
        v = PosSeq({k: 1.0 / 6.0 for k in range(6)})
        rep = hereditary_audit(model, 1.0, v, samples=100, seed=90210)
        assert rep.samples == 100 and rep.all_honest
        # delta monotonicity along sampled trajectories, up to bracket widths
        rng = np.random.Generator(np.random.Philox(key=[90210, 999]))
        for _ in range(3):
            scales = 1.0 - rng.random(6)
            u = PosSeq({k: s / 6.0 for k, s in enumerate(scales)})
            brs = [mass_loss_delta(model, t, u).bracket for t in (0.5, 1.0, 2.0)]
            for b1, b2 in zip(brs, brs[1:]):
                assert b2.lo <= b1.hi + 1e-9


def test_11_subsolution_criterion():
    with _Clock("11 sub-solution criterion", None):
        model = two_state()
        u = PosSeq({0: 1.0, 1: 1.0})
        r = subsolution_check(model, 1.0, u)
        assert r is True
        assert honesty_verdict(model, u).verdict == HONEST
