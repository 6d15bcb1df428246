"""Tests of the benchmark itself: oracles, checks, tracing and metric names.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize(
    "t, mass", [(0.25, 0.99963329), (0.5, 0.96394524), (1.0, 0.69937420), (2.0, 0.26999967)]
)
def test_theta_series_matches_roadmap_table(t, mass):
    assert oracles.theta_mass(t) == pytest.approx(mass, abs=5e-9)


def test_full_xi_product_is_pi_over_sinh_pi():
    assert oracles.xi_quadratic(1.0, 0) == pytest.approx(0.2720290549, abs=1e-10)


@pytest.mark.parametrize("k, lam", [(3, 2.0), (40, 0.5), (63, 1.7)])
def test_xi_product_oracle_at_positive_k(k, lam):
    # direct partial product to n = N, times the tail exp(-lam sum_{n>N} 1/n^2)
    n = np.arange(k + 1, 2_000_001, dtype=float)
    partial = math.exp(-float(np.sum(np.log1p(lam / n**2))))
    tail = math.exp(-lam * (1.0 / 2_000_000.5))
    assert oracles.xi_quadratic(lam, k) == pytest.approx(partial * tail, rel=1e-12)


def test_expm_oracle_matches_two_state_closed_form():
    from substochastic.models import model_to_json
    from substochastic.zoo import two_state

    doc = model_to_json(two_state())
    for t in (0.25, 1.0, 2.0):
        assert oracles.table_mass(doc, 0, t) == pytest.approx(oracles.two_state_mass(t), abs=1e-14)


def test_p90_needs_at_least_100_samples():
    assert run.latency_summary([0.1] * 99)["p90"] is None
    s = run.latency_summary([float(i) for i in range(100)])
    assert s["n"] == 100 and s["p50"] == 49.5 and s["p90"] == pytest.approx(89.1)


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.LAYER_METRICS)
    for name, _ in e2e + per_layer:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_trajectory_check_rejects_a_bracket_missing_the_oracle():
    grid = (0.5,)
    chk = workloads.check_trajectory(grid, oracles.theta_mass, lambda t: oracles.theta_mass(t) - 1.0)
    header = "t,mass_lo,mass_hi,abar,ahat,delta_lo,delta_hi\n"
    good = header + "0.5,0.9637,0.9642,0.0,0.0,-0.0363,-0.0358"
    bad = header + "0.5,0.9640,0.9642,0.0,0.0,-0.0360,-0.0358"
    assert not chk(0, good).failures
    assert chk(0, bad).failures
    assert chk(1, good).failures


def test_verdict_check_rejects_wrong_exit_code():
    chk = workloads.check_verdict("Honest", 0, lambda lam: 0.0, 1.0)
    doc = {"verdict": "Honest", "xi": {"lo": 0.0, "hi": 0.0}, "evidence": {"lambda_sweep": {}}}
    assert not chk(0, json.dumps(doc)).failures
    assert chk(20, json.dumps(doc)).failures


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds inner [1, 4] which holds leaf [2, 3]
    spans = [["outer", -1, 0.0, 10.0, ()], ["inner", 0, 1.0, 4.0, ()], ["leaf", 1, 2.0, 3.0, (7,)]]
    stats = tracing.aggregate(spans)
    assert stats["outer"].self_s == 7.0
    assert stats["inner"].self_s == 2.0
    assert stats["leaf"].self_s == 1.0 and stats["leaf"].counters == [(7,)]


def test_tracer_restores_patched_functions():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = tracing.Tracer()
    with tracer.installed([tracing.Target(mod, "f", "mod.f", lambda a, r: (r,))]):
        assert mod.f(1) == 2
    assert mod.f is original
    assert tracer.spans[0][0] == "mod.f" and tracer.spans[0][4] == (2,)


def test_work_counters_repeat_between_traced_passes(tmp_path):
    bench = run.Bench("killing", 1, tmp_path)
    wl = bench.setup()
    ops = [op for op in wl.ops if op.model == "two_state"]
    counters = []
    for _ in range(2):
        wall, _, outputs, spans = bench.traced_pass(ops)
        m = layers.layer_metrics(tracing.aggregate(spans), 0, wall, len(spans))
        counters.append({k: v for k, v in m.items() if dict(layers.LAYER_METRICS)[k] in layers.DETERMINISTIC_UNITS})
        assert all(not op.check(rc, text).failures for op, (rc, text) in zip(ops, outputs))
    assert counters[0] == counters[1]
    assert counters[0]["dyson.DPState.builds"] > 0 and counters[0]["minimal.evolve.calls"] == 2 * 9
