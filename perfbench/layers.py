"""Where the traced run patches the package, and the per-layer metrics.

Layers are the package modules.  ``l1`` has no call boundary worth
wrapping from outside (its cost shows inside ``models.apply_J`` and the
``honesty`` routes) and ``zoo`` only runs in set-up, so neither has spans.
"""

from __future__ import annotations

from tracing import SpanStats, Target

# name, unit; counts repeat exactly between traced passes, times do not
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("minimal.evolve.calls", "count"),
    ("minimal.evolve.self_s", "s"),
    ("minimal.evolve.poisson_steps", "count"),
    ("minimal.evolve.steps_per_s", "1/s"),
    ("minimal.evolve.n_used_max", "count"),
    ("minimal.evolve.ladder_levels", "count"),
    ("minimal.evolve.flagged", "count"),
    ("dyson.DPState.builds", "count"),
    ("dyson.DPState.self_s", "s"),
    ("dyson.DPState.level_max", "count"),
    ("dyson.DPState.window_max", "count"),
    ("dyson.DPState.terms", "count"),
    ("dyson.DPState.builds_per_ahat", "ratio"),
    ("honesty.ahat_dp.calls", "count"),
    ("honesty.ahat_dp.self_s", "s"),
    ("honesty.delta_by_routes.calls", "count"),
    ("honesty.delta_by_routes.self_s", "s"),
    ("honesty.xi.calls", "count"),
    ("honesty.xi.self_s", "s"),
    ("honesty.xi.iterations", "count"),
    ("honesty.honesty_verdict.self_s", "s"),
    ("models.apply_J.calls", "count"),
    ("models.apply_J.self_s", "s"),
    ("models.apply_J.nnz_in", "count"),
    ("models.load_model.calls", "count"),
    ("models.load_model.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("montecarlo.simulate.calls", "count"),
    ("montecarlo.simulate.self_s", "s"),
    ("montecarlo.simulate.paths", "count"),
    ("montecarlo.simulate.paths_per_s", "1/s"),
    ("montecarlo.simulate.aborted", "count"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

DETERMINISTIC_UNITS = ("count", "ratio", "B")


def targets(cli, honesty) -> list[Target]:
    """Patch points, named as the calling module looks each function up."""
    return [
        Target(cli, "main", "cli.main"),
        Target(cli, "load_model", "models.load_model"),
        Target(cli, "delta_by_routes", "honesty.delta_by_routes"),
        Target(cli, "honesty_verdict", "honesty.honesty_verdict"),
        Target(cli, "simulate", "montecarlo.simulate", lambda a, r: (r.n_paths, r.aborted)),
        Target(
            honesty,
            "evolve",
            "minimal.evolve",
            lambda a, r: (r.n_used, r.steps_used, len(r.ladder.levels), int(r.flagged)),
        ),
        Target(honesty, "DPState", "dyson.DPState", lambda a, st: (st.level, st.hi - st.lo, st.n_max + 1)),
        Target(honesty, "xi", "honesty.xi", lambda a, r: (r.iterations,)),
        Target(honesty, "ahat_dp", "honesty.ahat_dp"),
        Target(honesty, "apply_J", "models.apply_J", lambda a, r: (len(a[2].entries),)),
    ]


def layer_metrics(stats: dict[str, SpanStats], out_bytes: int, wall_s: float, spans: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s is filled in by
    the caller from the measured cost of one span)."""

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats(counters=[]))

    def col(s: SpanStats, i: int) -> list:
        return [c[i] for c in s.counters]

    def rate(n: float, secs: float) -> float:
        return n / secs if secs > 0 else 0.0

    ev, dp, ah, sim = get("minimal.evolve"), get("dyson.DPState"), get("honesty.ahat_dp"), get("montecarlo.simulate")
    xi, aj, lm, cm = get("honesty.xi"), get("models.apply_J"), get("models.load_model"), get("cli.main")
    steps = sum(col(ev, 1))
    n_paths = sum(col(sim, 0))
    out = {
        "minimal.evolve.calls": ev.calls,
        "minimal.evolve.self_s": ev.self_s,
        "minimal.evolve.poisson_steps": steps,
        "minimal.evolve.steps_per_s": rate(steps, ev.self_s),
        "minimal.evolve.n_used_max": max(col(ev, 0), default=0),
        "minimal.evolve.ladder_levels": sum(col(ev, 2)),
        "minimal.evolve.flagged": sum(col(ev, 3)),
        "dyson.DPState.builds": dp.calls,
        "dyson.DPState.self_s": dp.self_s,
        "dyson.DPState.level_max": max(col(dp, 0), default=0),
        "dyson.DPState.window_max": max(col(dp, 1), default=0),
        "dyson.DPState.terms": sum(col(dp, 2)),
        "dyson.DPState.builds_per_ahat": dp.calls / ah.calls if ah.calls else 0.0,
        "honesty.ahat_dp.calls": ah.calls,
        "honesty.ahat_dp.self_s": ah.self_s,
        "honesty.delta_by_routes.calls": get("honesty.delta_by_routes").calls,
        "honesty.delta_by_routes.self_s": get("honesty.delta_by_routes").self_s,
        "honesty.xi.calls": xi.calls,
        "honesty.xi.self_s": xi.self_s,
        "honesty.xi.iterations": sum(col(xi, 0)),
        "honesty.honesty_verdict.self_s": get("honesty.honesty_verdict").self_s,
        "models.apply_J.calls": aj.calls,
        "models.apply_J.self_s": aj.self_s,
        "models.apply_J.nnz_in": sum(col(aj, 0)),
        "models.load_model.calls": lm.calls,
        "models.load_model.total_s": lm.total_s,
        "cli.main.calls": cm.calls,
        "cli.main.self_s": cm.self_s,
        "cli.out_bytes": out_bytes,
        "montecarlo.simulate.calls": sim.calls,
        "montecarlo.simulate.self_s": sim.self_s,
        "montecarlo.simulate.paths": n_paths,
        "montecarlo.simulate.paths_per_s": rate(n_paths, sim.self_s),
        "montecarlo.simulate.aborted": sum(col(sim, 1)),
        "trace.wall_s": wall_s,
        "trace.spans": spans,
    }
    return out


def evolve_ladder(stats: dict[str, SpanStats]) -> list[tuple[int, int]]:
    """(n_used, steps) of each evolve call, in call order."""
    return [(c[0], c[1]) for c in stats.get("minimal.evolve", SpanStats(counters=[])).counters]
