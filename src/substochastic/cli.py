"""Batch command line: load a model file, run analyses, write reports/CSV.

Exit codes for ``verdict``: 0 honest, 10 dishonest, 20 undetermined,
1 error.  All outputs are deterministic functions of the configuration;
no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .honesty import (
    DISHONEST,
    HONEST,
    delta_by_routes,
    honesty_verdict,
)
from .l1 import PosSeq
from .models import STATE_LIMIT, ModelError, load_model
from .montecarlo import CSV_HEADER, simulate

__all__ = ["main", "parse_t_grid"]


def parse_t_grid(spec: str) -> tuple[float, ...]:
    """Grid syntax: 'a:b:step' (inclusive of both ends), a comma list, or a
    single value; every grid is strictly increasing, finite and nonnegative."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad t-grid {spec!r}: want a:b:step")
        a, b, step = (float(x) for x in parts)
        if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
            raise ValueError(f"bad t-grid {spec!r}: want finite a <= b and step > 0")
        vals = []
        k = 0
        while True:
            t = a + k * step
            if t > b + 1e-12 * max(1.0, abs(b)):
                break
            vals.append(min(t, b))
            k += 1
        if vals and abs(vals[-1] - b) > 1e-12 * max(1.0, abs(b)):
            vals.append(b)
    elif "," in spec:
        vals = [float(x) for x in spec.split(",") if x.strip()]
    else:
        vals = [float(spec)]
    if not all(0 <= t < math.inf for t in vals) or vals != sorted(set(vals)):
        raise ValueError(f"bad t-grid {spec!r}: want strictly increasing, finite, nonnegative")
    return tuple(vals)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="substochastic",
        description="honesty analysis of perturbed substochastic semigroups on l1",
    )
    p.add_argument("command", choices=["verdict", "trajectory", "compare", "simulate"])
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="resolvent parameter")
    p.add_argument("--tol", type=float, default=1e-8, help="working tolerance")
    p.add_argument("--t-grid", default="1.0", help="time grid a:b:step (inclusive) or comma list")
    p.add_argument("--paths", type=int, default=100_000, help="Monte Carlo path count")
    p.add_argument("--seed", type=int, default=12345, help="Monte Carlo seed (nonzero)")
    p.add_argument("--initial", type=int, default=0, help="initial basis state index")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    return p


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_verdict(cfg: argparse.Namespace, model) -> int:
    u = PosSeq.basis(cfg.initial)
    report = honesty_verdict(model, u, cfg.lam, cfg.tol)
    doc = report.to_json()
    doc["config"] = {
        "model": model.name,
        "initial": cfg.initial,
        "lambda": cfg.lam,
        "tol": cfg.tol,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), cfg.out)
    if report.verdict == HONEST:
        return 0
    if report.verdict == DISHONEST:
        return 10
    return 20


def _cmd_trajectory(cfg: argparse.Namespace, model) -> int:
    u = PosSeq.basis(cfg.initial)
    u_norm = u.head_sum()
    lines = ["t,mass_lo,mass_hi,abar,ahat,delta_lo,delta_hi"]
    for t, (res, dp) in zip(cfg.t_grid, delta_by_routes(model, cfg.t_grid, u, cfg.lam, cfg.tol)):
        mass_lo = u_norm - res.a0.hi
        mass_hi = u_norm - res.a0.lo
        lines.append(
            f"{t!r},{mass_lo!r},{mass_hi!r},{res.functional.mid!r},"
            f"{dp.functional.mid!r},{dp.bracket.lo!r},{dp.bracket.hi!r}"
        )
    _emit("\n".join(lines), cfg.out)
    return 0


def _cmd_compare(cfg: argparse.Namespace, model) -> int:
    u = PosSeq.basis(cfg.initial)
    rows = []
    worst = 0.0
    for t, (res, dp) in zip(cfg.t_grid, delta_by_routes(model, cfg.t_grid, u, cfg.lam, cfg.tol)):
        disc = abs(res.bracket.mid - dp.bracket.mid)
        worst = max(worst, disc)
        rows.append(
            {
                "t": t,
                "delta_resolvent": {"lo": res.bracket.lo, "hi": res.bracket.hi},
                "delta_dyson_phillips": {"lo": dp.bracket.lo, "hi": dp.bracket.hi},
                "discrepancy": disc,
            }
        )
    tol = max(cfg.tol, 1e-6)
    doc = {
        "model": model.name,
        "lambda": cfg.lam,
        "tolerance": tol,
        "max_discrepancy": worst,
        "pass": worst <= tol,
        "rows": rows,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), cfg.out)
    return 0


def _cmd_simulate(cfg: argparse.Namespace, model) -> int:
    u = PosSeq.basis(cfg.initial)
    lines = [CSV_HEADER]
    for t in cfg.t_grid:
        r = simulate(model, u, t, cfg.paths, cfg.seed)
        if r.aborted:
            print(
                f"warning: t={t!r}: {r.aborted} of {r.n_paths} paths reached the state cap"
                " undecided and are left out of every fraction",
                file=sys.stderr,
            )
        lines.append(
            f"{r.t!r},{r.survival!r},{r.survival_ci!r},{r.exploded!r},"
            f"{r.exploded_ci!r},{r.killed!r},{r.killed_ci!r}"
        )
    _emit("\n".join(lines), cfg.out)
    return 0


_COMMANDS = {
    "verdict": _cmd_verdict,
    "trajectory": _cmd_trajectory,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.t_grid = parse_t_grid(args.t_grid)
        if not (math.isfinite(args.lam) and args.lam > 0):
            raise ValueError("lambda must be finite and > 0")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError("tol must be finite and > 0")
        if args.paths < 1:
            raise ValueError("paths must be >= 1")
        if not 0 <= args.initial < STATE_LIMIT:
            raise ValueError("initial state must be >= 0 and < 2**21")
        return _COMMANDS[args.command](args, load_model(args.model))
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
