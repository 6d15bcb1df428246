"""The benchmark's four workloads and the checks on every operation.

A workload is a list of CLI operations made from the seed.  Each operation
carries its own check, which compares the operation's output against an
exact oracle from ``oracles``; a check returns the failures it found, the
widest interval of each kind it saw, and the largest distance between a
bracket midpoint (or an estimate) and the exact value.

* ``cascade``: ``trajectory`` on quadratic_birth from e0 over the grid
  0.25,0.5,1.0.  The uniformization ladder of ``minimal.evolve`` is the
  whole cost; the Dyson-Phillips sampler is never built on this
  conservative model.
* ``killing``: ``trajectory`` and ``compare`` on the four non-conservative
  zoo models over 0:2:0.25.  ``dyson.DPState`` is the cost; the resolvent
  route is the rest.
* ``verdicts``: many short ``verdict`` calls over all seven zoo models; the
  l1/model primitives and ``honesty.xi`` are the cost.
* ``paths``: ``simulate`` with 100k paths on both Monte Carlo runners;
  ``montecarlo`` is the cost, and it is negligible everywhere else.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

# Absolute slack for "the exact value lies in the bracket": the oracles
# round at about 1e-15, far below every bracket width the program returns.
EXACT_SLACK = 1e-12
# A Monte Carlo estimate fails its check beyond this many standard errors.
Z_MAX = 5.0
# simulate labels a path "aborted" when it reaches its state cap still
# undecided, and the CLI's CSV leaves such paths out of all three fractions.
# On an explosive model that happens to paths exploding within ~1/cap of t:
# about 0.03 expected per grid point at 100k paths on quadratic_birth.
# Those paths are counted and reported; more than this many in one
# operation, or any on a model that cannot explode, fails the check.
UNACCOUNTED_MAX = 10

CASCADE_GRID = (0.25, 0.5, 1.0)
KILLING_GRID = "0:2:0.25"
PATHS_GRID = (0.5, 1.0, 2.0)
PATHS = 100_000
VERDICTS_PER_MODEL = 24
ZOO = ("two_state", "yule", "quadratic_birth", "pure_loss", "bd_kill", "bd_conservative", "closed_chain")


@dataclass
class Check:
    failures: list[str] = field(default_factory=list)
    widths: dict[str, float] = field(default_factory=dict)
    oracle_err: float = 0.0
    unaccounted: int = 0  # Monte Carlo paths missing from the outcome counts

    def bracket(self, kind: str, lo: float, hi: float, exact: float, what: str) -> None:
        self.widths[kind] = max(self.widths.get(kind, 0.0), hi - lo)
        self.oracle_err = max(self.oracle_err, abs(0.5 * (lo + hi) - exact))
        if not (lo - EXACT_SLACK <= exact <= hi + EXACT_SLACK):
            self.failures.append(f"{what}: exact {exact!r} outside [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class Op:
    command: str
    model: str
    args: tuple[str, ...]
    check: Callable[[int, str], Check]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    models: tuple[str, ...]
    ops: tuple[Op, ...]


def _grid_arg(grid) -> str:
    return ",".join(repr(t) for t in grid)


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [[float(x) for x in row] for row in csv.reader(io.StringIO("\n".join(lines[1:])))]


def _same_grid(ts: list[float], grid) -> bool:
    return len(ts) == len(grid) and all(abs(a - b) <= 1e-12 for a, b in zip(ts, grid))


def check_trajectory(grid, mass: Callable[[float], float], delta: Callable[[float], float]):
    """Mass bracket holds the exact mass; Delta bracket holds the exact Delta."""

    def check(rc: int, text: str) -> Check:
        c = Check()
        if rc != 0:
            c.failures.append(f"trajectory exit {rc}")
            return c
        try:
            rows = _csv_rows(text, "t,mass_lo,mass_hi,abar,ahat,delta_lo,delta_hi")
        except ValueError as exc:
            c.failures.append(f"trajectory output: {exc}")
            return c
        if not _same_grid([r[0] for r in rows], grid):
            c.failures.append("trajectory rows do not match the grid")
            return c
        for t, m_lo, m_hi, _abar, _ahat, d_lo, d_hi in rows:
            c.bracket("mass", m_lo, m_hi, mass(t), f"mass at t={t!r}")
            c.bracket("delta", d_lo, d_hi, delta(t), f"delta at t={t!r}")
        return c

    return check


def check_compare(grid):
    """Both routes' Delta brackets hold 0 (the killing models are honest) and
    the program's own route comparison passes; on non-conservative models the
    two routes run independent arithmetic, so the flag is not vacuous."""

    def check(rc: int, text: str) -> Check:
        c = Check()
        if rc != 0:
            c.failures.append(f"compare exit {rc}")
            return c
        try:
            doc = json.loads(text)
            rows = doc["rows"]
            ts = [float(r["t"]) for r in rows]
        except (ValueError, KeyError, TypeError) as exc:
            c.failures.append(f"compare output: {exc!r}")
            return c
        if not _same_grid(ts, grid):
            c.failures.append("compare rows do not match the grid")
            return c
        for t, row in zip(ts, rows):
            for route in ("delta_resolvent", "delta_dyson_phillips"):
                b = row[route]
                c.bracket("delta", b["lo"], b["hi"], 0.0, f"{route} at t={t!r}")
        if doc.get("pass") is not True:
            c.failures.append(f"compare reports max_discrepancy {doc.get('max_discrepancy')!r}")
        return c

    return check


def check_verdict(expected: str, rc_expected: int, xi: Callable[[float], float], lam: float):
    """Exit code and verdict as expected; every xi bracket (the requested
    lambda and each lambda of the sweep) holds the exact xi."""

    def check(rc: int, text: str) -> Check:
        c = Check()
        if rc != rc_expected:
            c.failures.append(f"verdict exit {rc}, want {rc_expected}")
            return c
        try:
            doc = json.loads(text)
            brackets = [(lam, doc["xi"])]
            brackets += [(float(k), v) for k, v in doc["evidence"]["lambda_sweep"].items()]
        except (ValueError, KeyError, TypeError) as exc:
            c.failures.append(f"verdict output: {exc!r}")
            return c
        if doc["verdict"] != expected:
            c.failures.append(f"verdict {doc['verdict']!r}, want {expected!r}")
        for lam2, b in brackets:
            c.bracket("xi", b["lo"], b["hi"], xi(lam2), f"xi at lambda={lam2!r}")
        return c

    return check


def check_simulate(grid, survival: Callable[[float], float], explodes: bool):
    """Counts sum to one, up to the aborted paths an explosive model may
    leave (see UNACCOUNTED_MAX); survival and the lost mass (exploded on an
    explosive conservative model, killed otherwise) sit within Z_MAX
    standard errors of the exact mass; a certain outcome must be met
    exactly."""
    header = "t,survival,survival_ci,exploded,exploded_ci,killed,killed_ci"

    def near(c: Check, got: float, p: float, what: str) -> None:
        c.oracle_err = max(c.oracle_err, abs(got - p))
        se = math.sqrt(p * (1.0 - p) / PATHS)
        if se == 0.0 and got != p:
            c.failures.append(f"{what}: {got!r}, exact {p!r}")
        elif se > 0.0 and abs(got - p) > Z_MAX * se:
            c.failures.append(f"{what}: {got!r} is {abs(got - p) / se:.1f} SE from {p!r}")

    def check(rc: int, text: str) -> Check:
        c = Check()
        if rc != 0:
            c.failures.append(f"simulate exit {rc}")
            return c
        try:
            rows = _csv_rows(text, header)
        except ValueError as exc:
            c.failures.append(f"simulate output: {exc}")
            return c
        if not _same_grid([r[0] for r in rows], grid):
            c.failures.append("simulate rows do not match the grid")
            return c
        for t, s, s_ci, e, e_ci, k, k_ci in rows:
            c.widths["ci"] = max(c.widths.get("ci", 0.0), 2.0 * s_ci, 2.0 * e_ci, 2.0 * k_ci)
            missing = PATHS - round((s + e + k) * PATHS)
            c.unaccounted += missing
            if missing < 0 or (missing > 0 and not explodes):
                c.failures.append(f"outcome counts at t={t!r} sum to {PATHS - missing}, not {PATHS}")
            p = survival(t)
            near(c, s, p, f"survival at t={t!r}")
            lost, other = (e, k) if explodes else (k, e)
            near(c, lost, 1.0 - p, f"lost mass at t={t!r}")
            if other != 0.0:
                c.failures.append(f"impossible outcome at t={t!r}: {other!r}")
        if c.unaccounted > UNACCOUNTED_MAX:
            c.failures.append(f"{c.unaccounted} paths missing from the outcome counts")
        return c

    return check


def _table_mass(model_json: dict, k: int) -> Callable[[float], float]:
    return lambda t: oracles.table_mass(model_json, k, t)


def _killing_mass(name: str, k: int, model_json: dict) -> Callable[[float], float]:
    if name == "bd_kill":
        return oracles.bd_kill_mass
    if name == "pure_loss":
        return oracles.pure_loss_mass
    if name == "two_state":
        return oracles.two_state_mass
    return _table_mass(model_json[name], k)


def cascade(seed: int, model_json: dict) -> Workload:
    """Seed 0 is the ROADMAP grid; other seeds scale each t by at most 1%,
    which keeps every point on the same truncation ladder."""
    rng = random.Random(f"cascade-{seed}")
    grid = CASCADE_GRID if seed == 0 else tuple(t * rng.uniform(0.99, 1.01) for t in CASCADE_GRID)
    op = Op(
        "trajectory",
        "quadratic_birth",
        ("--t-grid", _grid_arg(grid)),
        check_trajectory(grid, oracles.theta_mass, lambda t: oracles.theta_mass(t) - 1.0),
    )
    return Workload("cascade", seed, ("quadratic_birth",), (op,))


def killing(seed: int, model_json: dict) -> Workload:
    """The seed draws the resolvent lambda of every model and the start of
    closed_chain (any of its 8 states) and pure_loss (any of 64).  bd_kill
    and two_state start at 0: the Dyson-Phillips window, and so the cost,
    depends on the start of a walk, and two_state's oracle is from e0."""
    rng = random.Random(f"killing-{seed}")
    starts = {"bd_kill": 0, "closed_chain": rng.randrange(8), "two_state": 0, "pure_loss": rng.randrange(64)}
    grid = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    ops = []
    for name, k in starts.items():
        lam = rng.uniform(0.5, 2.0)
        args = ("--t-grid", KILLING_GRID, "--initial", str(k), "--lambda", repr(lam))
        ops.append(Op("trajectory", name, args, check_trajectory(grid, _killing_mass(name, k, model_json), lambda t: 0.0)))
        ops.append(Op("compare", name, args, check_compare(grid)))
    return Workload("killing", seed, tuple(starts), tuple(ops))


def verdicts(seed: int, model_json: dict) -> Workload:
    """VERDICTS_PER_MODEL verdicts per zoo model, with the start in [0, 64)
    and lambda in [0.5, 2] drawn by the seed."""
    rng = random.Random(f"verdicts-{seed}")
    ops = []
    for _ in range(VERDICTS_PER_MODEL):
        for name in ZOO:
            k = rng.randrange(64)
            lam = rng.uniform(0.5, 2.0)
            if name == "quadratic_birth":
                chk = check_verdict("Dishonest", 10, lambda l, k=k: oracles.xi_quadratic(l, k), lam)
            else:
                chk = check_verdict("Honest", 0, lambda l: 0.0, lam)
            ops.append(Op("verdict", name, ("--initial", str(k), "--lambda", repr(lam)), chk))
    return Workload("verdicts", seed, ZOO, tuple(ops))


def paths(seed: int, model_json: dict) -> Workload:
    """quadratic_birth and yule take the vectorised pure-birth runner,
    bd_kill and closed_chain the stepper.  The seed draws the Monte Carlo
    seed and the starts of yule, bd_kill and closed_chain; quadratic_birth
    starts at 0, where the theta series is its exact mass."""
    rng = random.Random(f"paths-{seed}")
    mc_seed = rng.randrange(1, 2**31)
    starts = {"quadratic_birth": 0, "yule": rng.randrange(8), "bd_kill": rng.randrange(64), "closed_chain": rng.randrange(8)}
    survival = {
        "quadratic_birth": oracles.theta_mass,
        "yule": lambda t: 1.0,
        "bd_kill": oracles.bd_kill_mass,
        "closed_chain": _table_mass(model_json["closed_chain"], starts["closed_chain"]),
    }
    ops = tuple(
        Op(
            "simulate",
            name,
            ("--t-grid", _grid_arg(PATHS_GRID), "--initial", str(k), "--paths", str(PATHS), "--seed", str(mc_seed)),
            check_simulate(PATHS_GRID, survival[name], explodes=name == "quadratic_birth"),
        )
        for name, k in starts.items()
    )
    return Workload("paths", seed, tuple(starts), ops)


BUILDERS = {"cascade": cascade, "killing": killing, "verdicts": verdicts, "paths": paths}
WORKLOADS = tuple(BUILDERS)
