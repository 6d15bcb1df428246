"""Honesty analysis of trajectories of the minimal semigroup.

A trajectory from u >= 0 is *honest* when its mass loss is exactly the
local balance functional accumulated along the way; the defect is measured
by the limit xi(lam, u) = lim_n |J(lam)^n u| with J = B (lam - A)^{-1}.
The limit is zero exactly on honest initial data and independent of lam in
its zero set, which is what the three-valued verdict tests.

Routes implemented and cross-checked:

* primal iteration of J with certified upper bounds (the norms are
  nonincreasing on the cone) and, for upward cascades, two-sided product
  brackets with closed-form tail credits;
* the dual iteration of J* started from the mass functional, whose limit
  is the maximal sub-mass fixed point;
* the expansion-term route: the running sum of the local balance applied
  to int_0^t V_n(s)u ds, whose remainder telescopes through the B-integral
  norms;
* the sub-solution test J u <= u, a sufficient certificate of honesty.

Verdicts are three-valued on purpose: honesty is an exact-zero property,
and only certified brackets decide.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dyson import DPState
from .l1 import Bracket, PosSeq, SignedSeq, axpy, leq, mass
from .minimal import EvolveResult, _series_block, evolve
from .models import _ULP, ModelSpec, OperatorWindow, apply_J

__all__ = [
    "XiResult",
    "DualWeight",
    "AhatResult",
    "DeltaResult",
    "HonestyReport",
    "HereditaryReport",
    "a_frak",
    "a0_on_integral",
    "abar_resolvent",
    "xi",
    "xi_dual",
    "ahat_dp",
    "mass_loss_delta",
    "delta_by_routes",
    "honesty_verdict",
    "subsolution_check",
    "hereditary_audit",
    "report_to_json",
    "report_from_json",
]


HONEST = "Honest"
DISHONEST = "Dishonest"
UNDETERMINED = "Undetermined"


# verdicts are re-classified at these resolvent parameters: the zero set of
# xi does not depend on lambda, so a disagreement means Undetermined
_LAM_SWEEP = (0.5, 1.0, 2.0)
_XI_MAX_ITERS = 5_000  # J applications in the generic xi route
_XI_MAX_FACTORS = 2_000_000  # factors per source in the product bracket
_SUBNORMAL = math.ulp(0.0)  # the spacing of floats below the normal range
_ABAR_TOL = 1e-9
_AHAT_N_CAP = 48  # most expansion terms ahat_dp samples


# ---------------------------------------------------------------------------
# The local balance functional
# ---------------------------------------------------------------------------


def a_frak(m: ModelSpec, u: SignedSeq | PosSeq) -> float:
    """Local balance -<Psi, (A+B)u> = sum_k deficit_k * u_k (exact).

    Vanishes identically on finitely supported data of a conservative model
    and is nonnegative on the cone.
    """
    if isinstance(u, PosSeq):
        return _balance(m, u)
    return _balance(m, u.plus) - _balance(m, u.minus)


def _balance(m: ModelSpec, u: PosSeq) -> float:
    if u.tail_bound != 0.0:
        raise ValueError("a_frak requires finitely supported input")
    return math.fsum(d * v for d, v in zip(m.deficits(list(u.entries)).tolist(), u.entries.values()))


def a0_on_integral(
    m: ModelSpec,
    t: float,
    u: PosSeq,
    tol: float = 1e-8,
    ev: EvolveResult | None = None,
) -> Bracket:
    """|u| - |V(t)u| as a bracket: the total mass functional applied to the
    trajectory integral, evaluated through the evolution only."""
    if ev is None:
        ev = evolve(m, t, u, tol, want_integral=False)
    u_norm = u.head_sum()
    return Bracket(max(0.0, u_norm - ev.mass_bracket.hi), u_norm - ev.mass_bracket.lo)


# ---------------------------------------------------------------------------
# xi: the honesty defect functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiResult:
    """Certified bracket on lim_n |J^n u|, with the norms |J^n u| for
    n = 0, 1, ... that the route computed (n = 0 alone when it applies no J)."""

    bracket: Bracket
    certification: str
    j_norms: tuple[float, ...]
    iterations: int


def _xi_pure_birth(m: ModelSpec, lam: float, u: PosSeq, tol: float) -> XiResult:
    """Exact per-source factor chains for upward cascades.

    Each unit of mass at k picks up the factor r_m/(lam+a_m) at every level
    m >= k (r = birth rate, a = diagonal).  With r <= a columnwise:

    * sum 1/a_m divergent  =>  factors <= a/(lam+a) force the product to 0;
    * birth tail strictly thinner than the diagonal tail  =>  the per-factor
      penalty log(a_m/r_m) does not vanish, same conclusion;
    * otherwise r = a from ``ModelSpec.cascade_head`` on, and the product
      is exp(K_k(-lam) - P_k): K_k the log-moment of the time the cascade
      spends at or above k (``RateFn.log_moment``), P_k the penalty
      sum_{k <= m < head} log(a_m/r_m) of a separate birth rate (inf for a
      birth rate of 0: a factor of 0).  K's head is summed over a window of
      factors and its tail past the window bracketed in closed form.  The
      first window (1,024 factors, or through the head) meets ``tol``
      unless the tail is thin (p near 1); then the window grows fourfold, up
      to ``_XI_MAX_FACTORS``.  A window stopped inside the head certifies
      only the lower edge 0.

    K comes rounded outward, and so are P and the exponential: the lower
    edge is a certificate and the upper edge never falls below xi, not even
    when the factors underflow.
    """
    a = m.a
    birth = m.kernel.birth
    j_norms = (u.head_sum(),)
    if a.reciprocal_sum_diverges():
        return XiResult(Bracket(0.0, 0.0), "divergent-rate-sum", j_norms, 0)
    head = m.cascade_head()  # r = a from here on
    if head is None:
        return XiResult(Bracket(0.0, 0.0), "thinner-birth-tail", j_norms, 0)
    # two-sided product bracket per source index
    lo_total = 0.0
    hi_total = 0.0
    iters = 0
    for k0, w in sorted(u.entries.items()):
        K = max(1024, 2 * (k0 + 1), head - k0)
        pen_lo = pen_hi = 0.0
        if birth is not None and k0 < head:
            ks = np.arange(k0, min(head, k0 + _XI_MAX_FACTORS))
            with np.errstate(divide="ignore"):
                la, lr = np.log(a.at(ks)), np.log(birth.at(ks))
            pen = float((la - lr).sum())
            err = (ks.size + 2) * _ULP * float((np.abs(la) + np.abs(lr)).sum())
            pen_lo, pen_hi = (max(0.0, pen - err), pen + err) if math.isfinite(pen) else (pen, pen)
        while True:
            top = k0 + min(K, _XI_MAX_FACTORS)
            # lam/a_m overflowing reads a factor of 0 (xi's upper edge stays positive below)
            with np.errstate(over="ignore"):
                k_lo, k_hi = (float(k[0]) for k in a.log_moment(k0, (-lam,), top))
            iters = max(iters, top - k0)
            lo = math.exp((k_lo - pen_hi) * (1.0 + _ULP)) * (1.0 - 2.0 * _ULP) if top >= head else 0.0
            hi = math.exp((k_hi - pen_lo) * (1.0 - _ULP)) * (1.0 + 2.0 * _ULP)
            if hi - lo <= tol or top - k0 >= _XI_MAX_FACTORS:
                break
            K *= 4
        lo_total += w * lo
        hi_total += w * hi
    # relative rounding, plus one subnormal ulp per source for exp and the
    # weights below the normal range; xi > 0 here, and so is the upper edge
    n = len(u.entries)
    lo_total = max(0.0, lo_total * (1.0 - 2.0 * n * _ULP) - 2.0 * n * _SUBNORMAL)
    hi_total = min(u.head_sum(), hi_total * (1.0 + 2.0 * n * _ULP) + 2.0 * n * _SUBNORMAL)
    return XiResult(Bracket(lo_total, hi_total), "product-bracket", j_norms, iters)


def _xi_generic(m: ModelSpec, lam: float, u: PosSeq, tol: float) -> XiResult:
    """Iterated upper bounds |J^n u|, nonincreasing on the cone; the lower
    edge is 0.  Stops on an empty iterate, after ``_XI_MAX_ITERS``
    applications, or once the norms sit below ``tol`` and have stalled."""
    norms = [u.head_sum()]
    w = u
    for n in range(1, _XI_MAX_ITERS + 1):
        w = apply_J(m, lam, w)
        norms.append(w.head_sum())
        if norms[-1] <= tol * 1e-3 or not w.entries:
            break
        if n >= 8 and norms[-1] <= tol and norms[-2] - norms[-1] < tol * 1e-2:
            break
    # flushed entries ride in the tail of the upper edge
    return XiResult(Bracket(0.0, mass(w).hi), "iterated-upper", tuple(norms[:64]), len(norms) - 1)


def xi(m: ModelSpec, lam: float, u: PosSeq, tol: float = 1e-7) -> XiResult:
    """Certified bracket on the honesty defect lim_n |J(lam)^n u|."""
    if lam <= 0:
        raise ValueError("xi requires lambda > 0")
    if u.tail_bound != 0.0:
        raise ValueError("xi requires finitely supported input")
    if u.is_zero:
        return XiResult(Bracket(0.0, 0.0), "zero-input", (0.0,), 0)
    kind = m.kernel.kind
    if kind == "zero":
        return XiResult(Bracket(0.0, 0.0), "zero-kernel", (u.head_sum(), 0.0), 1)
    return (_xi_pure_birth if kind == "pure_birth" else _xi_generic)(m, lam, u, tol)


# ---------------------------------------------------------------------------
# Dual route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualWeight:
    """Iterated adjoint weights psi_n on indices <= n_top, with weight 1
    assumed beyond the truncation so every iterate stays an upper bound."""

    values: tuple[float, ...]
    residual: float


def xi_dual(m: ModelSpec, lam: float, n_top: int, iters: int) -> DualWeight:
    if lam <= 0:
        raise ValueError("xi_dual requires lambda > 0")
    if n_top < 1 or iters < 1:
        raise ValueError("xi_dual requires n_top >= 1 and iters >= 1")
    win = OperatorWindow(m, 0, n_top + 1)
    denom = lam + win.a
    if m.kernel.kind == "pure_birth":
        f = win.colsum / denom
        # clamp away exact zeros so prefix differences stay finite; a chain
        # crossing a dead state still underflows to 0 as it should
        logf = np.log(np.maximum(f, 1e-300))
        prefix = np.concatenate(([0.0], np.cumsum(logf)))  # prefix[k] = sum_{m<k} log f_m
        idx = np.minimum(np.arange(n_top + 1) + iters, n_top + 1)
        psi = np.exp(prefix[idx] - prefix[: n_top + 1])
        ext = np.concatenate((psi[1:], [1.0]))
        residual = float(np.max(np.abs(psi - f * ext)))
        return DualWeight(tuple(psi.tolist()), residual)
    # generic adjoint iteration; weight 1 beyond the truncation
    psi = np.ones(n_top + 1)

    def adjoint(p: np.ndarray) -> np.ndarray:
        return (win.apply_Bt(p) + win.leak) / denom

    for _ in range(iters):
        nxt = adjoint(psi)
        if float(np.max(np.abs(nxt - psi))) < 1e-16:
            psi = nxt
            break
        psi = nxt
    residual = float(np.max(np.abs(adjoint(psi) - psi)))
    return DualWeight(tuple(psi.tolist()), residual)


# ---------------------------------------------------------------------------
# Series functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbarResult:
    bracket: Bracket
    terms_used: int
    converged: bool


def _abar_cone_series(m: ModelSpec, lam: float, inputs: Sequence[PosSeq], tol: float) -> list[AbarResult]:
    """sum_n a_frak((lam-A)^{-1} J^n u) on the cone with telescoped remainder,
    for every input u of one ``_series_block``.

    The partial sum is a_frak of the block's value of u, whose relative
    error err (and a subnormal ulp per entry for the products by the
    deficits) pads both edges.  Each term equals |J^n u| - |J^{n+1} u| -
    lam |(lam-A)^{-1} J^n u|, so the remainder after K terms is |J^K u| -
    xi(u), at most lam times the block's rem; when that exceeds tol, the
    certified lower edge of xi(u) is credited, input by input, on a
    pure-birth kernel: elsewhere xi's lower edge is 0.
    """
    if m.conservative:
        return [AbarResult(Bracket(0.0, 0.0), 0, True) for _ in inputs]
    rows, out = _series_block(m, lam, [u.entries for u in inputs], tol / lam), []
    lo = min((first for acc, first, *_ in rows if acc.size), default=0)
    deficits = m.deficits(np.arange(lo, max((first + acc.size for acc, first, *_ in rows), default=lo)))  # one read for the block
    for u, (acc, first, rem, terms, err) in zip(inputs, rows):
        total = math.fsum(deficits[first - lo : first - lo + acc.size] * acc)
        pad = err * total + int(np.count_nonzero(acc)) * _SUBNORMAL
        rem_hi = lam * rem
        if rem_hi > tol and m.kernel.kind == "pure_birth":
            rem_hi = max(0.0, rem_hi - xi(m, lam, u, tol).bracket.lo)
        out.append(AbarResult(Bracket(max(0.0, total - pad), total + pad + rem_hi), terms, rem_hi <= tol))
    return out


def abar_resolvent(m: ModelSpec, lam: float, u: PosSeq) -> AbarResult:
    """Resolvent-route accumulated balance of (lam-G)^{-1} u, cone input."""
    if lam <= 0:
        raise ValueError("abar_resolvent requires lambda > 0")
    if u.tail_bound != 0.0:
        raise ValueError("abar_resolvent requires finitely supported input")
    return _abar_cone_series(m, lam, [u], _ABAR_TOL)[0]


# ---------------------------------------------------------------------------
# Expansion route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AhatResult:
    bracket: Bracket
    terms: tuple[float, ...]
    b_integral_norms: tuple[float, ...]


def _ahat_terms(m: ModelSpec, t: float, u: PosSeq, tol: float) -> int:
    """The last expansion term of a state that ``ahat_dp`` reads at t.

    With beta the largest column sum of B on the states the terms reach
    (none past ``Kernel.extent``, where every column is empty),
    |B int_0^t V_n u| <= (beta t)^{n+1}/(n+1)! |u|; this is the least n
    meeting ``tol`` (at most ``_AHAT_N_CAP``).  It is nondecreasing in t,
    so a state sized at the largest time of a grid meets tol at every time.
    """
    reach = (_AHAT_N_CAP + 1) * m.stride
    lo, hi = max(0, min(u.support) - reach), min(max(u.support) + reach + 1, m.kernel.extent)
    beta_t = t * OperatorWindow(m, lo, hi).colsum.max(initial=0.0) if lo < hi else 0.0
    n_max = 0
    bound = beta_t * u.head_sum()
    while bound > tol and n_max < _AHAT_N_CAP:
        n_max += 1
        bound *= beta_t / (n_max + 1)
    return n_max


def ahat_dp(
    m: ModelSpec,
    t: float,
    u: PosSeq,
    tol: float = 1e-8,
    a0: Bracket | None = None,
    st: DPState | None = None,
) -> AhatResult:
    """sum_n a_frak(int_0^t V_n(s)u ds), bracketed.

    Every term of ``st``, a state of (m, u) that serves t, is read at t;
    without one, a state of ``_ahat_terms(m, t, u, tol)`` terms is built
    here.  The remainder after any term n telescopes to at most the
    computed |B int_0^t V_n u|, so the state's last term certifies the
    sum; the upper edge is additionally capped by the upper edge of
    the mass loss ``a0`` = |u| - |V(t)u| (evolved here when not given).
    Both edges widen by c times the state's certified l1 error, as every
    read weighs a state by a_k <= c, and by the reads' own rounding.
    """
    if u.tail_bound != 0.0:
        raise ValueError("ahat_dp requires finitely supported input")
    if m.conservative or t == 0.0 or u.is_zero:
        return AhatResult(Bracket(0.0, 0.0), (), ())
    if st is None:
        st = DPState(m, u, (t,), _ahat_terms(m, t, u, tol))
    rows, err = st.integral(t)
    colsums = st.window.colsum
    deficits = st.window.a - colsums
    terms = [math.fsum(deficits * arr) for arr in rows]
    b_norms = [math.fsum(colsums * arr) for arr in rows]
    partial = math.fsum(terms)
    # each product rounds once and each sum is correctly rounded
    pad = st.c * err + 3.0 * _ULP * (partial + b_norms[-1])
    lo = max(0.0, partial - pad)
    hi = partial + b_norms[-1] + pad
    if a0 is None:
        a0 = a0_on_integral(m, t, u, tol)
    hi = min(hi, a0.hi)
    return AhatResult(Bracket(min(lo, hi), hi), tuple(terms), tuple(b_norms))


# ---------------------------------------------------------------------------
# Mass loss and route comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaResult:
    bracket: Bracket
    a0: Bracket
    functional: Bracket
    route: str


def _clamp_nonpos(b: Bracket) -> Bracket:
    hi = min(b.hi, 0.0)
    return Bracket(min(b.lo, hi), hi)


def mass_loss_delta(m: ModelSpec, t: float, u: PosSeq, tol: float = 1e-8) -> DeltaResult:
    """Delta_u(t) = |V(t)u| - |u| + abar(int_0^t V(s)u ds), via the
    expansion-route functional (the two functionals coincide); always <= 0
    and nonincreasing in t."""
    a0 = a0_on_integral(m, t, u, tol)
    ahat = ahat_dp(m, t, u, tol, a0=a0)
    return DeltaResult(_clamp_nonpos(ahat.bracket - a0), a0, ahat.bracket, "dyson_phillips")


def delta_by_routes(
    m: ModelSpec,
    ts: Sequence[float],
    u: PosSeq,
    lam: float = 1.0,
    tol: float = 1e-8,
) -> list[tuple[DeltaResult, DeltaResult]]:
    """Delta at every time of the grid ``ts``, as one (resolvent, expansion)
    pair per time, computed independently by the two routes, which share
    the evolutions at tolerance ``tol``: one pass per time, all run first
    from the largest down, and one renewal law per grid (see ``evolve``).

    Expansion route: one ``DPState``, sized at the largest time, serves
    every time of the grid, and each time reads all of its terms.

    Resolvent route: the trajectory integral w satisfies G w = V(t)u - u,
    so w = (lam-G)^{-1}(lam w + u - V(t)u) and abar(w) is the resolvent
    series at the signed preimage: its two cone sides of every time, 2|grid|
    inputs, run as one ``_series_block``.
    """
    ts = tuple(float(t) for t in ts)
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError("delta_by_routes requires finite times t >= 0")
    grid = sorted(set(ts), reverse=True)
    st = None
    if not (m.conservative or u.is_zero) and grid and grid[0] > 0.0:
        st = DPState(m, u, grid, _ahat_terms(m, grid[0], u, tol))
    rows, sides, laws = {}, [], {}
    for t in grid:
        # the integral feeds only the resolvent route, which is 0 on conservative models
        ev = evolve(m, t, u, tol, want_integral=not m.conservative, _laws=laws)
        a0 = a0_on_integral(m, t, u, ev=ev)
        ahat = ahat_dp(m, t, u, tol=tol, a0=a0, st=st)
        rows[t] = (a0, DeltaResult(_clamp_nonpos(ahat.bracket - a0), a0, ahat.bracket, "dyson_phillips"))
        if not m.conservative:
            z = SignedSeq(axpy(lam, ev.integral, u), ev.value)  # nets out the shared support
            sides += [z.plus, z.minus]
    # entries flushed below FLUSH_THRESHOLD ride in a side's tail; on the cone
    # abar((lam-G)^{-1} v) lies in [0, |v|], so a tail widens its side
    sums = _abar_cone_series(m, lam, [PosSeq(v.entries) for v in sides], tol)
    abar = [Bracket(s.bracket.lo, s.bracket.hi + v.tail_bound) for s, v in zip(sums, sides)]
    for i, t in enumerate(grid):
        a0, dp = rows[t]
        abar_w = Bracket(0.0, 0.0) if m.conservative else abar[2 * i] - abar[2 * i + 1]
        rows[t] = (DeltaResult(_clamp_nonpos(abar_w - a0), a0, abar_w, "resolvent"), dp)
    return [rows[t] for t in ts]


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HonestyReport:
    verdict: str
    xi_bracket: Bracket
    lambda_used: float
    route: str
    evidence: dict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "xi": {"lo": self.xi_bracket.lo, "hi": self.xi_bracket.hi},
            "lambda": self.lambda_used,
            "route": self.route,
            "evidence": self.evidence,
        }


def report_to_json(r: HonestyReport) -> str:
    return json.dumps(r.to_json(), indent=2, sort_keys=True)


def report_from_json(text: str) -> HonestyReport:
    obj = json.loads(text)
    return HonestyReport(
        verdict=obj["verdict"],
        xi_bracket=Bracket(obj["xi"]["lo"], obj["xi"]["hi"]),
        lambda_used=obj["lambda"],
        route=obj["route"],
        evidence=obj["evidence"],
    )


def _classify(b: Bracket, tol: float) -> str:
    if b.hi <= tol:
        return HONEST
    if b.lo > tol:
        return DISHONEST
    return UNDETERMINED


def honesty_verdict(
    m: ModelSpec,
    u: PosSeq,
    lam: float = 1.0,
    tol: float = 1e-7,
) -> HonestyReport:
    """Three-valued honesty decision for the trajectory from u.

    Honest when the certified xi bracket sits below the verdict tolerance
    ``tol``; Dishonest when its certified lower edge clears it; Undetermined
    otherwise.  xi is computed to half that tolerance, and neither goes
    below 1e-12.  A lambda sweep is run to confirm that the classification
    does not depend on the resolvent parameter (its zero set cannot).
    """
    if u.is_zero or u.head_sum() <= 0.0:
        raise ValueError("honesty_verdict requires nonzero input mass")
    if not math.isfinite(lam):
        raise ValueError("honesty_verdict requires a finite lambda")
    verdict_tol = max(tol, 1e-12)
    xi_tol = max(0.5 * tol, 1e-12)
    x = xi(m, lam, u, xi_tol)
    verdict = _classify(x.bracket, verdict_tol)
    evidence: dict = {
        "j_norms": list(x.j_norms),
        "certification": x.certification,
        "iterations": x.iterations,
    }
    route = "resolvent"
    sweep = {}
    agree = True
    for lam2 in _LAM_SWEEP:
        x2 = x if lam2 == lam else xi(m, lam2, u, xi_tol)
        v2 = _classify(x2.bracket, verdict_tol)
        sweep[str(lam2)] = {"lo": x2.bracket.lo, "hi": x2.bracket.hi, "verdict": v2}
        if v2 != verdict:
            agree = False
    evidence["lambda_sweep"] = sweep
    evidence["lambda_sweep_consistent"] = agree
    if not agree:
        verdict = UNDETERMINED
    if subsolution_check(m, lam, u) is True:
        evidence["subsolution_certificate"] = True
        if verdict == UNDETERMINED:
            verdict = HONEST
            route = "subsolution"
    return HonestyReport(verdict, x.bracket, lam, route, evidence)


def subsolution_check(m: ModelSpec, lam: float, u: PosSeq) -> bool | None:
    """Whether J(lam) u <= u, as ``leq`` decides it; True certifies an
    honest trajectory from u."""
    if lam <= 0:
        raise ValueError("subsolution_check requires lambda > 0")
    return leq(apply_J(m, lam, u), u)


@dataclass(frozen=True)
class HereditaryReport:
    samples: int
    honest: int
    dishonest: int
    undetermined: int

    @property
    def all_honest(self) -> bool:
        return self.honest == self.samples


def hereditary_audit(
    m: ModelSpec,
    lam: float,
    v: PosSeq,
    samples: int,
    seed: int,
) -> HereditaryReport:
    """Random sub-elements 0 <= u <= v of an honest v must all be honest
    (honest initial data form a hereditary subcone)."""
    if v.is_zero:
        return HereditaryReport(0, 0, 0, 0)
    base = honesty_verdict(m, v, lam)
    if base.verdict != HONEST:
        raise ValueError("hereditary_audit requires an honest base element")
    counts = {HONEST: 0, DISHONEST: 0, UNDETERMINED: 0}
    keys = sorted(v.entries)
    ran = 0
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        scales = 1.0 - rng.random(len(keys))  # in (0, 1]
        u = PosSeq({k: s * v.entries[k] for k, s in zip(keys, scales)}, 0.0)
        if u.is_zero:
            continue
        ran += 1
        counts[honesty_verdict(m, u, lam).verdict] += 1
    return HereditaryReport(ran, counts[HONEST], counts[DISHONEST], counts[UNDETERMINED])
