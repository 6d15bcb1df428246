"""Construction of the minimal substochastic semigroup.

Two constructive routes are provided for the semigroup generated by the
closure-extension of A + B:

* the resolvent series ``(lam - G)^{-1} u = sum_n (lam - A)^{-1} J^n u``
  with ``J = B (lam - A)^{-1}``, whose partial sums increase to the limit
  and whose remainder is certified by the telescoping identity
  ``lam * |(lam-A)^{-1} w| = |w| - |J w| - <deficit, (lam-A)^{-1} w>``.
  The same loop weights term n by r^n (0 <= r <= 1) for Kato's generator
  A + r*B, and one bound ``r^K |J^K u| / lam`` certifies every truncation;

* the evolution ``V(t) u`` on an N-state truncation, evaluated by
  uniformization (Poisson-weighted powers of ``I + Q/c``), which preserves
  positivity and substochasticity term by term.  Dropped columns beyond the
  truncation are counted as kill, so every truncated value is an entrywise
  lower bound of the true one and the ladder of truncations increases
  monotonically.  An explosive pure-birth cascade needs no ladder: tail
  bounds on the time spent beyond N certify a single truncation.

The same Poisson pass also yields ``int_0^t V(s) u ds`` exactly (the time
integral of the Poisson weights has a closed form), which downstream
functionals consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .l1 import Bracket, PosSeq
from .models import _ULP, ModelSpec, OperatorWindow, RateFn, apply_B_entries, resolvent_A_entries

__all__ = [
    "SeriesResult",
    "TruncationLadder",
    "EvolveResult",
    "resolvent_G",
    "semigroup_V",
    "integrate_V",
    "evolve",
]


_SERIES_MAX_TERMS = 50_000
_N_START = 64  # first truncation of the evolution ladder
_RENEWAL_N = 512  # least truncation of the renewal route (explosive cascades); a ladder level
_RENEWAL_HEAD = 1 << 16  # most states of R_N's head summed term by term
_N_MAX = 1 << 20  # largest truncation before the ladder stops flagged
# Poisson terms allowed across one evolution ladder, its first level included;
# rate growth like (k+1)^p makes the uniformization constant on an N-state
# truncation scale like N^p, so some cap is needed for super-linear models.
# Hitting it (or _N_MAX) widens the bracket and flags the result instead of
# failing; when not even the first level fits, the bracket is the trivial
# [0, |u|].
_STEP_BUDGET = 3_000_000


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of a positive series plus a bound on the omitted tail.

    The exact quantity dominates ``value`` entrywise and its mass lies in
    ``[mass(value).lo, mass(value).lo + defect]``.
    """

    value: PosSeq
    defect: float
    terms_used: int
    converged: bool

    @property
    def mass_bracket(self) -> Bracket:
        lo = self.value.head_sum()
        return Bracket(lo, lo + self.defect)


def resolvent_G(
    m: ModelSpec,
    lam: float,
    u: PosSeq,
    tol: float = 1e-8,
    r: float = 1.0,
) -> SeriesResult:
    """Resolvent of the generator A + r*B applied to ``u`` (cone input).

    Iterates ``w <- J w`` and accumulates ``r^n (lam - A)^{-1} w``; r = 1
    gives the minimal generator, 0 <= r < 1 Kato's interpolating generators.
    After K terms the omitted mass is at most ``r^K |J^K u| / lam`` (the
    remainder telescopes on the cone); at r = 1 and nonzero honesty defect
    this bound stalls at the defect over lam, which is reported rather than
    hidden.
    """
    if lam <= 0:
        raise ValueError("resolvent_G requires lambda > 0")
    if tol <= 0:
        raise ValueError("resolvent_G requires tol > 0")
    if not 0.0 <= r <= 1.0:
        raise ValueError("resolvent_G requires 0 <= r <= 1")
    if u.tail_bound != 0.0:
        raise ValueError("resolvent_G requires finitely supported input")
    u_norm = u.head_sum()
    acc: dict[int, float] = {}
    w = u
    rn = 1.0
    terms = 0
    defect = u_norm / lam
    for _ in range(_SERIES_MAX_TERMS):
        step = resolvent_A_entries(m, lam, w.entries)
        for k, v in step.items():
            acc[k] = acc.get(k, 0.0) + rn * v
        terms += 1
        w = PosSeq(apply_B_entries(m, step), 0.0)
        rn *= r
        defect = rn * w.head_sum() / lam
        if defect <= tol or w.is_zero:
            break
    value = PosSeq(acc, 0.0)
    # keep the certified chain lam*(|value| + defect) <= |u| despite rounding
    defect = max(0.0, min(defect, u_norm / lam - value.head_sum()))
    return SeriesResult(value, defect, terms, converged=defect <= tol)


# ---------------------------------------------------------------------------
# Uniformized evolution on a truncation ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationLadder:
    levels: tuple[int, ...]
    values: tuple[PosSeq, ...]

    def masses(self) -> tuple[float, ...]:
        return tuple(v.head_sum() for v in self.values)


@dataclass(frozen=True)
class EvolveResult:
    """Joint result of V(t)u and int_0^t V(s)u ds on the final truncation."""

    value: PosSeq
    mass_bracket: Bracket
    integral: PosSeq | None
    integral_bracket: Bracket | None
    ladder: TruncationLadder
    n_used: int
    steps_used: int
    closed: bool
    flagged: bool
    flag_reason: str


def _make_stepper(win: OperatorWindow, c: float):
    """Return f with f(v, out) <- (I + Q/c) v; positive and substochastic.

    Columns leaving the window are dropped, i.e. counted as kill.
    """
    diag = 1.0 - win.a / c
    shifts = [(tgt, src, r / c) for tgt, src, r in win.shifts()]

    def step(v: np.ndarray, out: np.ndarray) -> None:
        np.multiply(v, diag, out=out)
        for tgt, src, rc in shifts:
            out[tgt] += rc * v[src]

    return step


def _poisson_weights(lam_p: float, jmax: int):
    """pmf[j] and sf[j] = P(X >= j+1) for X ~ Poisson(lam_p), j <= jmax.

    Built multiplicatively from the mode so that huge rates never overflow;
    underflowed weights are zero and their mass shows up in the returned
    missing-weight bound.
    """
    j0 = min(int(lam_p), jmax)
    log_p0 = j0 * math.log(lam_p) - lam_p - math.lgamma(j0 + 1.0)
    pmf = np.zeros(jmax + 1)
    pmf[j0] = math.exp(log_p0)
    if j0 < jmax:
        ratios = lam_p / np.arange(j0 + 1.0, jmax + 1.0)
        pmf[j0 + 1 :] = pmf[j0] * np.cumprod(ratios)
    if j0 > 0:
        ratios = np.arange(float(j0), 0.0, -1.0) / lam_p
        pmf[j0 - 1 :: -1] = pmf[j0] * np.cumprod(ratios)
    total = float(pmf.sum())
    missing = max(0.0, 1.0 - total)
    # sf[j] = sum_{i > j} pmf[i] within the window (right tail missing mass
    # is covered by the caller's defect bookkeeping)
    sf = np.zeros(jmax + 1)
    sf[:-1] = np.cumsum(pmf[::-1])[::-1][1:]
    return pmf, sf, missing


def _poisson_window(m: ModelSpec, n: int, t: float) -> tuple[float, int]:
    """The uniformization constant c of the N-state truncation, and the last
    Poisson term summed to time t: the mean c*t plus nine standard deviations
    plus 40."""
    c = max(m.a.max_upto(n), 1e-12)
    return c, int(math.ceil(c * t + 9.0 * math.sqrt(c * t) + 40.0))


def _uniformized(
    m: ModelSpec,
    times: tuple[float, ...],
    u: PosSeq,
    n: int,
    want_integral: bool,
):
    """One truncation level, one stepper pass for several times: V_N(t)u and
    optionally int_0^t V_N(s)u ds at each t in ``times``.

    The powers (I + Q/c)^j u do not depend on t, so the pass runs to the
    largest time's Poisson window and each time weighs the powers inside its
    own window.  Returns ([(v_acc, i_acc, v_defect, i_defect) per time],
    steps): the accumulated vectors plus bounds on the weight mass each
    accumulation is missing (relative to the truncated evolution itself, per
    unit input mass).
    """
    u_arr = np.zeros(n)
    for k, v in u.entries.items():
        u_arr[k] = v
    weights = []  # per time: pmf, sf, and the first and last nonzero pmf index
    out = []  # per time: v_acc, i_acc, v_defect, i_defect
    steps = 0
    for t in times:
        c, jmax = _poisson_window(m, n, t)
        lam_p = c * t
        if lam_p == 0.0:
            # Poisson(0) puts all its weight on the identity
            pmf, sf, missing, scale_err, jmax = np.ones(1), np.zeros(1), 0.0, 0.0, 0
        else:
            pmf, sf, missing = _poisson_weights(lam_p, jmax)
            # the mode log-weight is a difference of ~lam_p*log(lam_p)-sized
            # terms, so all weights share a relative error of that scale
            scale_err = 4e-16 * lam_p * max(1.0, abs(math.log(lam_p)))
        steps = max(steps, jmax)
        nz = np.nonzero(pmf)[0]
        lo_w = int(nz[0]) if nz.size else 0
        hi_w = int(nz[-1]) if nz.size else -1
        weights.append((pmf, sf, lo_w, hi_w))
        # Missing Poisson weight (both tails + underflow) plus the shared
        # scale error of the weights, per unit input mass.  Integral weights
        # missed beyond jmax, sum_{j>jmax} sf[j]/c, are bounded by a geometric
        # comparison from sf[jmax].
        tail_sum = float(sf[-1]) * max(2.0, math.sqrt(lam_p)) if jmax >= 2 * lam_p else t
        v_acc = pmf[0] * u_arr
        i_acc = (sf[0] / c) * u_arr if want_integral else None
        out.append((v_acc, i_acc, missing + scale_err, tail_sum / c + (missing + scale_err) * t))
    if steps:
        step = _make_stepper(OperatorWindow(m, 0, n), c)
    v = u_arr.copy()
    buf = np.empty(n)
    scratch = np.empty(n)
    for j in range(1, steps + 1):
        step(v, buf)
        v, buf = buf, v
        for (pmf, sf, lo_w, hi_w), (v_acc, i_acc, _, _) in zip(weights, out):
            if lo_w <= j <= hi_w:
                np.multiply(v, pmf[j], out=scratch)
                v_acc += scratch
            if i_acc is not None and j < sf.size and sf[j] > 0.0:
                np.multiply(v, sf[j] / c, out=scratch)
                i_acc += scratch
    return out, steps


def _first_level(k: int) -> int:
    """The least truncation _N_START * 2^j that is >= k."""
    n = _N_START
    while n < k:
        n *= 2
    return n


# ---------------------------------------------------------------------------
# The renewal route for explosive pure-birth cascades
# ---------------------------------------------------------------------------

def _renewal_applies(m: ModelSpec) -> bool:
    """A pure-birth cascade feeding its full rate a_k to k+1 (so conservative)
    whose rates have a convergent reciprocal sum, i.e. that explodes."""
    return m.kernel.kind == "pure_birth" and m.kernel.birth is None and not m.a.reciprocal_sum_diverges()


def _golden_min(f, lo: float, hi: float) -> float:
    """The least value of f at the points of a golden-section search of the
    open interval (lo, hi); f is unimodal there, and every value is a valid
    bound, so the search only has to find a good one."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = min(f1, f2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
        best = min(best, f1, f2)
    return best


def _renewal_tails(a: RateFn, n: int, eps: float) -> tuple[float, float]:
    """(r_lo, r_hi) with P(R < r_lo) <= eps and P(R > r_hi) <= eps for the
    time R = sum_{m >= n} E_m / a_m a cascade spends at or beyond state n
    (E_m independent standard exponentials).

    Chernoff: P(R > r) <= E[e^{th R}] e^{-th r} for 0 < th < inf_{m>=n} a_m,
    and P(R < r) <= E[e^{-th R}] e^{th r} for th > 0.  The log-moments are
    summed term by term over the head n <= m < M and bounded past M, where
    the power tail is nondecreasing, by -log(1-x) <= x/(1-th/a_M) and
    log(1+x) >= x/(1+th/a_M) for x = th/a_m <= th/a_M, with the two integral
    bounds on sum_{m>=M} 1/a_m.  Every sum is rounded outward: r_hi up and
    r_lo down.
    """
    m_hi = max(n + min(16 * n, _RENEWAL_HEAD), len(a.values))
    rates = a.array(n, m_hi)
    inv = 1.0 / rates
    a_hi = a(m_hi)
    th_max = min(float(rates.min()), a_hi)
    t_plus = a.reciprocal_tail_bound(m_hi) * (1.0 + 8 * _ULP)
    t_minus = a.reciprocal_tail_lower_bound(m_hi) * (1.0 - 8 * _ULP)
    log_e = math.log(1.0 / eps)

    def upper(x: float) -> float:  # th = x * th_max, 0 < x < 1
        th = x * th_max
        y = th * inv
        s = float(-np.log1p(-y).sum())
        # a term errs by a few ulps of y/(1-y) >= -log1p(-y), the sum by size ulps of s
        s += _ULP * (3.0 * float((y / (1.0 - y)).sum()) + inv.size * s)
        return (s + th / (1.0 - th / a_hi) * t_plus + log_e) / th * (1.0 + 8 * _ULP)

    def lower(z: float) -> float:  # th = e^z * th_max
        th = math.exp(z) * th_max
        s = float(np.log1p(th * inv).sum()) * (1.0 - (inv.size + 3) * _ULP)
        tail = th / (1.0 + th / a_hi) * t_minus * (1.0 - 4 * _ULP)
        return (s + tail - log_e - 4 * _ULP * (s + tail + log_e)) / th * (1.0 - 2 * _ULP)

    r_hi = _golden_min(upper, 0.0, 1.0)
    r_lo = -_golden_min(lambda z: -lower(z), -20.0, 20.0)
    return max(0.0, r_lo), max(0.0, r_hi)


def _renewal(m: ModelSpec, t: float, u: PosSeq, tol: float, want_integral: bool) -> EvolveResult | None:
    """The renewal sandwich: one uniformized pass at one truncation N.

    From a start k < N the truncated mass |V_N(s)e_k| is exactly P(S_N > s),
    S_N the time to reach N, and the cascade explodes at S_N + R_N with
    R_N, the time spent at or beyond N, independent of S_N.  With
    P(R_N < r_lo) <= eps and P(R_N > r_hi) <= eps, eps = tol/4, and V_N(s) = I
    for s <= 0, linearly in u >= 0:

        |V(t)u| >= (1 - eps) |V_N(t - r_lo)u|,
        |V(t)u| <= |V_N(t - r_hi)u| + eps |u|,

    and the integral over [0, t] likewise, the stretch before each shift
    adding min(t, r)|u|.  N is the least _N_START * 2^j at or above
    _RENEWAL_N and 2(top+1); it is halved, down to the ladder's first level,
    while its Poisson window exceeds the step budget (still certified, but
    flagged).  Returns None when not even that level fits, or when the
    rates are too small for the tail sums to be held in floating point.
    """
    u_norm = u.head_sum()
    floor = _first_level(2 * (max(u.support) + 1))
    n = n_first = max(_RENEWAL_N, floor)
    while n > floor and _poisson_window(m, n, t)[1] > _STEP_BUDGET:
        n //= 2
    if _poisson_window(m, n, t)[1] > _STEP_BUDGET:
        return None
    eps = tol / 4.0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            r_lo, r_hi = _renewal_tails(m.a, n, eps)
    except ArithmeticError:
        return None  # rates so small that 1/a_m overflows: no float certificate
    times = (t, max(t - r_lo, 0.0), max(t - r_hi, 0.0))
    passes, steps = _uniformized(m, times, u, n, want_integral)
    (v_t, i_t, dv_t, _), (v_lo, i_lo, dv_lo, _), (v_hi, i_hi, dv_hi, di_hi) = passes
    fp_slack = (steps + 16) * _ULP * max(u_norm, 1e-300)

    def sandwich(at_t, at_lo, at_hi, defect_hi: float, scale: float, before_lo: float, before_hi: float) -> Bracket:
        """Mass (scale 1) or integral (scale t) bracket from the vectors at t,
        t - r_lo and t - r_hi; slack and Poisson defects enter as on the
        ladder."""

        def slack(defect: float) -> float:
            return (fp_slack + defect * u_norm) * max(scale, 1.0)

        lo = max(0.0, at_t.sum() - slack(dv_t), (1.0 - eps) * (before_lo + at_lo.sum() - slack(dv_lo)))
        hi = before_hi + at_hi.sum() + defect_hi * u_norm + slack(dv_hi) + eps * u_norm * scale
        return Bracket(float(lo), float(min(u_norm * scale, hi)))

    value = PosSeq.from_array(v_t)
    integral = integral_bracket = None
    if want_integral:
        integral = PosSeq.from_array(i_t)
        integral_bracket = sandwich(i_t, i_lo, i_hi, di_hi, t, min(t, r_lo) * u_norm, min(t, r_hi) * u_norm)
    return EvolveResult(
        value=value,
        mass_bracket=sandwich(v_t, v_lo, v_hi, dv_hi, 1.0, 0.0, 0.0),
        integral=integral,
        integral_bracket=integral_bracket,
        ladder=TruncationLadder((n,), (value,)),
        n_used=n,
        steps_used=steps,
        closed=False,
        flagged=n < n_first,
        flag_reason="step budget reached" if n < n_first else "",
    )


def evolve(
    m: ModelSpec,
    t: float,
    u: PosSeq,
    tol: float = 1e-8,
    want_integral: bool = True,
) -> EvolveResult:
    """V(t)u and int_0^t V(s)u ds, bracketed.

    A pure-birth cascade with sum 1/a_k < inf takes the renewal route: one
    pass at one N, certified by tail bounds on the time spent beyond N.
    Every other model takes the truncation ladder: it doubles N until the
    mass increment of V_N(t)u falls below ``tol``, the model is detected
    closed below N, or a resource cap is hit (then the bracket widens and
    the result is flagged).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("evolve requires a finite t >= 0")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("evolve requires a finite tol > 0")
    if u.tail_bound != 0.0:
        raise ValueError("evolve requires finitely supported input")
    if max(u.entries, default=0) >= _N_MAX:
        raise ValueError(f"evolve requires initial states below {_N_MAX}, the largest truncation")
    u_norm = u.head_sum()
    if t == 0.0 or u.is_zero:
        return EvolveResult(
            value=u,
            mass_bracket=Bracket(u_norm, u_norm),
            integral=PosSeq.zero() if want_integral else None,
            integral_bracket=Bracket(0.0, 0.0) if want_integral else None,
            ladder=TruncationLadder((0,), (u,)),
            n_used=0,
            steps_used=0,
            closed=True,
            flagged=False,
            flag_reason="",
        )
    top = max(u.support)
    if _renewal_applies(m):
        res = _renewal(m, t, u, tol, want_integral)
        if res is not None:
            return res
        # no truncation fits the step budget, so neither does the ladder's
        # first, and it returns the trivial [0, |u|] below; or the rates are
        # too small to certify in floating point, and the ladder estimates
    n = _first_level(2 * (top + 1))
    levels: list[int] = []
    values: list[PosSeq] = []
    integrals: list[PosSeq] = []
    budget = _STEP_BUDGET
    closed = False
    flagged = False
    reason = ""
    converged = False
    v_defect = i_defect = 0.0
    steps_total = 0
    last_inc: float | None = None
    last_inc_i: float | None = None
    while True:
        closed = m.closed_below(n, u.support)
        if _poisson_window(m, n, t)[1] > budget:
            flagged = True
            reason = "step budget reached"
            break
        ((v_arr, i_arr, v_def, i_def),), steps = _uniformized(m, (t,), u, n, want_integral)
        steps_total += steps
        budget -= steps
        v_defect, i_defect = v_def, i_def
        levels.append(n)
        values.append(PosSeq.from_array(v_arr))
        if want_integral:
            integrals.append(PosSeq.from_array(i_arr))
            if len(integrals) >= 2:
                last_inc_i = integrals[-1].head_sum() - integrals[-2].head_sum()
        if len(values) >= 2:
            last_inc = values[-1].head_sum() - values[-2].head_sum()
        if closed:
            converged = True
            break
        if last_inc is not None and last_inc < tol:
            converged = True
            break
        if 2 * n > _N_MAX:
            flagged = True
            reason = "n_max reached"
            break
        n *= 2
    if not levels:
        # not even the first level fits the budget: the bracket below widens
        # to the trivial [0, cap] around the zero vector
        closed = False
        levels, values, integrals = [0], [PosSeq.zero()], [PosSeq.zero()]

    # rounding wobble of the accumulated Poisson sums; the weight-scale error
    # inside v_defect cuts both ways, so it widens the lower edge too
    fp_slack = (steps_total + 16) * _ULP * max(u_norm, 1e-300) + v_defect * u_norm

    def bracket(value: float, inc: float | None, defect: float, scale: float) -> Bracket:
        """Bracket of the mass (scale 1) or the time integral (scale t),
        whose exact value is at most u_norm * scale."""
        slack = fp_slack * max(scale, 1.0)
        cap = u_norm * scale
        gap = defect * u_norm + slack
        if converged and not closed:
            gap = 2.0 * max(inc or 0.0, 0.0) + tol * scale + gap
        elif not closed:
            # doubling increments shrink roughly geometrically; four increments
            # comfortably cover the remaining truncation error (estimate, flagged)
            inc = inc if inc is not None else cap - value
            gap = min(cap - value, 4.0 * max(inc, tol * scale)) + gap
        return Bracket(max(0.0, value - slack), min(cap, value + gap))

    mass_bracket = bracket(values[-1].head_sum(), last_inc, v_defect, 1.0)
    integral = integral_bracket = None
    if want_integral:
        integral = integrals[-1]
        integral_bracket = bracket(integral.head_sum(), last_inc_i, i_defect, t)

    return EvolveResult(
        value=values[-1],
        mass_bracket=mass_bracket,
        integral=integral,
        integral_bracket=integral_bracket,
        ladder=TruncationLadder(tuple(levels), tuple(values)),
        n_used=levels[-1],
        steps_used=steps_total,
        closed=closed,
        flagged=flagged,
        flag_reason=reason,
    )


def semigroup_V(m: ModelSpec, t: float, u: PosSeq, tol: float = 1e-8) -> tuple[PosSeq, Bracket, EvolveResult]:
    """V(t)u as a certified entrywise lower bound plus its mass bracket."""
    res = evolve(m, t, u, tol, want_integral=False)
    return res.value, res.mass_bracket, res


def integrate_V(m: ModelSpec, t: float, u: PosSeq, tol: float = 1e-8) -> tuple[PosSeq, Bracket, EvolveResult]:
    """int_0^t V(s)u ds with the same monotone truncation certificate."""
    res = evolve(m, t, u, tol, want_integral=True)
    return res.integral, res.integral_bracket, res
