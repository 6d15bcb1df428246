"""Construction of the minimal substochastic semigroup.

Two constructive routes are provided for the semigroup generated by the
closure-extension of A + B:

* the resolvent series ``(lam - G)^{-1} u = sum_n (lam - A)^{-1} J^n u``
  with ``J = B (lam - A)^{-1}``, whose partial sums increase to the limit
  and whose remainder is certified by the telescoping identity
  ``lam * |(lam-A)^{-1} w| = |w| - |J w| - <deficit, (lam-A)^{-1} w>``.
  The same loop weights term n by r^n (0 <= r <= 1) for Kato's generator
  A + r*B, and one bound ``r^K |J^K u| / lam`` certifies every truncation;

* the evolution ``V(t) u`` on one N-state truncation, evaluated by
  uniformization (Poisson-weighted powers of ``I + Q/c``), which preserves
  positivity and substochasticity term by term.  Dropped columns beyond the
  truncation are counted as kill, so every truncated value is an entrywise
  lower bound of the true one.  The truncation loses exactly the paths
  that reach N, so a bound on the chance of reaching N by time t certifies
  the upper edge; an explosive pure-birth cascade, which reaches N with
  high probability, is certified instead by tail bounds on the time it
  spends beyond N (the renewal sandwich).

The same Poisson pass also yields ``int_0^t V(s) u ds`` exactly (the time
integral of the Poisson weights has a closed form), which downstream
functionals consume.  The pass is blocked: the stepper writes the powers
into a preallocated block of rows, and each time adds its weights on the
block by one matrix product.  Its size is capped twice, by the Poisson
steps and by the work, N times the steps; a truncation short of the
certified one is flagged with the cap that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .l1 import Bracket, PosSeq
from .models import _ULP, ModelSpec, OperatorWindow, RateFn, _exp_bounds, apply_B_entries, resolvent_A_entries

__all__ = [
    "SeriesResult",
    "EvolveResult",
    "resolvent_G",
    "semigroup_V",
    "integrate_V",
    "evolve",
]


_SERIES_MAX_TERMS = 50_000
_N_START = 64  # least truncation of the evolution
_RENEWAL_N = 512  # least truncation of the renewal route (explosive cascades)
_RENEWAL_HEAD = 1 << 16  # most states of R_N's head summed term by term
_N_MAX = 1 << 20  # largest truncation that the search for a certified one doubles to
# Poisson terms allowed in the one uniformized pass of an evolution; rate
# growth like (k+1)^p makes the uniformization constant on an N-state
# truncation scale like N^p, so some cap is needed for super-linear models.
_STEP_BUDGET = 3_000_000
# N times Poisson steps allowed in that pass: the steps alone do not bound
# the time of a pass at a large N.
_WORK_BUDGET = 1 << 31
_BLOCK_BYTES = 4 << 20  # most bytes of one block of Poisson powers
_BLOCK_ROWS = 256  # most powers in one block


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
# Uniformized evolution on one certified truncation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolveResult:
    """Joint result of V(t)u and int_0^t V(s)u ds on the one truncation."""

    value: PosSeq
    mass_bracket: Bracket
    integral: PosSeq | None
    integral_bracket: Bracket | None
    n_used: int
    steps_used: int
    flagged: bool
    flag_reason: str

    @property
    def ladder(self) -> SimpleNamespace:
        """The truncations run, as ``ladder.levels``: (n_used,), (0,) when none."""
        return SimpleNamespace(levels=(self.n_used,))


def _block_rows(n: int) -> int:
    """Powers held in one block of an N-state pass: _BLOCK_BYTES of them,
    at least 1 and at most _BLOCK_ROWS."""
    return min(max(_BLOCK_BYTES // (8 * n), 1), _BLOCK_ROWS)


def _make_stepper(win: OperatorWindow, c: float, rows: int):
    """Return (block, fill): an uninitialised (rows + 1, N) block, and fill
    with fill(k): block[i+1] <- (I + Q/c) block[i] for i < k, in turn;
    positive and substochastic.

    Columns leaving the window are dropped, i.e. counted as kill.  Every
    row's band views and one scratch vector per band are built here, as a
    flat list of (ufunc, in, in, out) calls, so a step allocates nothing.
    """
    diag = 1.0 - win.a / c
    bands = [(tgt, src, r / c, np.empty(r.size)) for tgt, src, r in win.shifts()]
    block = np.empty((rows + 1, diag.size))
    calls = []
    for v, out in zip(block[:-1], block[1:]):
        calls.append((np.multiply, v, diag, out))
        for tgt, src, rc, tmp in bands:
            calls += [(np.multiply, rc, v[src], tmp), (np.add, out[tgt], tmp, out[tgt])]
    per_step = 1 + 2 * len(bands)

    def fill(k: int) -> None:
        for f, x, y, z in calls[: k * per_step]:
            f(x, y, z)

    return block, fill


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


def _poisson_window(m: ModelSpec, n: int, t: float) -> tuple[float, float]:
    """The uniformization constant c of the N-state truncation, and the last
    Poisson term summed to time t: the mean c*t plus nine standard deviations
    plus 40, inf when that leaves floating point (no budget fits it)."""
    c = max(m.a.max_upto(n), 1e-12)
    last = c * t + 9.0 * math.sqrt(c * t) + 40.0
    return c, math.ceil(last) if math.isfinite(last) else math.inf


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
    largest time's Poisson window.  The stepper fills a block of powers (row
    0 holds the last power of the previous block), and each time then adds
    its weights on the block's rows inside its own window by one matrix
    product.  Returns ([(v_acc, i_acc, v_defect, i_defect) per time],
    steps): the accumulated vectors plus bounds on the weight mass each
    accumulation is missing (relative to the truncated evolution itself, per
    unit input mass).
    """
    weights = []  # per time: first index, nonzero pmf slice, sf/c where sf > 0 (with the integral)
    defects = []  # per time: v_defect, i_defect
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
        # sf[j] > 0 exactly for j < hi_w; copies, so the full arrays are freed
        weights.append((lo_w, pmf[lo_w : hi_w + 1].copy(), sf[: max(hi_w, 0)] / c if want_integral else None))
        # Missing Poisson weight (both tails + underflow) plus the shared
        # scale error of the weights, per unit input mass.  Integral weights
        # missed beyond jmax, sum_{j>jmax} sf[j]/c, are bounded by a geometric
        # comparison from sf[jmax].
        tail_sum = float(sf[-1]) * max(2.0, math.sqrt(lam_p)) if jmax >= 2 * lam_p else t
        defects.append((missing + scale_err, tail_sum / c + (missing + scale_err) * t))
    rows = min(_block_rows(n), max(steps, 1))
    # the window's transients peak before any N-vector of the pass exists
    block, fill = _make_stepper(OperatorWindow(m, 0, n), c, rows)
    block[0] = 0.0
    for k, v in u.entries.items():
        block[0, k] = v
    out = [(np.zeros(n), np.zeros(n) if want_integral else None, *d) for d in defects]
    prod = np.empty(n)

    def add(acc: np.ndarray, w: np.ndarray, w_lo: int, lo: int, hi: int) -> None:
        """acc += sum_j w[j - w_lo] (row j - j0 of the block) over the powers
        j in [lo, hi) that w weighs."""
        lo, hi = max(lo, w_lo), min(hi, w_lo + w.size)
        if lo < hi:
            np.matmul(w[lo - w_lo : hi - w_lo], block[lo - j0 : hi - j0], out=prod)
            np.add(acc, prod, out=acc)

    j0 = first = 0  # the power in row 0, and the first power not yet added
    while True:
        k = min(rows, steps - j0)
        if k:
            fill(k)
        for (lo_w, pmf, sfc), (v_acc, i_acc, _, _) in zip(weights, out):
            add(v_acc, pmf, lo_w, first, j0 + k + 1)
            if sfc is not None:
                add(i_acc, sfc, 0, first, j0 + k + 1)
        j0 += k
        first = j0 + 1
        if j0 >= steps:
            return out, steps
        block[0] = block[k]


def _reach(m: ModelSpec, top: int, n: int, t: float) -> float:
    """Band bound on the chance that a path started at or below ``top``
    reaches a state >= n by time t.

    With jumps of at most s = ``m.stride`` the path leaves every band
    [top + i s, top + (i+1) s) below n, the start's own included, by an
    upward jump from inside it; those come at rate at most c_i, the band's
    largest sum of positive-offset rates, so the time spent in band i is at
    least an independent Exp(c_i) time.  By Chernoff the chance is at most
    exp(th t - sum_i log1p(th / c_i)) for every th >= 0, and 0 when some c_i
    is 0.  th comes from Newton's method on sum_i 1/(c_i + th) = t from
    Jensen's root bands/t - mean(c), below the minimizer, which the
    iterates rise to without passing.  The log-sum is rounded down and the
    exponential up.
    """
    if m.stride == 0:
        return 0.0
    bands = (n - top) // m.stride
    if bands <= 0:
        return 1.0
    if top + (bands - 1) * m.stride >= m.kernel.extent:
        return 0.0  # the last band lies where every column is empty
    ks = np.arange(top, top + bands * m.stride)
    up = sum((r for d, r in m.kernel.bands(ks, m.a.at(ks)).items() if d > 0), np.zeros(ks.size))
    c = up.reshape(bands, m.stride).max(axis=1)
    if not c.all():
        return 0.0
    # th stays below 1e300, where c + th and 1/(c + th) are finite for any t
    th = min(max(0.0, bands / t - float(c.mean())), 1e300)
    for _ in range(100):
        w = 1.0 / (c + th)
        big = w.max()
        w /= big  # scaled: the squares of reciprocals of rates near 1e-308 overflow
        step = (w.sum() - t / big) / (big * (w @ w))
        if not (step > 1e-9 * th and th + step < 1e300):
            break
        th += step
    with np.errstate(over="ignore"):
        # an overflowed ratio reads DBL_MAX, whose log1p is still a lower bound
        x = np.minimum(th / c, np.finfo(float).max)
    log_sum = float(np.log1p(x).sum()) * (1.0 - (bands + 3) * _ULP)
    return min(1.0, _exp_bounds(th * t, -log_sum)[1])


def _drift_reach(m: ModelSpec, top: int, n: int, t: float) -> float:
    """Drift bound on the chance that a path started at or below ``top``
    reaches a state >= n by time t, for walks whose down rates check their
    up rates.

    With g_k(x) = sum_d r_{k,d} (e^{d x} - 1) over the offsets of k's
    column, V(k) = e^{x k} has QV(k) <= g_k(x) V(k) (killing only lowers
    it).  Stopped at n, V(X_s) - C s is a supermartingale for C = max(0,
    max_{k<n} g_k V(k)): the chance is at most (e^{x top} + C t) / e^{x n}
    (walks that drift down).  So is e^{x(s) (X_s + K)} for x(s) falling at
    the rate phi(x) = max(0, max_{k<n} g_k(x) / (k + K)): from x(0) to
    x(t) = y the chance is at most exp(x(0) (top + K) - y (n + K)) (walks
    that grow or sit near balance; K = 4^i up to 16 n).  x and y run over a
    geometric grid of (0, 40/s]; phi is convex, so its larger end value
    bounds it on each segment (a rise below 1e-300 reads 1e-300).  g and
    phi are rounded up, an overflow reading inf; the time sums carry a pad.
    """
    ks = np.arange(min(n, m.kernel.extent))  # every column is empty from the extent on
    offsets = m.kernel.bands(ks, m.a.at(ks))
    xs = np.geomspace(1.0 / (n + 1), 40.0 / m.stride, 200)
    kk = 4.0 ** np.arange(math.ceil(math.log(16 * n, 4)) + 1)
    phi = np.empty((xs.size, kk.size))
    best = 1.0
    for j, x in enumerate(xs):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [r * np.expm1(d * x) for d, r in offsets.items()]
            g = sum(terms, np.zeros(ks.size)) + (len(terms) + 3) * _ULP * sum(map(np.abs, terms), np.zeros(ks.size))
            g = np.nan_to_num(g, nan=np.inf)
            phi[j] = [max(0.0, float((g / (ks + k_off)).max(initial=0.0))) for k_off in kk]
            # g_k V(k) / V(n), the exponential good to about x (n - k) ulps
            h = np.nan_to_num(g * np.exp(x * (ks - n)) * (1.0 + 4 * _ULP * (2.0 + x * (n - ks))), nan=np.inf)
        best = min(best, _exp_bounds(-(n - top) * x)[1] + t * float(h.max(initial=0.0)) * (1.0 + 4 * _ULP))
    rises = np.maximum(phi[:-1], phi[1:]) * (1.0 + 4 * _ULP)
    for k_off, rise in zip(kk, rises.T):
        cum = np.concatenate(([0.0], np.cumsum(np.minimum(np.diff(xs) / np.maximum(rise, 1e-300), 4.0 * t))))
        # the time from grid point i up to j is cum[j] - cum[i], good to xs.size ulps of cum[-1]
        t_pad = t + 4 * xs.size * _ULP * cum[-1]
        end = np.searchsorted(cum, cum + t_pad, side="right") - 1
        i = np.nonzero(end < xs.size - 1)[0]  # starts whose x(0) stays on the grid
        x0 = (xs[end[i]] + (cum[i] + t_pad - cum[end[i]]) * rise[end[i]]) * (1.0 + 4 * _ULP)
        logs = x0 * (top + k_off) - xs[i] * (n + k_off)
        if logs.size:
            a = int(np.argmin(logs))
            best = min(best, _exp_bounds(x0[a] * (top + k_off), -xs[i[a]] * (n + k_off))[1])
    return best


def _truncation(m: ModelSpec, t: float, top: int, tol: float, renewal: bool) -> tuple[int, float, str]:
    """(N, reach, flag reason) for the one pass of an evolution from starts
    at or below ``top``.

    N is the least _N_START * 2^j >= 2(top+1) that is certified: on the
    renewal route at or above _RENEWAL_N, elsewhere with the band bound
    ``_reach`` or the drift bound ``_drift_reach`` at most tol/2 (reach is 0
    on the renewal route).  Failing that it is the largest that fits the
    step budget, the work budget on N times steps and _N_MAX, and the reason
    says which cap bound.  N is 0 when not even the first level fits the
    budgets.
    """
    n = _N_START
    while n < 2 * (top + 1):
        n *= 2
    found = 0, 1.0
    while True:
        steps = _poisson_window(m, n, t)[1]
        if steps > _STEP_BUDGET:
            return (*found, "step budget reached")
        if n * steps > _WORK_BUDGET:
            return (*found, "work budget reached")
        reach = 0.0 if renewal else _reach(m, top, n, t)
        if reach > tol / 2.0:  # the drift bound only where the band bound falls short
            reach = min(reach, _drift_reach(m, top, n, t))
        if (n >= _RENEWAL_N) if renewal else (reach <= tol / 2.0):
            return n, reach, ""
        found = n, reach
        if 2 * n > _N_MAX:
            return n, reach, "n_max reached"
        n *= 2


# ---------------------------------------------------------------------------
# The renewal route for explosive pure-birth cascades
# ---------------------------------------------------------------------------

def _renewal_applies(m: ModelSpec) -> bool:
    """A pure-birth cascade, with or without a separate birth rate, whose
    rates have a convergent reciprocal sum: a path that is not killed
    explodes."""
    return m.kernel.kind == "pure_birth" and not m.a.reciprocal_sum_diverges()


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


def evolve(
    m: ModelSpec,
    t: float,
    u: PosSeq,
    tol: float = 1e-8,
    want_integral: bool = True,
) -> EvolveResult:
    """V(t)u and int_0^t V(s)u ds, bracketed: one uniformized pass at one
    truncation N (see ``_truncation``), certified on one of two routes.

    Reach route, every model but the explosive pure-birth cascades: the
    truncation differs from the chain only on paths that reach N, so with
    reach >= P(reach N by t) (``_reach`` or ``_drift_reach``),

        |V_N(t)u| <= |V(t)u| <= |V_N(t)u| + reach |u|,

    and the integral over [0, t] likewise with t reach |u|.

    Renewal route, a pure-birth cascade with sum 1/a_k < inf: from a start
    k < N the truncated mass |V_N(s)e_k| is the chance of being alive short
    of N at s; a path that reaches N at S_N spends R_N = sum_{m >= N}
    E_m / a_m or less beyond N, independent of S_N.  With P(R_N < r_lo) <=
    eps and P(R_N > r_hi) <= eps, eps = tol/4, and V_N(s) = I for s <= 0,
    linearly in u >= 0:

        |V(t)u| <= |V_N(t - r_hi)u| + eps |u|,
        |V(t)u| >= (1 - eps) |V_N(t - r_lo)u|  when no state at or above
                   the lowest start kills (else >= |V_N(t)u|),

    and the integral likewise, the stretch before each shift adding
    min(t, r)|u|.  One pass evaluates all three times.

    A result short of the certified N keeps a certified, wider bracket and
    is flagged; with no level at all it is [0, |u|] around the zero vector.
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
    n, reach, reason, renewal = 0, 0.0, "", False
    eps = tol / 4.0
    r_lo = r_hi = 0.0
    if t > 0.0 and not u.is_zero:
        top = max(u.support)
        renewal = _renewal_applies(m)
        n, reach, reason = _truncation(m, t, top, tol, renewal)
        if renewal and n:
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    r_lo, r_hi = _renewal_tails(m.a, n, eps)
            except ArithmeticError:
                # the tail sums leave floating point (a rate or its reciprocal overflows)
                renewal = False
                n, reach, reason = _truncation(m, t, top, tol, False)
    if n == 0:
        # exact for t = 0 or a zero input; else not even the first level fits the budget
        return EvolveResult(
            value=PosSeq.zero() if reason else u,
            mass_bracket=Bracket(0.0 if reason else u_norm, u_norm),
            integral=PosSeq.zero() if want_integral else None,
            integral_bracket=Bracket(0.0, t * u_norm) if want_integral else None,
            n_used=0,
            steps_used=0,
            flagged=bool(reason),
            flag_reason=reason,
        )
    shifts = (0.0, r_lo, r_hi) if renewal else (0.0,)
    passes, steps = _uniformized(m, tuple(max(t - r, 0.0) for r in shifts), u, n, want_integral)
    (v_t, i_t, dv_t, _), (v_lo, i_lo, dv_lo, _), (v_hi, i_hi, dv_hi, di_hi) = passes if renewal else passes * 3
    # the shifted lower edge needs paths that cannot die once past the lowest start
    keep = 1.0 - eps if renewal and not m.kills_from(min(u.support)) else 0.0
    extra = eps if renewal else reach
    # Rounding wobble of the accumulated Poisson sums.  Every summand
    # w_j v_j[k] is nonnegative and they total at most |u| (t|u| for the
    # integral), so a sum whose summands each pass through at most D
    # roundings errs by at most D ulps of that total.  A window of W <=
    # steps + 1 powers is added block by block: one product per block, a
    # dot product of at most rows <= max(steps, 1) terms (at most rows
    # roundings in any order the BLAS picks), then one addition into the
    # accumulator, for at most W/rows + 2 blocks.  As r + W/r <= 1 + W for
    # 1 <= r <= W, D <= steps + 4 for every window and block size, inside
    # the steps + 16 below.
    fp_slack = (steps + 16) * _ULP * max(u_norm, 1e-300)

    def bracket(at_t, at_lo, at_hi, defect_hi: float, scale: float, before_lo: float, before_hi: float) -> Bracket:
        """Mass (scale 1) or integral (scale t) bracket from the vectors at t,
        t - r_lo and t - r_hi; the weight-scale error inside each Poisson
        defect cuts both ways, so it widens the lower edges too."""

        def slack(defect: float) -> float:
            return (fp_slack + defect * u_norm) * max(scale, 1.0)

        lo = max(0.0, at_t.sum() - slack(dv_t), keep * (before_lo + at_lo.sum() - slack(dv_lo)))
        hi = before_hi + at_hi.sum() + defect_hi * u_norm + slack(dv_hi) + extra * u_norm * scale
        return Bracket(float(lo), float(min(u_norm * scale, hi)))

    integral = integral_bracket = None
    if want_integral:
        integral = PosSeq.from_array(i_t)
        integral_bracket = bracket(i_t, i_lo, i_hi, di_hi, t, min(t, r_lo) * u_norm, min(t, r_hi) * u_norm)
    return EvolveResult(
        value=PosSeq.from_array(v_t),
        mass_bracket=bracket(v_t, v_lo, v_hi, dv_hi, 1.0, 0.0, 0.0),
        integral=integral,
        integral_bracket=integral_bracket,
        n_used=n,
        steps_used=steps,
        flagged=bool(reason),
        flag_reason=reason,
    )


def semigroup_V(m: ModelSpec, t: float, u: PosSeq, tol: float = 1e-8) -> tuple[PosSeq, Bracket, EvolveResult]:
    """V(t)u as a certified entrywise lower bound plus its mass bracket."""
    res = evolve(m, t, u, tol, want_integral=False)
    return res.value, res.mass_bracket, res


def integrate_V(m: ModelSpec, t: float, u: PosSeq, tol: float = 1e-8) -> tuple[PosSeq, Bracket, EvolveResult]:
    """int_0^t V(s)u ds with the same truncation certificate."""
    res = evolve(m, t, u, tol, want_integral=True)
    return res.integral, res.integral_bracket, res
