"""Construction of the minimal substochastic semigroup.

Two constructive routes are provided for the semigroup generated by the
closure-extension of A + B:

* the resolvent series ``(lam - G)^{-1} u = sum_n (lam - A)^{-1} J^n u``
  with ``J = B (lam - A)^{-1}``, whose partial sums increase to the limit
  and whose remainder is certified by the telescoping identity
  ``lam * |(lam-A)^{-1} w| = |w| - |J w| - <deficit, (lam-A)^{-1} w>``.
  One loop, ``_series_block``, runs it for many cone inputs at once, as a
  block of rows on an operator window that slides with their support; each
  row stops at its own term.  It weights term n by r^n (0 <= r <= 1) for
  Kato's generator A + r*B, and one bound ``r^K |J^K u| / lam`` certifies
  every truncation;

* the evolution ``V(t) u`` on one N-state truncation, evaluated by
  uniformization (Poisson-weighted powers of ``I + Q/c``), which preserves
  positivity and substochasticity term by term.  Dropped columns beyond the
  truncation are counted as kill, so every truncated value is an entrywise
  lower bound of the true one.  The truncation loses exactly the paths
  that reach N, so a bound on the chance of reaching N by time t certifies
  the upper edge; an explosive pure-birth cascade, which reaches N with
  high probability, is certified instead by bounds on the law of the time
  it spends beyond N (the renewal sandwich): Chernoff bounds, narrowed,
  from a start that cannot die, by a second pass from e_N, as that law is
  the cascade's own mass from N.

The same Poisson pass also yields ``int_0^t V(s) u ds`` exactly (the time
integral of the Poisson weights has a closed form), which downstream
functionals consume.  The pass is blocked: the stepper writes the powers
into a preallocated block of rows, and each time adds its weights on the
block by one matrix product.  ``_uniformized`` is the one pass, which evolve
and the Dyson-Phillips state run; ``_poisson_read`` decides for every reader
of it (evolve, its renewal strata, the Dyson-Phillips state) which powers a
time reads, with which weights, and how far the read may be off.  The pass
is capped by the Poisson steps and by the work, N times the steps; a
truncation short of the certified one is flagged with the cap that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .l1 import FLUSH_THRESHOLD, Bracket, PosSeq
from .models import _ULP, ModelSpec, OperatorWindow, RateFn, _exp_bounds

__all__ = [
    "SeriesResult",
    "EvolveResult",
    "resolvent_G",
    "semigroup_V",
    "integrate_V",
    "evolve",
]


_SERIES_MAX_TERMS = 50_000
# states a series window keeps past the targets it was refit to: each refit
# builds an OperatorWindow, so a cascade's 50,000 terms take twice as long at
# a slack of 2 (its stride + 1) as at 32, and under 10% less at 128
_SERIES_SLACK = 32
_N_START = 64  # least truncation of the evolution
_RENEWAL_N = 128  # least truncation of the renewal route (explosive cascades), and of its inner level
# least truncation of the renewal route from a start with a killing state at
# or above it, whose lower edge is the truncated mass at t alone
_RENEWAL_N_KILLING = 512
_RENEWAL_HEAD = 1 << 16  # most states of R_N's head summed term by term
_RENEWAL_STRATA = 64  # strata r_1 = r_lo < ... < r_J = r_hi of the renewal sandwich
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
    """Resolvent of the generator A + r*B applied to ``u`` (cone input): the
    one-row ``_series_block``.  r = 1 gives the minimal generator, 0 <= r < 1
    Kato's interpolating generators.  At r = 1 and nonzero honesty defect the
    remainder bound r^K |J^K u| / lam stalls at the defect over lam, which is
    reported rather than hidden.  Mass flushed below ``FLUSH_THRESHOLD``,
    from an iterate or from the value, is not summed and counts in the defect.
    """
    if lam <= 0:
        raise ValueError("resolvent_G requires lambda > 0")
    if tol <= 0:
        raise ValueError("resolvent_G requires tol > 0")
    if not 0.0 <= r <= 1.0:
        raise ValueError("resolvent_G requires 0 <= r <= 1")
    if u.tail_bound != 0.0:
        raise ValueError("resolvent_G requires finitely supported input")
    ((acc, first, rem, terms, _),) = _series_block(m, lam, [u.entries], tol, r)
    value = PosSeq.from_array(acc, first)
    # keep the certified chain lam*(|value| + defect) <= |u| despite rounding
    defect = max(0.0, min(rem + value.tail_bound, u.head_sum() / lam - value.head_sum()))
    return SeriesResult(value, defect, terms, converged=defect <= tol)


def _series_block(m: ModelSpec, lam: float, inputs: list[dict[int, float]], tol: float, r: float = 1.0) -> list:
    """sum_n r^n (lam - A)^{-1} J^n u_i, J = B (lam - A)^{-1}, for cone inputs
    u_i (index -> entry) as one block: a term divides the rows' iterates, a
    (rows x W) array on an ``OperatorWindow``, by lam + a and takes one
    banded B step, bands by offset.  Per input (value, first, rem, terms,
    err): the sum of the first K = terms terms on states first, first + 1,
    ..., a bound rem on the mass of the rest, and the value's relative error.

    A row counts until its rem is at most tol, its iterate is zero, or K =
    _SERIES_MAX_TERMS.  rem bounds r^K |J^K u_i| / lam, plus r^n m / lam
    for each iterate mass m dropped at term n where its step is under
    FLUSH_THRESHOLD (so every step summed is normal).  The window holds the
    support and its targets, _SERIES_SLACK states past targets beyond it,
    and is refit once mass reaches a state that feeds outside: a cascade's
    window slides with its one state.  The values grow in their own array,
    doubled when full, and a stopped row leaves the block.  A row reads
    neither the other rows nor the window (zeros add exactly, its stop
    reads fsum), so it is its own run bit for bit.

    Rounding, as in ``_poisson_read``: addends that pass D roundings err by
    D _ULP of their total.  With b offsets in the kernel a term passes b +
    2 (lam + a, the division, a rate's product and b - 1 additions, the
    first onto 0 being exact), r^n one (and 2^-1075 under the normal
    range), fsum one, a dropped mass K for its sum, and the value K for its
    sum over the terms: rem and err take K(b + 4) + 8 ulps, 8 for their own
    arithmetic and a reader's product by the deficits.  A product under the
    normal range (a rate under 2.2e-8) errs by 2^-1075 < 2.5e-24 of its
    step, the steps sum to at most 2|u_i| / lam and a lost mass weighs
    1/lam: rem starts at b ulp(0) |u_i| / (FLUSH_THRESHOLD lam^2).
    """
    ks = m.kernel._keys[1:]  # every listed column of a table; the other kernels need no state
    b, tiny = len(m.kernel.bands(ks, m.a.at(ks))), math.ulp(0.0)
    out = [(np.zeros(0), 0, 0.0, 1, 0.0)] * len(inputs)  # an empty input sums nothing in one term
    idx = np.flatnonzero([bool(u) for u in inputs])
    lo = min((min(inputs[i]) for i in idx), default=0)
    w = np.zeros((idx.size, max((max(inputs[i]) + 1 - lo for i in idx), default=0)))
    for row, i in zip(w, idx):
        row[np.fromiter(inputs[i], np.int64) - lo] = list(inputs[i].values())
    lost = np.array([b * tiny / FLUSH_THRESHOLD * math.fsum(inputs[i].values()) / lam / lam for i in idx])
    acc, first, rn, leaky = np.zeros((idx.size, 0)), lo, 1.0, None
    for terms in range(1, _SERIES_MAX_TERMS + 1 if idx.size else 1):
        if leaky is None or leaky.size and w[:, leaky].any():  # fit the window to the support and its targets
            ks = lo + np.flatnonzero(w.any(axis=0))
            hit = np.concatenate([ks, *(ks[c > 0] + d for d, c in m.kernel.bands(ks, m.a.at(ks)).items())])
            s_lo, s_hi, grow = int(ks[0]), int(ks[-1]) + 1, max(_SERIES_SLACK, int(ks[-1] - ks[0]) + 1)
            n_lo = max(0, int(hit.min()) - grow) if hit.min() < s_lo else s_lo
            n_hi = int(hit.max()) + 1 + grow if hit.max() >= s_hi else s_hi
            fit = np.zeros((idx.size, n_hi - n_lo))
            fit[:, s_lo - n_lo : s_hi - n_lo] = w[:, s_lo - lo : s_hi - lo]
            w, lo, win = fit, n_lo, OperatorWindow(m, n_lo, n_hi)
            den, leaky, step, tmp = lam + win.a, np.flatnonzero(win.leak), np.empty_like(w), np.empty_like(w)
            shifts = sorted(win.shifts(), key=lambda x: x[0].start - x[1].start)
            bands = [(w[:, t], step[:, s], c, tmp[:, : c.size]) for t, s, c in shifts]
            if lo < first or n_hi > first + acc.shape[1]:  # the values' array doubles to hold the window
                below = max(0, first - lo)
                size = max(2 * acc.shape[1], max(n_hi, first + acc.shape[1]) - first + below)
                acc, first = np.pad(acc, ((0, 0), (below, size - below - acc.shape[1]))), first - below
            val = acc[:, lo - first : n_hi - first]
        np.divide(w, den, out=step)
        cut = (step < FLUSH_THRESHOLD) & (w > 0.0)
        if cut.any():
            for i in np.flatnonzero(cut.any(axis=1)):
                lost[i] += math.fsum(w[i, cut[i]]) * ((rn + terms * tiny) / lam + tiny)
            w[cut] = step[cut] = 0.0
        val += step if rn == 1.0 else rn * step
        w.fill(0.0)
        for t, s, c, o in bands:
            np.add(t, np.multiply(s, c, out=o), out=t)
        rn, pad = rn * r, 1.0 + (terms * (b + 4) + 8) * _ULP
        weight = (rn + terms * tiny) / lam + tiny  # r^K / lam, rounded up past its rounding and underflow
        # pairwise sums lie far within 1e-9 of fsum: a row's stop reads its fsum alone
        limit = tol / (weight * pad) * (1.0 + 1e-9) if terms < _SERIES_MAX_TERMS else math.inf
        keep = np.ones(idx.size, bool)
        for i in [i for i, x in enumerate(np.add.reduce(w, axis=1).tolist()) if x <= limit]:
            rem = (math.fsum(w[i]) * weight + float(lost[i])) * pad
            if rem <= tol or not w[i].any() or terms == _SERIES_MAX_TERMS:
                out[idx[i]], keep[i] = (acc[i].copy(), first, rem, terms, pad - 1.0), False
        if not keep.all():
            w, acc, idx, lost, leaky = w[keep], acc[keep], idx[keep], lost[keep], None
            if not idx.size:
                break
    return out


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
    flag_reason: str

    @property
    def flagged(self) -> bool:
        """Whether the result stopped short of the certified truncation."""
        return bool(self.flag_reason)

    @property
    def ladder(self) -> SimpleNamespace:
        """The truncations run, as ``ladder.levels``: (n_used,), (0,) when none."""
        return SimpleNamespace(levels=(self.n_used,))


def _block_rows(n: int) -> int:
    """Powers held in one block of an N-state pass: _BLOCK_BYTES of them,
    at least 1 and at most _BLOCK_ROWS."""
    return min(max(_BLOCK_BYTES // (8 * n), 1), _BLOCK_ROWS)


def _make_stepper(chain, c: float, rows: int):
    """Return (block, fill): an uninitialised (rows + 1, N) block, and fill
    with fill(k): block[i+1] <- (I + Q/c) block[i] for i < k, in turn;
    positive and substochastic.

    ``chain`` is a pair (a, shifts) in an ``OperatorWindow``'s form.  Columns
    leaving the vector are dropped, i.e. counted as kill.  Every row's band
    views and one scratch vector per band are built here, as a flat list of
    (ufunc, in, in, out) calls, so a step allocates nothing.
    """
    a, shifts = chain
    diag = 1.0 - a / c
    bands = [(tgt, src, r / c, np.empty(r.size)) for tgt, src, r in shifts]
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


def _blocked_sums(stepper, start: dict[int, float], steps: int, weights: list, masses: bool = False):
    """([sum_j w[j - first] power_j for each (first, w) of ``weights``],
    mass) over the stepper's powers 0..steps from ``start`` (index -> entry).
    The stepper fills a block of powers (row 0 holds the last power of the
    previous block), and each sum adds its weights on the block's rows inside
    its own window by one matrix product.  With ``masses``, mass holds every
    power's mass, one row sum per block (else None)."""
    block, fill = stepper
    rows, n = block.shape[0] - 1, block.shape[1]
    block[0] = 0.0
    for k, v in start.items():
        block[0, k] = v
    out = [np.zeros(n) for _ in weights]
    prod = np.empty(n)
    mass = np.full(steps + 1, block[0].sum()) if masses else None
    j0 = first = 0  # the power in row 0, and the first power not yet added
    while True:
        k = min(rows, steps - j0)
        if k:
            fill(k)
            if masses:
                mass[j0 + 1 : j0 + k + 1] = block[1 : k + 1].sum(axis=1)
        for (w_lo, w), acc in zip(weights, out):
            lo, hi = max(first, w_lo), min(j0 + k + 1, w_lo + w.size)
            if lo < hi:
                np.matmul(w[lo - w_lo : hi - w_lo], block[lo - j0 : hi - j0], out=prod)
                np.add(acc, prod, out=acc)
        j0, first = j0 + k, j0 + k + 1
        if j0 >= steps:
            return out, mass
        block[0] = block[k]


def _poisson_weights(lam_p: float, jmax: int, lo: int = 0):
    """pmf[j - lo] and sf[j - lo] = P(j < X <= jmax) for X ~ Poisson(lam_p),
    lo <= j <= jmax, and the defect: a bound on the weight missing from the
    window plus the relative error that all its weights share.

    Built multiplicatively from the mode so that huge rates never overflow;
    underflowed weights are zero and their mass shows up in the defect.
    The mode log-weight is a difference of ~lam_p*log(lam_p)-sized terms,
    which is where the shared error comes from.
    """
    j0 = min(max(int(lam_p), lo), jmax)
    log_p0 = j0 * math.log(lam_p) - lam_p - math.lgamma(j0 + 1.0)
    pmf = np.zeros(jmax - lo + 1)
    pmf[j0 - lo] = math.exp(log_p0)
    if j0 < jmax:
        ratios = lam_p / np.arange(j0 + 1.0, jmax + 1.0)
        pmf[j0 - lo + 1 :] = pmf[j0 - lo] * np.cumprod(ratios)
    if j0 > lo:
        ratios = np.arange(float(j0), float(lo), -1.0) / lam_p
        pmf[j0 - lo - 1 :: -1] = pmf[j0 - lo] * np.cumprod(ratios)
    total = float(pmf.sum())
    missing = max(0.0, 1.0 - total)
    # sf[j] = sum_{i > j} pmf[i] within the window (the weight outside it
    # is the caller's to count)
    sf = np.zeros(pmf.size)
    sf[:-1] = np.cumsum(pmf[::-1])[::-1][1:]
    return pmf, sf, missing + 4e-16 * lam_p * max(1.0, abs(math.log(lam_p)))


def _poisson_last(x: float) -> float:
    """The last Poisson(x) term a pass sums: 0 at x = 0, where all the weight
    sits, else mean + 9 sd + 40, or inf (no budget fits it)."""
    if x == 0.0:
        return 0
    last = x + 9.0 * math.sqrt(x) + 40.0
    return math.ceil(last) if math.isfinite(last) else math.inf


def _poisson_window(m: ModelSpec, n: int, t: float) -> tuple[float, float]:
    """The N-state truncation's uniformization constant c and its last Poisson term at t."""
    c = max(m.a.max_upto(n), 1e-12)
    return c, _poisson_last(c * t)


def _poisson_read(c: float, lam: float, t: float, steps: float, per_step: int):
    """How time t reads a pass of ``steps`` powers p_j = (I + Q/c)^j u of a
    stepper that rounds ``per_step`` times a step: (first, last, values,
    head, integrals, value errors, integral errors).  With X ~ Poisson(ct)
    and Y ~ Poisson((c + lam)t),

        V(t)u = sum_j P(X = j) p_j,
        int_0^t e^{-lam s} V(s)u ds = sum_j c^j/(c + lam)^{j+1} P(Y > j) p_j,

    and for t = inf (lam > 0) the geometric c^j/(c + lam)^{j+1} alone.  The
    pass runs to ``last``, ``_poisson_last((c + lam)t)`` or for t = inf
    where the geometric weight falls below an ulp.  Y's weights are read on
    [first, last], mirrored about its mode: ``values`` (lam = 0 only) and
    ``integrals`` from ``first`` to the last nonzero one, and power j <
    first weighs head (c/(c + lam))^j in the integral (``_from_power_0``).
    A window past ``steps`` (only DPState's budget sets one) reads nothing,
    with the trivial errors.

    Each error is a pair (lower, upper), per unit |u|: how far the read may
    lie above and below the exact value of the exact powers.  Both take the
    defect of ``_poisson_weights`` (the weights' shared scale error and the
    weight outside the window) and the pad below.  The upper one takes the
    defect once more, and the integral's also t P(Y = last): the weight it
    misses past the window, sum_j P(Y > max(j, last))/(c + lam) <= E[Y; Y >
    last]/(c + lam) = t P(Y >= last), and before it, E[Y; Y < first]/(c +
    lam) <= t P(Y < first).  For t = inf it misses the geometric tail.

    The pad is in ulps (``_ULP``, over twice the unit roundoff u) of the
    read's total weight S (1 for the value, the integral's min(t, 1/lam))
    times |u|.  Every entry the read adds is a sum of nonnegative addends,
    so addends that pass through at most D roundings err by D u of their
    total.  The pad counts:

    * the stepper: power j errs by at most j per_step ulps of |u|, as a step
      rounds an addend by r/c, its product and at most ``per_step`` - 2
      additions, and 1 - a/c errs by 2u of 1.  Weighted, this is per_step
      c S, as the weights' mean index is at most c S: sum_j P(X = j) j = ct,
      and c int_0^t e^{-lam s} s ds <= c S^2 for the integral;
    * the weights: value weight j takes a ratio and a product per index
      from the mode j0 = floor((c + lam)t), the exponential and one more
      product, |j - j0| + 1 ulps past the shared error, whose mean is at
      most E|X - j0| + 1 <= sqrt(ct + 1) + 1 and at most the window's
      width w + 1.  An integral weight takes at most w ulps of those, (w +
      1)/2 for the tail sum over the window and 3 for the division and
      c^j/(c + lam)^j, which with lam > 0 also carries j ulps from c/(c +
      lam): c S more, weighted;
    * the sum of the W powers up to the window's end: at most W + 3
      roundings, as ``_blocked_sums`` adds one matrix product of at most r
      rows per block into the accumulator, for at most W/r + 2 blocks, and
      r + W/r <= 1 + W (the strata's prefix sum of the masses before
      ``first`` takes first + 1);

    and 4 ulps for the reader's own rounding (a correctly rounded sum).
    """
    x = (c + lam) * t
    scale = min(t, 1.0 / lam) if lam else t
    q = c / (c + lam)
    if t == math.inf:
        rate = math.log1p(lam / c)
        last = math.ceil(-math.log(_ULP) / rate) if rate else math.inf
    else:
        last = _poisson_last(x)
    if last > steps:
        return 0, last, np.zeros(0), 0.0, np.zeros(0), (0.0, 1.0), (0.0, scale)
    if t == math.inf:
        pad = (per_step + 1) * c * scale + last + 13
        i_err = (scale * pad * _ULP, q ** (last + 1) / lam + scale * pad * _ULP)
        return 0, last, np.zeros(0), 0.0, q ** np.arange(last + 1.0) / (c + lam), (0.0, 1.0), i_err
    first = max(0, 2 * int(x) - last)
    pmf, sf, defect = _poisson_weights(x, last, first) if x else (np.ones(1), np.zeros(1), 0.0)
    w = pmf.size - int((pmf[::-1] != 0).argmax())  # the weights past it underflowed
    integrals = sf[: w - 1] * q ** np.arange(first, first + w - 1.0) if lam else sf[: w - 1]
    head, integrals = float(sf[0] + pmf[0]) / (c + lam), integrals / (c + lam)
    pad_i = (per_step + (lam > 0)) * c * scale + 3 * w + first + 14
    i_err = (scale * (defect + pad_i * _ULP), t * (float(pmf[-1]) + 2.0 * defect) + scale * pad_i * _ULP)
    if lam:
        return first, last, np.zeros(0), head, integrals, (0.0, 1.0), i_err
    pad_v = per_step * c * t + min(math.sqrt(c * t + 1.0), w) + w + 9
    return first, last, pmf[:w], head, integrals, (defect + pad_v * _ULP, 2.0 * defect + pad_v * _ULP), i_err


def _from_power_0(c: float, lam: float, first: int, head: float, integrals: np.ndarray) -> np.ndarray:
    """A ``_poisson_read``'s integral weights from power 0."""
    return np.concatenate((head * (c / (c + lam)) ** np.arange(first + 0.0), integrals))


def _chain(m: ModelSpec, n: int):
    """The chain (a, shifts) of the [0, n) truncation, in ``OperatorWindow``'s
    form; the window's transients are freed before any N-vector of a pass
    exists."""
    win = OperatorWindow(m, 0, n)
    return win.a, win.shifts()


def _uniformized(chain, c: float, lam: float, start: dict, ts, integrals: bool = True, strata: np.ndarray | None = None):
    """The one uniformized pass over the powers (I + Q/c)^j of ``start`` on
    ``chain``, a pair (a, shifts) in an ``OperatorWindow``'s form: (sums,
    errors, steps, rows).  Each time of ``ts`` adds its value, then with
    ``integrals`` its integral, to sums, and its ``_poisson_read`` error pairs
    to errors; the pass runs to the last power a time reads within
    ``_STEP_BUDGET`` (0 when none does).  rows: ``_stratum_sums`` at ``strata``."""
    a, shifts = chain[0], list(chain[1])
    per_step = len(shifts) + 2
    reads = [_poisson_read(c, lam, t, _STEP_BUDGET, per_step) for t in ts]
    steps = max((rd[1] for rd in reads if rd[1] <= _STEP_BUDGET), default=0)
    weights = []
    for first, _, v_w, head, i_w, *_ in reads:
        weights += [(first, v_w), (0, _from_power_0(c, lam, first, head, i_w))] if integrals else [(first, v_w)]
    stepper = _make_stepper((a, shifts), c, min(_block_rows(a.size), max(steps, 1)))
    del a, shifts  # the stepper keeps what it needs of the chain
    sums, mass = _blocked_sums(stepper, start, steps, weights, strata is not None)
    rows = None if strata is None else _stratum_sums(mass, c, strata, per_step)
    return sums, [rd[5:] for rd in reads], steps, rows


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
    with np.errstate(over="ignore"):
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


def _truncation(m: ModelSpec, t: float, top: int, tol: float, renewal_n: int) -> tuple[int, float, str]:
    """(N, reach, flag reason) for the one pass of an evolution from starts
    at or below ``top``.

    N is the least _N_START * 2^j >= 2(top+1) that is certified: on the
    renewal route at or above ``renewal_n``, elsewhere (``renewal_n`` 0)
    with the band bound ``_reach`` or the drift bound ``_drift_reach`` at
    most tol/2 (reach is 0 on the renewal route).  Failing that it is the
    largest that fits the step budget, the work budget on N times steps and
    _N_MAX, and the reason says which cap bound.  N is 0 when not even the
    first level fits the budgets.
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
        reach = 0.0 if renewal_n else _reach(m, top, n, t)
        if reach > tol / 2.0:  # the drift bound only where the band bound falls short
            reach = min(reach, _drift_reach(m, top, n, t))
        if (n >= renewal_n) if renewal_n else (reach <= tol / 2.0):
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


def _log_moments(a: RateFn, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(th_lo, k_lo, th_hi, k_hi): the Chernoff grid of R = sum_{m >= n}
    E_m / a_m, th < 0 on a geometric grid and 0 < th < inf_{m >= n} a_m
    dense near both ends, with K(th) = log E[e^{th R}] rounded up by
    ``RateFn.log_moment`` (summed term by term over the head n <= m < M and
    bounded past M)."""
    m_hi = max(n + min(16 * n, _RENEWAL_HEAD), len(a.values))
    th_max = min(float(a.array(n, m_hi).min()), a(m_hi))
    th_lo = -th_max * np.geomspace(1e4, 1e-4, 128)
    th_hi = th_max * np.concatenate((np.geomspace(1e-4, 0.5, 64), 1.0 - np.geomspace(0.5, 1e-6, 65)[1:]))
    k_lo, k_hi = np.split(a.log_moment(n, np.concatenate((th_lo, th_hi)), m_hi)[1], [th_lo.size])
    return th_lo, k_lo, th_hi, k_hi


def _least_bound(th: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """min over th (the first axis of th and k, which broadcast against r)
    of e^{K(th) - th r} at each point of r, rounded up: each exponent is
    padded past its rounding, then capped at 0."""
    e = k - th * r
    e += 4 * _ULP * (np.abs(k) + np.abs(th * r))
    return np.exp(np.minimum(e, 0.0)).min(axis=0) * (1.0 + 2 * _ULP)


def _cdf_edges(above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo <= F(r) <= hi along the last axis, from bounds ``above`` >= P(R >
    r) and ``below`` >= P(R <= r) at increasing r: 1 - above one ulp down
    for the subtraction, each in [0, 1].  F is nondecreasing, so a lower
    bound holds at every later r and an upper one at every earlier one:
    both are forced nondecreasing."""
    lo = np.maximum.accumulate(np.maximum(0.0, 1.0 - above - _ULP), axis=-1)
    hi = np.minimum.accumulate(np.minimum(1.0, below)[..., ::-1], axis=-1)[..., ::-1]
    return lo, hi


def _quantile_edges(grid: tuple, eps: float) -> tuple[float, float]:
    """(r_lo, r_hi) with F(r_lo) <= eps and 1 - F(r_hi) <= eps: the grid's
    best eps-quantile bounds, moved outward by 1e-12 of themselves past the
    rounding of their exponents."""
    th_lo, k_lo, th_hi, k_hi = grid
    log_e = math.log(1.0 / eps)
    r_hi = max(0.0, float(((k_hi + log_e) / th_hi).min()) * (1.0 + 1e-12))
    r_lo = min(max(0.0, float(((k_lo + log_e) / th_lo).max()) * (1.0 - 1e-12)), r_hi)
    return r_lo, r_hi


def _renewal_tails(a: RateFn, n: int, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strata r and bounds lo <= F(r[1:]) <= hi on the CDF F(r) = P(R <= r)
    of the time R = sum_{m >= n} E_m / a_m a cascade spends at or beyond
    state n (E_m independent standard exponentials).  r = (0, r_lo, ...,
    r_hi) holds _RENEWAL_STRATA equally spaced strata past 0, with
    F(r_lo) <= eps and 1 - F(r_hi) <= eps (``_quantile_edges``).

    Chernoff: with K(th) = log E[e^{th R}] = -sum_{m >= n} log(1 - th/a_m),
    P(R > r) <= e^{K(th) - th r} for 0 < th < inf_{m>=n} a_m and P(R <= r)
    <= e^{K(th) - th r} for th < 0.  Every th of one grid (``_log_moments``)
    gives a bound, and the least counts (``_least_bound``); ``_cdf_edges``
    turns the two into lo and hi.
    """
    grid = _log_moments(a, n)
    r_lo, r_hi = _quantile_edges(grid, eps)
    r = np.concatenate(([0.0], np.linspace(r_lo, r_hi, _RENEWAL_STRATA)))
    th_lo, k_lo, th_hi, k_hi = (x[:, None] for x in grid)
    return (r, *_cdf_edges(_least_bound(th_hi, k_hi, r[1:]), _least_bound(th_lo, k_lo, r[1:])))


def _sandwich(vals, lo_err, hi_err, cdf_lo, cdf_hi, top) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) edges on E[g(R)] for g nondecreasing with g <= top,
    from g's values at strata 0 = r_0 < r_1 < ... < r_J (the last axis),
    which may lie ``lo_err`` above and ``hi_err`` below them, and lo <=
    P(R <= r_j) <= hi at j >= 1.  On [r_j, r_{j+1}) g lies between g_j and
    g_{j+1} (g_{J+1} = top), so

        E[g(R)] <= top - sum_{j=1}^J lo_j (g_{j+1} - g_j),
        E[g(R)] >= g_J - sum_{j=1}^J hi_j (g_j - g_{j-1}),

    which needs the edges' values nondecreasing: as g is, a lower value
    still holds past a smaller later one, and an upper value before a
    larger earlier one."""
    below = np.maximum.accumulate(vals - lo_err, axis=-1)
    above = np.concatenate((vals + hi_err, np.full((*vals.shape[:-1], 1), top)), axis=-1)
    above = np.minimum.accumulate(above[..., ::-1], axis=-1)[..., ::-1]
    lo = below[..., -1] - (cdf_hi * np.diff(below, axis=-1)).sum(axis=-1)
    hi = top - (cdf_lo * np.diff(above, axis=-1)[..., 1:]).sum(axis=-1)
    return np.maximum(0.0, lo), np.minimum(top, hi)


def _cascade_tails(m: ModelSpec, n: int, r: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float, steps_left: float, work_left: float, law=None):
    """(lo, hi, steps): ``_renewal_tails``' bounds lo <= F(r) <= hi on F(r)
    = P(R_n <= r) at the strata r[1:], narrowed by the cascade's own law,
    and the Poisson steps that took (0: the Chernoff bounds alone, or the
    narrowed ones of a pass that ``law`` keeps).

    The identity: when nothing kills at or past n, P(R_n > r) = |V(r)e_n|,
    as a path from n keeps its mass exactly until it explodes.  That mass
    is a renewal sandwich of its own (see ``evolve``): with N' the
    truncation ``_truncation`` picks from top n on the renewal route (512
    for n = 128), R' = R_{N'} and h(s) = |V_{N'}(s)e_n| (h = 1 for s <= 0),
    P(R_n > r) = E[h(r - R')], nondecreasing in R'.  One uniformized pass
    from e_n on N' keeps its masses, each h is a ``_stratum_sums`` read of
    them (padded by N' + 3 (J' + 1) ulps, as the outer reads are), and
    ``_sandwich`` takes Chernoff bounds on R''s CDF from one
    ``_log_moments`` grid at N', whose eps-quantiles rho_lo and rho_hi
    (eps = tol/4) the inner strata span.

    The combination: P(R_n > r_j) in [s_lo, s_hi] gives 1 - s_hi <= F(r_j)
    <= 1 - s_lo, each edge one ulp outward for the subtraction
    (``_cdf_edges``).  The tighter bound counts, the larger lower and the
    smaller upper one, so the result is never wider than Chernoff's (on
    quadratic_birth at n = 128 and 256 the cascade's is the tighter at
    every stratum).

    Exact, shared reads: row j (for F(r_j)) has strata 0 and r_j - k eta,
    for k = q_j - o, q_j = floor(r_j / eta), and the offsets o over
    max(0, floor(rho_lo / eta) - 1) .. ceil(rho_hi / eta), so its first
    stratum past 0 lies below rho_lo and its last at or past rho_hi.  eta
    is the largest power of two at most half the outer strata's spacing;
    a whole spacing left the cascade's widest bracket at 1.63e-4 against
    1.41e-4, a quarter narrows it 7% for 20% more time.  Every row then
    reads h at the lattice times k eta, shared: those from r_lo - rho_hi to
    r_hi, about (r_hi - r_lo + rho_hi)/eta reads (245 at n = 128) instead
    of J (J' + 1) (1,600) at each row's own times.  The
    difference r_j - k eta is exact, so the stratum a Chernoff bound is
    taken at is the stratum whose h is read: r_j and k eta are multiples
    of ulp(r_j) <= eta, and 0 <= r_j - k eta <= r_j (a k < 0 reads h = 1
    at time 0, as at every time <= 0).  Stratum 0 reads h at (q_j + 1) eta
    >= r_j, a lower value of h(r_j), as h is nonincreasing.  The rows' strata
    differ by their offsets r_j mod eta, where the outer strata stay
    ``_renewal_tails``' own; every th gives a bound, so a stratum in [b, b
    + eta), b on the lattice, takes the least of e^{K(th) - th rho} over
    the two th that are best at b and at b + eta, not the whole grid.

    The pass is skipped, and the Chernoff bounds kept, when something kills
    at or past n, when it does not fit the Poisson steps and the work (N'
    times its steps) that the evolution has left, or when the tail sums at
    N' leave floating point.  ``law``, the ``_renewal_law`` that lo and hi
    come from, keeps the pass's (n2, steps, lo, hi) once it has run: a
    later call reads them where the pass fits its own budgets.
    """
    if law is not None and law.inner:
        n2, steps, k_lo, k_hi = law.inner
        return (k_lo, k_hi, 0) if steps <= steps_left and n2 * steps <= work_left else (lo, hi, 0)
    rs = r[1:]
    spacing = (rs[-1] - rs[0]) / max(rs.size - 1, 1)
    if m.kills_from(n) or not spacing > 0.0:
        return lo, hi, 0
    n2 = _truncation(m, float(rs[-1]), n, tol, _RENEWAL_N)[0]
    if n2 == 0:
        return lo, hi, 0
    eta = 2.0 ** (math.floor(math.log2(spacing)) - 1)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            grid = _log_moments(m.a, n2)
            rho_lo, rho_hi = _quantile_edges(grid, tol / 4.0)
    except ArithmeticError:
        return lo, hi, 0
    offs = np.arange(max(0, math.floor(rho_lo / eta) - 1), math.ceil(rho_hi / eta) + 1)
    q = np.floor(rs / eta)[:, None]
    k = np.concatenate((q + 1.0, q - offs), axis=1)  # (J, J' + 1) read lattice indices
    rho = rs[:, None] - k[:, 1:] * eta  # exact
    k0 = max(0, int(k.min()))
    times = np.arange(k0, int(k.max()) + 1) * eta
    c2, steps = _poisson_window(m, n2, float(times[-1]))
    if steps > steps_left or n2 * steps > work_left:
        return lo, hi, 0
    _, _, steps, rows = _uniformized(_chain(m, n2), c2, 0.0, {n: 1.0}, (float(times[-1]),), False, times)
    vals, g_lo, g_hi = rows[[0, 2, 3]][:, np.maximum(k, 0).astype(np.int64) - k0]
    pad = (n2 + 3 * k.shape[1]) * _ULP
    # the two th best at the lattice points bounding each stratum
    th_lo, k_lo, th_hi, k_hi = grid
    edges = np.arange(offs[0], offs[-1] + 2) * eta

    def sides(th: np.ndarray, kk: np.ndarray) -> np.ndarray:
        best = (kk[:, None] - th[:, None] * edges).argmin(axis=0)
        pick = np.stack((best[:-1], best[1:]))[:, None, :]
        return _least_bound(th[pick], kk[pick], rho)

    s_lo, s_hi = _sandwich(vals, g_lo + pad, g_hi + pad, *_cdf_edges(sides(th_hi, k_hi), sides(th_lo, k_lo)), 1.0)
    # lo and hi are nondecreasing already, so the tighter edge is too
    c_lo, c_hi = _cdf_edges(s_hi, 1.0 - s_lo + _ULP)
    if law is not None:
        law.inner = n2, steps, np.maximum(lo, c_lo), np.minimum(hi, c_hi)
    return np.maximum(lo, c_lo), np.minimum(hi, c_hi), steps


def _renewal_law(m: ModelSpec, n: int, tol: float, kills: bool) -> SimpleNamespace | None:
    """R_N's law at N and tol, whatever t: ``_renewal_tails``' strata r and
    bounds lo, hi (hi = 1 from a start that can die), and ``inner``, the
    pass that ``_cascade_tails`` keeps; None when the tail sums leave
    floating point (a rate or its reciprocal overflows)."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            r, lo, hi = _renewal_tails(m.a, n, tol / 4.0)
    except ArithmeticError:
        return None
    return SimpleNamespace(r=r, lo=lo, hi=np.ones(hi.size) if kills else hi, inner=None)


def _stratum_sums(mass: np.ndarray, c: float, times: np.ndarray, per_step: int) -> np.ndarray:
    """Rows (g, i, g_lo, g_hi, i_lo, i_hi) at each s in ``times``: the mass
    g of V_N(s)u and its integral i over [0, s], each a ``_poisson_read`` of
    s on the masses of a pass's powers, with its (lower, upper) errors per
    unit input mass.  The masses before s's window enter the integral as one
    prefix sum times head, so a stratum costs its window alone."""
    prefix = np.concatenate(([0.0], np.cumsum(mass)))
    out = np.zeros((6, times.size))
    for k, s in enumerate(times.tolist()):
        first, _, v_w, head, i_w, v_err, i_err = _poisson_read(c, 0.0, s, math.inf, per_step)
        window = mass[first : first + v_w.size]
        out[:, k] = v_w @ window, head * prefix[first] + i_w @ window[: i_w.size], *v_err, *i_err
    return out


def evolve(
    m: ModelSpec,
    t: float,
    u: PosSeq,
    tol: float = 1e-8,
    want_integral: bool = True,
    *,
    _laws: dict | None = None,
) -> EvolveResult:
    """V(t)u and int_0^t V(s)u ds, bracketed: one uniformized pass at one
    truncation N (see ``_truncation``), certified on one of two routes.

    Reach route, every model but the explosive pure-birth cascades: the
    truncation differs from the chain only on paths that reach N, so with
    reach >= P(reach N by t) (``_reach`` or ``_drift_reach``),

        |V_N(t)u| <= |V(t)u| <= |V_N(t)u| + reach |u|,

    and the integral over [0, t] likewise with t reach |u|.

    Renewal route, a pure-birth cascade with sum 1/a_k < inf: a path from a
    start below N leaves the truncation at D, when it is killed or reaches N,
    and then spends at most R = sum_{m >= N} E_m / a_m beyond N, independent
    of D.  With g(r) = |V_N(t - r)u| = P(D > t - r), nondecreasing in r
    (V_N(s) = I for s <= 0), |V(t)u| <= E[g(R)], with equality when no state
    at or above the lowest start kills (else |V(t)u| >= g(0) only).  On the
    strata 0 = r_0 < r_1 = r_lo < ... < r_J = r_hi of ``_renewal_tails``
    (eps = tol/4 at r_lo and r_hi), with lo_j <= P(R <= r_j) <= hi_j, g at
    each stratum's right end bounds E[g(R)] above, at its left end below:

        E[g(R)] <= |u| - sum_{j=1}^J lo_j (g_{j+1} - g_j),  g_{J+1} = |u|,
        E[g(R)] >= g_J - sum_{j=1}^J hi_j (g_j - g_{j-1}),

    the lower one with hi = 1, which leaves g_0, from a start that can die.
    The integral likewise with G(r) = min(t, r)|u| + int_0^{t-r} |V_N(s)u| ds,
    also nondecreasing, and G_{J+1} = t|u|.  The pass keeps the mass of
    each power, and every g_j and G_j is its stratum's read of those masses
    (``_stratum_sums``).  lo_j and hi_j are ``_renewal_tails``' Chernoff
    bounds, narrowed by ``_cascade_tails`` from a start that cannot die:
    then nothing kills at or past N either, so P(R > r) = |V(r)e_N|, which a
    second pass from e_N at N' brackets by the same sandwich, one level down
    (N = 128, N' = 512).  The two passes share the step and work budgets;
    an inner pass that does not fit leaves the Chernoff bounds, unflagged.
    From a start that can die the lower edge is g_0 whatever the CDF, and
    the upper one keeps Chernoff's bounds: an inner pass at N' = 2048
    narrowed head_kill's from e_0 by 3% for 60% more work.

    R_N's law (``_renewal_law``: strata, Chernoff bounds, inner pass)
    depends on N, tol and whether the start can die, not on t: ``_laws``, a
    mapping the caller owns for one model (``delta_by_routes``, one per
    grid), keeps it under that key for the calls that share it.  Budgets
    stay per call: a kept inner pass is read only where it fits what this
    call's pass left, so every value and bracket is the lone call's, and
    ``steps_used`` counts the steps this call ran (the inner pass's once).

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
    n, reach, reason, renewal, kills = 0, 0.0, "", False, False
    if t > 0.0 and not u.is_zero:
        top = max(u.support)
        renewal = _renewal_applies(m)
        # the lower edge needs paths that cannot die once past the lowest start
        kills = renewal and m.kills_from(min(u.support))
        n, reach, reason = _truncation(m, t, top, tol, (_RENEWAL_N_KILLING if kills else _RENEWAL_N) if renewal else 0)
        if renewal and n:
            laws = {} if _laws is None else _laws
            if (n, kills, tol) not in laws:
                laws[n, kills, tol] = _renewal_law(m, n, tol, kills)
            law = laws[n, kills, tol]
            if law is None:
                renewal = False
                n, reach, reason = _truncation(m, t, top, tol, 0)
    if n == 0:
        # exact for t = 0 or a zero input; else not even the first level fits the budget
        return EvolveResult(
            value=PosSeq.zero() if reason else u,
            mass_bracket=Bracket(0.0 if reason else u_norm, u_norm),
            integral=PosSeq.zero() if want_integral else None,
            integral_bracket=Bracket(0.0, t * u_norm) if want_integral else None,
            n_used=0,
            steps_used=0,
            flag_reason=reason,
        )
    strata = np.maximum(t - law.r, 0.0) if renewal else None
    c = _poisson_window(m, n, 0.0)[0]  # depends on the truncation alone
    sums, [(v_err, i_err)], steps, rows = _uniformized(_chain(m, n), c, 0.0, u.entries, (t,), want_integral, strata)
    v_t, i_t = sums[0], sums[1] if want_integral else None
    if renewal:
        r, cdf_lo, cdf_hi, inner = law.r, law.lo, law.hi, 0
        if not kills:
            cdf_lo, cdf_hi, inner = _cascade_tails(m, n, r, cdf_lo, cdf_hi, tol, _STEP_BUDGET - steps, _WORK_BUDGET - n * steps, law)
        g, i_g, g_lo, g_hi, i_lo, i_hi = rows
        # what the strata's reads leave out: a mass is a row sum of N
        # entries, and an edge adds at most three roundings per stratum
        pad = (n + 3 * r.size) * _ULP

        def bracket(vals: np.ndarray, lo_err: np.ndarray, hi_err: np.ndarray, scale: float) -> Bracket:
            """The two edges from a nondecreasing function's values at the
            strata, at most ``scale`` |u| everywhere."""
            lo_err, hi_err = (lo_err + pad * scale) * u_norm, (hi_err + pad * scale) * u_norm
            return Bracket(*map(float, _sandwich(vals, lo_err, hi_err, cdf_lo, cdf_hi, u_norm * scale)))

        mass_bracket = bracket(g, g_lo, g_hi, 1.0)
        integral_bracket = bracket(np.minimum(t, r) * u_norm + i_g, i_lo, i_hi, t) if want_integral else None
        steps += inner
    else:

        def bracket(acc: np.ndarray, err: tuple[float, float], scale: float) -> Bracket:
            """Mass (scale 1) or integral (scale t) bracket from the vector at
            t, whose correctly rounded sum ``_poisson_read`` pads for."""
            total = math.fsum(acc)
            hi = total + (err[1] + reach * scale) * u_norm
            return Bracket(max(0.0, total - err[0] * u_norm), min(u_norm * scale, hi))

        mass_bracket = bracket(v_t, v_err, 1.0)
        integral_bracket = bracket(i_t, i_err, t) if want_integral else None
    return EvolveResult(
        value=PosSeq.from_array(v_t),
        mass_bracket=mass_bracket,
        integral=PosSeq.from_array(i_t) if want_integral else None,
        integral_bracket=integral_bracket,
        n_used=n,
        steps_used=steps,
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
