"""Dyson-Phillips expansion of the minimal semigroup.

The iterates V_0(t) = U(t), V_{n+1}(t)u = int_0^t V_n(t-s) B U(s) u ds sum
to V(t)u from below.  They are computed by uniformization with counted
transitions over a finite state window: with c >= max a on the window,
D = I - diag(a)/c and E = B/c, the coefficient of eps^n in
exp(t(A + eps B)) = e^{-ct} sum_j (ct)^j/j! (D + eps E)^j is V_n(t).  So one
pass carries the words w_{j,n} (the products of j factors with n factors E)
by w_{j+1,n} = D w_{j,n} + E w_{j,n-1}, and every time of a grid reads

    V_n(t)u = sum_j P(X = j) w_{j,n},  int_0^t V_n(s)u ds = sum_j P(X > j)/c w_{j,n}

with X ~ Poisson(ct).  The e^{-lam s}-weighted integral over [0, t] takes
the weights c^j/(c+lam)^{j+1} P(Poisson((c+lam)t) > j) instead, and over
[0, inf) the geometric c^j/(c+lam)^{j+1} alone.

The recurrence is the evolution's uniformized chain on counted states:
term n of window state lo + k is entry n W + k of one (n_max + 1) W vector,
W the window's width, with the window's loss rates tiled n_max + 1 times
and each band d of B as band W + d, from row n to row n + 1.  So the
evolution's pass, ``minimal._uniformized``, runs it.  The window zeroes
every rate whose target leaves it, so an edge state sends exactly +0
across a row boundary and the rows never mix.  What row n_max sends leaves
the vector and is dropped: it feeds only terms past n_max.

Every word is nonnegative and sum_n |w_{j,n}| <= |u|, because D + E is
substochastic.  So the error that the pass certifies for a read of the
evolution bounds the sum over n of every term's l1 error.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .l1 import PosSeq
from . import minimal
from .minimal import _uniformized
from .models import ModelSpec, OperatorWindow, apply_B, apply_U

__all__ = [
    "DPState",
    "DPTerm",
    "UniformTailReport",
    "dp_term",
    "dp_partial_sum",
    "dp_convolution_residual",
    "dp_B_integral",
    "dp_laplace",
    "dp_uniform_tail",
]


@dataclass(frozen=True)
class DPTerm:
    """A computed expansion quantity plus a certified bound on its l1 error."""

    value: PosSeq
    error: float

    @property
    def mass(self) -> float:
        return self.value.head_sum()


class DPState:
    """The terms V_n(t)u and int_0^t e^{-lam s} V_n(s)u ds, n <= ``n_max``,
    at every time t of ``ts``, from one counted-uniformization pass.

    The window [lo, hi) reaches ``n_max`` + 1 jumps of the kernel's stride
    past u's support, so no term up to ``n_max`` sends mass out of it; a
    counted chain of more than ``minimal._N_MAX`` states, (n_max + 1)(hi -
    lo), is refused with a ValueError.  Each time is read by the pass,
    ``minimal._uniformized``, whose larger error times |u| it keeps; the
    pass runs ``level`` steps, to the last power a time reads within
    ``minimal._STEP_BUDGET`` (0 on a grid of t = 0 alone).  With lam > 0 a
    time may be inf (the Laplace transform); V_n(t)u is kept for lam = 0.
    """

    def __init__(self, model: ModelSpec, u: PosSeq, ts: Iterable[float], n_max: int, lam: float = 0.0):
        ts = tuple(float(t) for t in ts)
        if not all(t >= 0.0 and (t < math.inf or lam > 0.0) for t in ts) or lam < 0.0:
            raise ValueError("DPState requires times t >= 0, finite unless lam > 0")
        if u.tail_bound != 0.0:
            raise ValueError("DPState requires finitely supported input")
        if n_max < 0:
            raise ValueError("DPState requires n_max >= 0")
        self.model = model
        self.u = u
        self.n_max = n_max
        self.lam = lam
        supp = u.support or (0,)
        reach = (n_max + 1) * model.stride
        self.lo, self.hi = max(0, min(supp) - reach), max(supp) + reach + 1
        size, limit = (n_max + 1) * (self.hi - self.lo), minimal._N_MAX  # read at call time, as the step budget is
        if size > limit:
            raise ValueError(f"DPState: a counted chain of {size} states exceeds {limit}")
        self.window = OperatorWindow(model, self.lo, self.hi)
        self.c = float(self.window.a.max()) or 1.0  # any c >= max a uniformizes
        self._run(ts)

    def _run(self, ts: tuple[float, ...]) -> None:
        # the counted chain: term n of state lo + k at n W + k, and band d
        # of B as band W + d, from row n to row n + 1 (none past the last)
        rows, W = self.n_max + 1, self.hi - self.lo
        L = rows * W
        tiled = {W + d: np.tile(r, rows) for d, r in self.window.bands.items() if W + d < L}
        shifts = [(slice(s, L), slice(0, L - s), r[: L - s]) for s, r in tiled.items()]
        start = {k - self.lo: v for k, v in self.u.entries.items()}
        sums, errors, self.level, _ = _uniformized((np.tile(self.window.a, rows), shifts), self.c, self.lam, start, ts)
        u_norm = self.u.head_sum()
        self.errors = {t: (v_err[1] * u_norm, i_err[1] * u_norm) for t, (v_err, i_err) in zip(ts, errors)}
        self.values = {t: sums[2 * i].reshape(rows, W) for i, t in enumerate(ts)}
        self.integrals = {t: sums[2 * i + 1].reshape(rows, W) for i, t in enumerate(ts)}

    # -- extraction -----------------------------------------------------
    def term(self, t: float) -> tuple[np.ndarray, float]:
        """V_n(t)u for every n on the window (rows by n), and a certified
        bound on the sum over n of their l1 errors (lam = 0 only)."""
        if self.lam:
            raise ValueError("DPState keeps V_n(t)u only for lam = 0")
        return self.values[t], self.errors[t][0]

    def integral(self, t: float) -> tuple[np.ndarray, float]:
        """int_0^t e^{-lam s} V_n(s)u ds for every n (rows by n), and a
        certified bound on the sum over n of their l1 errors."""
        return self.integrals[t], self.errors[t][1]


def dp_term(model: ModelSpec, n: int, t: float, u: PosSeq) -> DPTerm:
    """V_n(t)u: exact U(t)u for n = 0, the counted pass above."""
    if n == 0:
        return DPTerm(apply_U(model, t, u), 0.0)
    st = DPState(model, u, (t,), n)
    rows, err = st.term(t)
    return DPTerm(PosSeq.from_array(rows[n], st.lo), err)


def dp_partial_sum(model: ModelSpec, K: int, t: float, u: PosSeq) -> DPTerm:
    """sum_{k<=K} V_k(t)u; increases to V(t)u from below as K grows."""
    st = DPState(model, u, (t,), K)
    rows, err = st.term(t)
    return DPTerm(PosSeq.from_array(rows.sum(axis=0), st.lo), err)


def dp_convolution_residual(model: ModelSpec, n: int, t: float, s: float, u: PosSeq) -> float:
    """l1 residual of V_n(t+s)u = sum_k V_k(t) V_{n-k}(s) u."""
    if n > 4:
        raise ValueError("dp_convolution_residual supports n <= 4")
    left = dp_term(model, n, t + s, u).value
    acc: dict[int, float] = {}
    for k in range(n + 1):
        inner = dp_term(model, n - k, s, u).value
        outer = dp_term(model, k, t, inner).value if not inner.is_zero else inner
        for idx, v in outer.entries.items():
            acc[idx] = acc.get(idx, 0.0) + v
    keys = set(acc) | set(left.entries)
    return math.fsum(abs(acc.get(k, 0.0) - left.get(k)) for k in keys)


def dp_B_integral(model: ModelSpec, n: int, t: float, u: PosSeq) -> DPTerm:
    """B int_0^t V_n(s)u ds (equals int_0^t B V_n(s)u ds)."""
    st = DPState(model, u, (t,), n)
    rows, err = st.integral(t)
    return DPTerm(PosSeq.from_array(st.window.apply_B(rows[n]), st.lo), err * float(st.window.colsum.max()))


def dp_laplace(model: ModelSpec, n: int, lam: float, u: PosSeq) -> DPTerm:
    """int_0^inf exp(-lam*s) V_n(s)u ds; matches (lam-A)^{-1} J^n u."""
    if lam <= 0:
        raise ValueError("dp_laplace requires lambda > 0")
    st = DPState(model, u, (math.inf,), n, lam)
    rows, err = st.integral(math.inf)
    return DPTerm(PosSeq.from_array(rows[n], st.lo), err)


@dataclass(frozen=True)
class UniformTailReport:
    """Per-n tail norms |B int_t^inf e^{-lam s} V_n(s)u ds| against the
    n-independent bound e^{-lam t}|u| + |B int_t^inf e^{-lam s} U(s)u ds|."""

    bound: float
    computed: tuple[float, ...]
    all_within: bool


def dp_uniform_tail(model: ModelSpec, n_max: int, lam: float, t: float, u: PosSeq) -> UniformTailReport:
    """Each tail is the Laplace integral minus its head on [0, t], both read
    from one state that holds every n <= n_max."""
    if lam <= 0:
        raise ValueError("dp_uniform_tail requires lambda > 0")
    u_norm = u.head_sum()
    # exact U-tail: coordinatewise u_k e^{-(lam+a_k)t}/(lam+a_k), then B
    a = model.a.at(list(u.entries)).tolist()
    u_tail = PosSeq({k: v * math.exp(-(lam + a_k) * t) / (lam + a_k) for (k, v), a_k in zip(u.entries.items(), a)})
    bound = math.exp(-lam * t) * u_norm + apply_B(model, u_tail).head_sum()
    st = DPState(model, u, (math.inf, t), n_max, lam)
    (full, full_err), (head, head_err) = st.integral(math.inf), st.integral(t)
    colsum = st.window.colsum
    computed = [max(0.0, float(colsum @ (f - h))) for f, h in zip(full, head)]
    slack = float(colsum.max(initial=0.0)) * (full_err + head_err)
    ok = all(cv <= bound + slack for cv in computed)
    return UniformTailReport(bound=bound, computed=tuple(computed), all_within=ok)
