"""Dyson-Phillips expansion of the minimal semigroup.

The iterates V_0(t) = U(t), V_{n+1}(t)u = int_0^t V_n(t-s) B U(s) u ds sum
to V(t)u from below.  Numerically each V_n(.)u is sampled on a dyadic time
grid over a finite state window; the iteration is evaluated through the
equivalent convolution V_{n+1}(t)u = int_0^t U(t-s) B V_n(s)u ds, whose
integrand reuses the stored samples directly (the two forms agree because
both telescope the same Duhamel formula).  Because A is diagonal, U and B
are applied exactly; composite Simpson panels keep all quadrature weights
positive.  The convolution at every node of an M-panel grid is evaluated by
running sums (the weights depend only on the parity of a node plus two end
corrections), so a term costs O(M*W) on a window of W states.  Each level
re-samples on the doubled grid; refinement stops when consecutive levels
agree below tolerance, and the final difference is reported as the
quadrature error estimate, never discarded.

One state over [0, t] also serves the earlier grid times s = k*t/2^5 (the
nodes of its coarsest grid, hence of every finer one): each served node
reads its term sample and its cumulative Simpson integral over [0, s] from
the same samples, the refinement runs until every served node agrees below
tolerance, and each node keeps its own error estimates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .l1 import PosSeq
from .models import ModelError, ModelSpec, OperatorWindow, apply_B, apply_U

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
    "dyadic_node",
]


# dyadic refinement levels of the time grid: 2^5 to 2^13 panels
_MIN_LEVEL = 5
_MAX_LEVEL = 13
# refinement stops once consecutive levels agree to this l1 distance
_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class DPTerm:
    """A computed expansion quantity plus its quadrature error estimate."""

    value: PosSeq
    error: float

    @property
    def mass(self) -> float:
        return self.value.head_sum()


def _simpson_weights(j: int, h: float) -> np.ndarray:
    """Positive composite weights for j panels of width h on [0, j*h].

    Even panel counts get plain composite Simpson; odd counts >= 3 end with
    a 3/8 block; a single panel falls back to the trapezoid (its O(h^3)
    local error is absorbed by the Richardson loop).
    """
    w = np.zeros(j + 1)
    if j == 0:
        return w
    if j == 1:
        w[0] = w[1] = 0.5 * h
        return w
    if j % 2 == 0:
        w[0] = w[j] = h / 3.0
        w[1:j:2] = 4.0 * h / 3.0
        w[2 : j - 1 : 2] = 2.0 * h / 3.0
        return w
    if j > 3:
        w[: j - 2] = _simpson_weights(j - 3, h)
    w[j - 3] += 3.0 * h / 8.0
    w[j - 2] += 9.0 * h / 8.0
    w[j - 1] += 9.0 * h / 8.0
    w[j] += 3.0 * h / 8.0
    return w


def _simpson_convolution(g: np.ndarray, decay: np.ndarray, h: float) -> np.ndarray:
    """f[j] = sum_i _simpson_weights(j, h)[i] * g[i] * decay[j - i] at every node.

    ``g`` and ``decay`` have shape (M+1, W), with decay[d] = U(d*h) on the
    window.  The weights depend only on the parity of i plus two end
    corrections, so running sums give every node in O(M*W):

    * even j = 2m: f = (h/3)(g_0 D_{2m} + g_{2m}) + T_m, where
      T_m = D_2 T_{m-1} + (4h/3) g_{2m-1} D_1 + (2h/3) g_{2m-2} D_2
      (the last addend only for m > 1);
    * odd j >= 3: the Simpson sum up to j-3 shifted by D_3, plus the 3/8
      block on [j-3, j] (f[0] = 0 covers j = 3);
    * j = 1: the trapezoid.

    Every addend is nonnegative and every factor is at most 1, so the cone
    is kept and stiff rates, where D_1 underflows to 0, are safe.
    """
    M = g.shape[0] - 1
    f = np.zeros_like(g)
    if M == 0:
        return f
    d1 = decay[1]
    f[1] = 0.5 * h * (g[0] * d1 + g[1])
    if M == 1:
        return f
    d2 = decay[2]
    K = M // 2
    run = (4.0 * h / 3.0) * g[1 : 2 * K : 2] * d1
    run[1:] += (2.0 * h / 3.0) * g[2 : 2 * K - 1 : 2] * d2
    for m in range(1, K):
        run[m] += d2 * run[m - 1]
    f[2::2] = (h / 3.0) * (g[0] * decay[2::2] + g[2::2]) + run
    if M >= 3:
        d3 = decay[3]
        j = np.arange(3, M + 1, 2)
        block = g[j - 3] * d3 + 3.0 * g[j - 2] * d2 + 3.0 * g[j - 1] * d1 + g[j]
        f[j] = d3 * f[j - 3] + (3.0 * h / 8.0) * block
    return f


def dyadic_node(s: float, t: float) -> int | None:
    """k with s = k*t/2^_MIN_LEVEL exactly in floating point (0 <= k <=
    2^_MIN_LEVEL), so that s is a node of every sampling grid over [0, t];
    None when s is off that grid."""
    top = 1 << _MIN_LEVEL
    if s == t:
        return top
    if not 0.0 <= s < t:
        return None
    k = s * top / t
    return int(k) if k.is_integer() and k * t / top == s else None


class DPState:
    """Sampled expansion terms s -> V_n(s)u on a dyadic grid over [0, t].

    ``terms[n]`` has shape (M+1, W): sample index by windowed state.  The
    window is sized so that no transition from an occupied state leaves it
    for any term up to ``n_max``; a model whose kernel cannot be windowed
    this way is rejected.  The state serves t and every time in ``nodes``,
    each of which must be a ``dyadic_node`` of [0, t]; ``integrals``,
    ``errors`` and ``errors_int`` are keyed by the served time.
    """

    def __init__(self, model: ModelSpec, u: PosSeq, t: float, n_max: int, nodes: Iterable[float] = ()):
        if t < 0:
            raise ValueError("DPState requires t >= 0")
        if u.tail_bound != 0.0:
            raise ValueError("DPState requires finitely supported input")
        if n_max < 0:
            raise ValueError("DPState requires n_max >= 0")
        self.model = model
        self.u = u
        self.t = float(t)
        self.n_max = n_max
        self.nodes: dict[float, int] = {}  # served time -> its index on 2^_MIN_LEVEL panels
        for s in (*nodes, self.t):
            k = dyadic_node(s, self.t)
            if k is None:
                raise ValueError(f"DPState: {s!r} is not a node of the dyadic grid over [0, {t!r}]")
            self.nodes[float(s)] = k
        supp = u.support or (0,)
        stride = model.stride
        self.lo = max(0, min(supp) - (n_max + 1) * stride)
        self.hi = max(supp) + (n_max + 1) * stride + 1
        self.window = OperatorWindow(model, self.lo, self.hi)
        # states this deep inside the window are reachable by the tracked
        # terms, so a leak there would silently truncate
        margin = (n_max + 1) * max(stride, 1)
        if np.any(self.window.leak[margin : self.hi - self.lo - margin] > 0):
            raise ModelError("DPState: kernel leaks outside its stride window")
        self._sample()

    def _sample_level(self, mlev: int, u_win: np.ndarray) -> tuple[list[np.ndarray], dict[float, tuple]]:
        """Every term's samples on 2^mlev panels, and at each served node s
        (samples at s, Simpson integrals over [0, s]) per term, copied out
        so that a level can be compared after its samples are dropped."""
        M = 1 << mlev
        h = self.t / M
        times = np.linspace(0.0, self.t, M + 1)
        decay = np.exp(-np.outer(times, self.window.a))  # D[d] = U(d*h) on the window
        terms = [decay * u_win[None, :]]
        for _ in range(self.n_max):
            if not terms[-1].any():
                terms.append(terms[-1])  # every later term is exactly 0 too
                continue
            terms.append(_simpson_convolution(self.window.apply_B(terms[-1]), decay, h))
        at_nodes = {}
        for s, k in self.nodes.items():
            j = k << (mlev - _MIN_LEVEL)
            w = _simpson_weights(j, h)
            at_nodes[s] = ([f[j].copy() for f in terms], [f[: j + 1].T @ w for f in terms])
        return terms, at_nodes

    def _sample(self) -> None:
        u_win = np.zeros(self.hi - self.lo)
        for k, v in self.u.entries.items():
            u_win[k - self.lo] = v
        amax = float(self.window.a.max(initial=1.0))
        lev = int(math.ceil(math.log2(max(4.0, amax * self.t))))
        lev = max(_MIN_LEVEL, min(_MAX_LEVEL - 1, lev))
        prev = self._sample_level(lev, u_win)[1]
        errors = {s: [0.0] + [math.inf] * self.n_max for s in self.nodes}  # V_0 sampled exactly
        errors_int = {s: [math.inf] * (self.n_max + 1) for s in self.nodes}
        while True:
            lev += 1
            terms, cur = self._sample_level(lev, u_win)
            worst = 0.0
            for s in self.nodes:
                (cur_v, cur_int), (prev_v, prev_int) = cur[s], prev[s]
                for n in range(self.n_max + 1):
                    diff_int = float(np.abs(cur_int[n] - prev_int[n]).sum())
                    errors_int[s][n] = diff_int
                    worst = max(worst, diff_int)
                    if n >= 1:
                        diff = float(np.abs(cur_v[n] - prev_v[n]).sum())
                        errors[s][n] = diff
                        worst = max(worst, diff)
            if worst <= _QUAD_TOL or lev == _MAX_LEVEL:
                break
            prev = cur
            del terms  # hold one level's samples at a time
        self.level = lev
        self.times = np.linspace(0.0, self.t, (1 << lev) + 1)
        self.terms = terms
        self.integrals = {s: cur[s][1] for s in self.nodes}
        self.errors = errors
        self.errors_int = errors_int

    # -- extraction -----------------------------------------------------
    def term_at_t(self, n: int) -> DPTerm:
        return DPTerm(PosSeq.from_array(self.terms[n][-1], self.lo), self.errors[self.t][n])

    def integral(self, n: int, weight_lam: float = 0.0, s: float | None = None) -> tuple[np.ndarray, float]:
        """int_0^s exp(-weight_lam*r) V_n(r)u dr on the window (array, error),
        at a served time s (default t)."""
        s = self.t if s is None else float(s)
        if s not in self.nodes:
            raise ValueError(f"DPState over [0, {self.t!r}] does not serve {s!r}")
        err = self.errors_int[s][n] + _QUAD_TOL * 1e-3
        if not weight_lam:
            return self.integrals[s][n], err
        j = self.nodes[s] << (self.level - _MIN_LEVEL)
        w = _simpson_weights(j, self.t / (self.times.size - 1)) * np.exp(-weight_lam * self.times[: j + 1])
        return self.terms[n][: j + 1].T @ w, err


def dp_term(model: ModelSpec, n: int, t: float, u: PosSeq) -> DPTerm:
    """V_n(t)u: exact U(t)u for n = 0, iterated convolution above."""
    if n == 0:
        return DPTerm(apply_U(model, t, u), 0.0)
    return DPState(model, u, t, n).term_at_t(n)


def dp_partial_sum(model: ModelSpec, K: int, t: float, u: PosSeq) -> DPTerm:
    """sum_{k<=K} V_k(t)u; increases to V(t)u from below as K grows."""
    st = DPState(model, u, t, K)
    total = np.zeros(st.hi - st.lo)
    for n in range(K + 1):
        total += st.terms[n][-1]
    return DPTerm(PosSeq.from_array(total, st.lo), math.fsum(st.errors[st.t][: K + 1]))


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
    st = DPState(model, u, t, n)
    arr, err = st.integral(n)
    return DPTerm(PosSeq.from_array(st.window.apply_B(arr), st.lo), err * max(1.0, float(st.window.a.max())))


def _laplace_horizon(lam: float, u_norm: float) -> float:
    """Where the substochastic envelope exp(-lam*T)*|u|/lam drops below the tolerance."""
    return max(4.0 / lam, math.log(max(u_norm, 1.0) / (_QUAD_TOL * lam) + 1.0) / lam)


def dp_laplace(model: ModelSpec, n: int, lam: float, u: PosSeq) -> DPTerm:
    """int_0^inf exp(-lam*s) V_n(s)u ds; matches (lam-A)^{-1} J^n u.

    The horizon is truncated where the substochastic envelope
    exp(-lam*T)*|u|/lam drops below the tolerance; the bound joins the
    reported error estimate.
    """
    if lam <= 0:
        raise ValueError("dp_laplace requires lambda > 0")
    u_norm = u.head_sum()
    if u_norm == 0.0:
        return DPTerm(PosSeq.zero(), 0.0)
    horizon = _laplace_horizon(lam, u_norm)
    st = DPState(model, u, horizon, n)
    arr, err = st.integral(n, weight_lam=lam)
    tail = math.exp(-lam * horizon) * u_norm / lam
    return DPTerm(PosSeq.from_array(arr, st.lo), err + tail)


@dataclass(frozen=True)
class UniformTailReport:
    """Per-n tail norms |B int_t^inf e^{-lam s} V_n(s)u ds| against the
    n-independent bound e^{-lam t}|u| + |B int_t^inf e^{-lam s} U(s)u ds|."""

    bound: float
    computed: tuple[float, ...]
    all_within: bool


def dp_uniform_tail(model: ModelSpec, n_max: int, lam: float, t: float, u: PosSeq) -> UniformTailReport:
    """Each tail is the Laplace integral up to the horizon minus its head on
    [0, t], both read from one state per interval that holds every n <= n_max."""
    if lam <= 0:
        raise ValueError("dp_uniform_tail requires lambda > 0")
    u_norm = u.head_sum()
    # exact U-tail: coordinatewise u_k e^{-(lam+a_k)t}/(lam+a_k), then B
    a = model.a.at(list(u.entries)).tolist()
    u_tail = PosSeq({k: v * math.exp(-(lam + a_k) * t) / (lam + a_k) for (k, v), a_k in zip(u.entries.items(), a)})
    bound = math.exp(-lam * t) * u_norm + apply_B(model, u_tail).head_sum()
    full = DPState(model, u, _laplace_horizon(lam, u_norm), n_max)
    head = DPState(model, u, t, n_max)
    computed = []
    for n in range(n_max + 1):
        full_b = full.window.apply_B(full.integral(n, weight_lam=lam)[0])
        head_b = head.window.apply_B(head.integral(n, weight_lam=lam)[0])
        computed.append(max(0.0, float(full_b.sum()) - float(head_b.sum())))
    slack = 10.0 * _QUAD_TOL + 1e-12
    ok = all(cv <= bound + slack for cv in computed)
    return UniformTailReport(bound=bound, computed=tuple(computed), all_within=ok)
