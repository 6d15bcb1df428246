"""Generator pairs (A, B) on l1 and their exact primitives.

A model is a diagonal loss operator A (``(A u)_k = -a_k u_k`` with a_k > 0)
together with a positive transition kernel B whose column at k lists the
states fed by k and their rates.  Column dissipativity -- the rates leaving
state k never exceed a_k -- makes A + B formally substochastic; the column
deficit a_k - sum(rates) is the local kill rate.  A model is conservative
when every deficit vanishes.

Because A is diagonal, the semigroup U(t) = exp(tA), the resolvent
(lambda - A)^{-1} and the iteration operator J(lambda) = B (lambda - A)^{-1}
are all evaluated exactly on finitely supported data; truncation enters only
through explicit tail bounds.

Rates come as closed forms (power law ``c*(k+1)**p`` or finite table with a
power-law tail) so that a model is reproducible from its JSON file alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .l1 import PosSeq, SignedSeq

__all__ = [
    "RateFn",
    "Kernel",
    "ModelSpec",
    "ModelError",
    "DissipativityReport",
    "OperatorWindow",
    "apply_A",
    "apply_B",
    "apply_B_entries",
    "apply_resolvent_A",
    "resolvent_A_entries",
    "apply_U",
    "apply_J",
    "dissipativity_audit",
    "model_to_json",
    "model_from_json",
    "load_model",
    "dump_model",
]

_AUDIT_DEPTH = 256  # least depth checked at construction time (plus every listed table column)
STATE_LIMIT = 1 << 21  # every state a file or a start names lies below it
_RATE_LIMIT = 2 * STATE_LIMIT  # audited too, on the rising power tails: past what any route reads below STATE_LIMIT
_RATE_RTOL = 1e-12
_ULP = 2.3e-16  # a little over the unit roundoff: the error of one rounded operation
# most entries of one block of the th-by-head matrix of a log-moment's head
# sum: the cascade's peak memory follows it
_THETA_BLOCK = 1 << 17


class ModelError(ValueError):
    """Raised for inconsistent model definitions or schema violations."""


def _exp_bounds(*logs: float) -> tuple[float, float]:
    """exp(sum(logs)) rounded down and up, each log (a computed log or a
    product with one) good to a few ulps; an overflow reads inf."""
    y = math.fsum(logs)
    err = 8.0 * _ULP * (math.fsum(map(abs, logs)) + 1.0)
    down, up = y - err, y + err
    return (
        math.exp(min(down, 709.0)) * (1.0 - 2.0 * _ULP),
        math.exp(up) * (1.0 + 2.0 * _ULP) if up < 709.0 else math.inf,
    )


@dataclass(frozen=True)
class RateFn:
    """Closed-form positive rate sequence.

    kind "power":  a_k = c * (k+1)**p  (c > 0, p >= 0)
    kind "table":  a_k = values[k] for k < len(values), power tail beyond.
    """

    kind: str
    c: float = 1.0
    p: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("power", "table"):
            raise ModelError(f"unknown rate kind {self.kind!r}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ModelError("rate coefficient c must be finite and >= 0")
        if not (math.isfinite(self.p) and self.p >= 0):
            raise ModelError("rate exponent p must be finite and >= 0")
        if self.kind == "table":
            if not self.values:
                raise ModelError("table rate needs at least one value")
            if not all(math.isfinite(v) and v >= 0 for v in self.values):
                raise ModelError("table rate values must be finite and >= 0")
        # the certified tail bounds divide by the rates: a positive rate must
        # have a finite reciprocal (at least about 5.6e-309)
        if not all(v == 0 or math.isfinite(1.0 / v) for v in (self.c, *self.values)):
            raise ModelError("a positive rate must be at least 1/DBL_MAX (about 5.6e-309)")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @staticmethod
    def power(c: float, p: float) -> "RateFn":
        return RateFn("power", c=c, p=p)

    @staticmethod
    def table(values, tail_c: float = 1.0, tail_p: float = 0.0) -> "RateFn":
        return RateFn("table", c=tail_c, p=tail_p, values=tuple(values))

    def at(self, ks) -> np.ndarray:
        """The rates a_k at an array of states: the one evaluation every
        other read of this sequence is a view of, so scalar and array reads
        agree bit for bit."""
        ks = np.asarray(ks, dtype=np.int64)
        out = ks + 1.0
        out **= self.p  # in place: no temporaries on large windows
        out *= self.c
        if self.kind == "table":
            head = ks < len(self.values)
            out[head] = np.asarray(self.values)[ks[head]]
        return out

    def __call__(self, k: int) -> float:
        return float(self.at((k,))[0])

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Values a_lo .. a_{hi-1}."""
        return self.at(np.arange(lo, hi))

    def sup_bound(self) -> float:
        """Upper bound on sup_k a_k; inf when unbounded."""
        if self.p != 0.0:
            return math.inf
        return max(self.c, max(self.values, default=0.0))

    def max_upto(self, n: int) -> float:
        """max over 0 <= k < n."""
        if n <= 0:
            return 0.0
        m = max(self.values[:n], default=0.0)
        if n > len(self.values):
            m = max(m, self(n - 1))  # the power part is nondecreasing
        return m

    def reciprocal_sum_diverges(self) -> bool:
        """True when sum_k 1/a_k = +inf (tail exponent p <= 1)."""
        return self.p <= 1.0

    def reciprocal_tail_bound(self, k0: int, power: float = 1.0) -> float:
        """Certified upper bound on sum_{m >= k0} 1/a_m**power; inf if divergent.

        Uses the integral bound for the (nonincreasing) power-law tail; table
        heads are summed exactly.  Rates so small that a power of their
        reciprocal overflows give inf.
        """
        q = self.p * power
        if self.c <= 0 or q <= 1.0:
            return math.inf
        k = max(k0, len(self.values))
        try:
            exact = math.fsum(1.0 / self.values[m] ** power for m in range(k0, k))
            # sum_{m >= k} (c (m+1)^p)^-power <= f(k) + integral_k^inf c^-power (x+1)^-q dx,
            # valid down to k = 0 because f is nonincreasing
            head = self(k) ** -power
            return exact + head + (float(k + 1) ** (1.0 - q)) / (self.c**power * (q - 1.0))
        except (OverflowError, ZeroDivisionError):
            return math.inf

    def log_moment(self, k0: int, th, head: int) -> tuple[np.ndarray, np.ndarray]:
        """Certified (lo, hi) arrays on the log-moment K(th) = log E[e^{th R}]
        = -sum_{m >= k0} log(1 - th/a_m) of the time R = sum_{m >= k0} E_m/a_m
        a pure-birth cascade spends at or above k0 (E_m independent standard
        exponentials), at each th of an array, every th below a_m for m >= k0.
        exp K(-lam) is the cascade's product of factors a_m/(lam + a_m).

        The terms k0 <= m < ``head`` are summed in blocks of at most
        _THETA_BLOCK entries of the th-by-head matrix; with y = th/a_m a term
        errs by a few ulps of |y|/(1 - y), at most |log(1 - y)| for y < 0, and
        a sum by its length in ulps of itself.  Past a ``head`` at or beyond
        the table, f(x) = 1/(c (x+1)^p) and f^2 are convex and decreasing
        (p > 1): S1 = sum_{m >= head} f(m) lies between the trapezoid and
        midpoint rules int_head f + f(head)/2 and int_{head-1/2} f, and S2 =
        sum_{m >= head} f(m)^2 below int_{head-1/2} f^2, each evaluated in log
        form and rounded outward.  With x = |th|/a_m <= |th|/a_head, x <=
        -log(1 - x) <= x/(1 - th/a_head) puts the tail of a th > 0 in
        [th S1_lo, th S1_hi/(1 - th/a_head)], and max(x - x^2/2, x/(1 +
        |th|/a_head)) <= log1p(x) <= x that of a th < 0 in [-|th| S1_hi,
        -max(|th| S1_lo - th^2 S2_hi/2, |th| S1_lo/(1 + |th|/a_head))]: the
        first form is the tighter at small |th|, the second at large.  A
        ``head`` inside the table, or a tail with no finite sum, leaves the
        tail (-inf, 0] or [0, inf].
        """
        th = np.asarray(th, dtype=float)
        neg = th < 0.0
        n_neg = int(np.count_nonzero(neg))
        # negatives first (as every caller passes them), so each sign is one slice
        order = None if np.count_nonzero(neg[:n_neg]) == n_neg else np.argsort(~neg, kind="stable")
        if order is not None:
            th = th[order]
        rates = self.array(k0, head + 1)  # a_k0 .. a_head, the tail's a_head read with the head
        inv, a_head = 1.0 / rates[:-1], float(rates[-1])
        finite = head >= len(self.values) and self.c > 0 and not self.reciprocal_sum_diverges()
        sums = _power_tail_sums(self.c, self.p, head) if finite else None
        lo, hi = np.empty(th.size), np.empty(th.size)
        rows = max(1, _THETA_BLOCK // max(inv.size, 1))
        for below, start, stop in ((True, 0, n_neg), (False, n_neg, th.size)):
            # a head and a tail of one sign: their sum rounds by one ulp of itself
            out, inward = (1.0 + _ULP, 1.0 - _ULP) if below else (1.0 - _ULP, 1.0 + _ULP)
            for i in range(start, stop, rows):  # blocks of one sign
                at = np.s_[i : min(i + rows, stop)]
                z = -th[at, None] * inv  # -y
                t = np.log1p(z)
                s = -t.sum(axis=1)
                if below:
                    h_lo, h_hi = s * (1.0 + (inv.size + 3) * _ULP), s * (1.0 - (inv.size + 3) * _ULP)
                else:
                    np.divide(z, np.add(z, 1.0, out=t), out=t)  # -y/(1 - y), in place: two blocks at most
                    err = _ULP * (3.0 * -t.sum(axis=1) + inv.size * s)
                    h_lo, h_hi = s - err, s + err
                # the tail past head: one th takes it on floats, far cheaper per operation
                x = abs(float(th[i])) if s.size == 1 else np.abs(th[at])
                t_lo, t_hi = _tail_terms(x, below, a_head, sums)
                lo[at], hi[at] = (h_lo + t_lo) * out, (h_hi + t_hi) * inward
        if order is not None:  # back to the caller's order
            lo[order], hi[order] = lo.copy(), hi.copy()
        return lo, hi


@functools.lru_cache(maxsize=64)
def _power_tail_sums(c: float, p: float, head: int) -> tuple[float, float, float]:
    """(S1_lo, S1_hi, S2_hi / 2) of ``RateFn.log_moment``'s power tail past
    ``head``, from its trapezoid and midpoint rules, rounded outward (S2_hi
    / 2 may overflow to inf).  Free of th, so kept across calls."""
    log_c, q1, q2 = math.log(c), p - 1.0, 2.0 * p - 1.0
    mid, edge = math.log(head + 0.5), math.log(head + 1.0)
    s1_hi = _exp_bounds(-q1 * mid, -log_c, -math.log(q1))[1]
    trap = _exp_bounds(-q1 * edge, -log_c, -math.log(q1))[0]
    half = _exp_bounds(-p * edge, -log_c, -math.log(2.0))[0]
    half_s2 = _exp_bounds(-q2 * mid, -2.0 * log_c, -math.log(2.0 * q2))[1]
    return trap + half, s1_hi, half_s2


def _tail_terms(x, below: bool, a_head: float, sums: tuple[float, float, float] | None):
    """(lo, hi) on ``RateFn.log_moment``'s tail past head at |th| = x (a
    float or an array of one sign), from ``_power_tail_sums``; (-inf, 0] or
    [0, inf] with no finite sums."""
    if sums is None:
        return (-math.inf, 0.0) if below else (0.0, math.inf)
    s1_lo, s1_hi, half_s2 = sums
    near = x / a_head  # |th| / a_head, good to 3 ulps
    up = x * s1_lo * (1.0 - 3.0 * _ULP)  # |th| S1_lo
    over = x * s1_hi * (1.0 + 2.0 * _ULP)  # |th| S1_hi
    if below:
        soft = up / (1.0 + near) * (1.0 - 4.0 * _ULP)
        if half_s2 < math.inf:
            alt = (up - x * (x * half_s2) * (1.0 + 3.0 * _ULP)) * (1.0 - _ULP)
            soft = max(soft, alt) if isinstance(x, float) else np.maximum(soft, alt)
        return -over, -soft
    gap = 1.0 - near - 2.0 * _ULP  # 1 - th/a_head, rounded down
    return up, np.divide(over, gap, out=np.full(np.shape(gap), math.inf), where=gap > 0.0) * (1.0 + 2.0 * _ULP)


@dataclass(frozen=True)
class Kernel:
    """Transition rule giving, for each source state, the column of B.

    kinds: "zero" (B = 0), "pure_birth" (full diagonal rate feeds k+1, or a
    separate birth rate when given), "birth_death" (b_k up, d_k down, d_0
    dropped; pure_birth when d_k = 0 for k >= 1), "table" (explicit columns,
    empty from ``extent``, the first state past them; inf for other kinds).
    """

    kind: str
    birth: RateFn | None = None
    death: RateFn | None = None
    columns: tuple[tuple[int, tuple[tuple[int, float], ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "pure_birth", "birth_death", "table"):
            raise ModelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "birth_death" and (self.birth is None or self.death is None):
            raise ModelError("birth_death kernel needs birth and death rates")
        if self.kind == "birth_death" and self.death.c == 0 and not any(self.death.values[1:]):
            object.__setattr__(self, "kind", "pure_birth")
            object.__setattr__(self, "death", None)
        for k, col in self.columns:
            if not all(0 <= s < STATE_LIMIT for s in (k, *(j for j, _ in col))):
                raise ModelError(f"table kernel column {k}: states must be >= 0 and below 2^21")
            if not all(math.isfinite(r) and r >= 0 for _, r in col):
                raise ModelError(f"table kernel column {k}: rates must be finite and >= 0")
        object.__setattr__(self, "_listed", dict(self.columns))
        object.__setattr__(self, "_keys", np.array([-1, *sorted(self._listed)]))  # -1: below every state
        object.__setattr__(self, "extent", 1 + max(self._listed, default=-1) if self.kind == "table" else math.inf)
        if len(self._listed) != len(self.columns):
            raise ModelError("table kernel lists a source state twice")

    def bands(self, ks: np.ndarray, a: np.ndarray) -> dict[int, np.ndarray]:
        """The columns at the states ``ks`` (with diagonal rates ``a``), laid
        out by offset: ``bands(ks, a)[d][i]`` is the rate ks[i] feeds to
        ks[i] + d, zero where that entry is absent."""
        if self.kind == "pure_birth":
            return {1: a if self.birth is None else self.birth.at(ks)}
        if self.kind == "birth_death":
            return {1: self.birth.at(ks), -1: np.where(ks > 0, self.death.at(ks), 0.0)}
        out: dict[int, np.ndarray] = {}  # zero or table: offsets in order of first appearance
        # the listed sources among ks, in order: np.isin costs ~30 us on a small ks
        for i in np.flatnonzero(self._keys[np.searchsorted(self._keys, ks, side="right") - 1] == ks).tolist():
            k = int(ks[i])
            for j, r in self._listed[k]:
                if r > 0:
                    out.setdefault(j - k, np.zeros(ks.size))[i] += r
        return out

    def column(self, k: int, a_k: float) -> tuple[tuple[int, float], ...]:
        """(target, rate) pairs fed by state k; a table column as listed."""
        if self.kind == "table":
            return self._listed.get(k, ())
        bands = self.bands(np.array([k]), np.array([a_k]))
        return tuple((k + d, float(r[0])) for d, r in bands.items() if r[0] > 0)

    @property
    def stride(self) -> int:
        if self.kind in ("pure_birth", "birth_death"):
            return 1
        return max((abs(j - k) for k, col in self.columns for j, _ in col), default=0)


@dataclass(frozen=True)
class ModelSpec:
    """A generator pair: diagonal loss rates plus a dissipative kernel.
    ``stride``, the kernel's longest jump, is read from the kernel."""

    name: str
    a: RateFn
    kernel: Kernel
    conservative: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "stride", self.kernel.stride)
        if self.a.c <= 0:
            raise ModelError(f"model {self.name!r}: diagonal rate tail must be > 0")
        depth = _audit_depth(self.a, self.kernel.birth, self.kernel.death)
        with np.errstate(over="ignore"):
            ks = np.append(np.arange(depth), _RATE_LIMIT)
            rates = [r.at(ks) for r in (self.a, self.kernel.birth, self.kernel.death) if r is not None]
        if not all(np.isfinite(r).all() for r in rates):
            raise ModelError(f"model {self.name!r}: a rate overflows to inf at or below state {_RATE_LIMIT}")
        if np.any(rates[0] <= 0):
            raise ModelError(f"model {self.name!r}: diagonal rates must be > 0")
        birth = self.kernel.birth
        if self.kernel.kind == "pure_birth" and birth is not None:
            # the columnwise audit below stops at depth; past every table
            # head both rates are power laws, so tail dominance is analytic
            if birth.p > self.a.p or (birth.p == self.a.p and birth.c > self.a.c):
                raise ModelError(f"model {self.name!r}: birth rate tail outgrows the diagonal")
        report = dissipativity_audit(self, depth)
        if report.violations:
            k, excess = report.violations[0]
            raise ModelError(f"model {self.name!r}: column {k} rates exceed a_{k} by {excess:.3g}")
        if self.conservative != report.conservative_observed:
            raise ModelError(f"model {self.name!r}: declared conservative {self.conservative}, deficits disagree")

    # -- column access -------------------------------------------------
    def column(self, k: int) -> tuple[tuple[int, float], ...]:
        return self.kernel.column(k, self.a(k))

    def deficits(self, ks) -> np.ndarray:
        """Kill rates a_k - (sum of the outgoing rates of k) at an array of states."""
        ks = np.asarray(ks, dtype=np.int64)
        a = self.a.at(ks)
        return a - sum(self.kernel.bands(ks, a).values(), np.zeros(ks.size))

    def deficit(self, k: int) -> float:
        return float(self.deficits((k,))[0])

    def cascade_head(self) -> int | None:
        """The state from which a pure birth's rate equals a; None when their power tails differ."""
        birth = self.kernel.birth or self.a  # no separate birth rate: a feeds k+1 in full
        return max(len(self.a.values), len(birth.values)) if (birth.c, birth.p) == (self.a.c, self.a.p) else None

    def kills_from(self, k: int) -> bool:
        """True when some state >= k of a pure-birth cascade has a positive kill
        rate a - birth: from ``cascade_head`` on the two rates agree."""
        head = self.cascade_head()
        return head is None or k < head and bool(np.any(self.deficits(np.arange(k, head)) > 0.0))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def pure_birth(a: RateFn, name: str = "pure_birth") -> "ModelSpec":
        """Conservative upward cascade: the full rate a_k feeds state k+1."""
        return ModelSpec(name, a, Kernel("pure_birth"), conservative=True)

    @staticmethod
    def birth_death(
        b: float | RateFn,
        d: float | RateFn,
        kill: float | RateFn = 0.0,
        name: str = "birth_death",
    ) -> "ModelSpec":
        """Nearest-neighbour walk with kill; a_k = b_k + d_k + kill_k.

        The death rate at state 0 is dropped from both the kernel and the
        diagonal, so the deficit at 0 equals kill_0.  The three rates must
        share a common power-law exponent (constants included) so the
        diagonal stays expressible as a table with a power tail.
        """
        b, d, kill = (_as_rate(x) for x in (b, d, kill))
        if any(r.kind == "table" for r in (b, d, kill)):
            raise ModelError("birth_death builder needs power-law rates with one exponent")
        exps = {r.p for r in (b, d, kill) if r.c > 0}
        if len(exps) > 1:
            raise ModelError("birth_death builder needs power-law rates with one exponent")
        p = exps.pop() if exps else 0.0
        a0 = b(0) + kill(0)
        tail_c = b.c + d.c + kill.c
        a = RateFn.table((a0,), tail_c=tail_c, tail_p=p)
        conservative = kill.c == 0.0
        return ModelSpec(name, a, Kernel("birth_death", birth=b, death=d), conservative)

    @staticmethod
    def loss_only(a: RateFn, name: str = "loss_only") -> "ModelSpec":
        """B = 0: pure exponential decay state by state."""
        return ModelSpec(name, a, Kernel("zero"), conservative=False)

    @staticmethod
    def table(
        a_values,
        columns: dict[int, list[tuple[int, float]]],
        tail_c: float = 1.0,
        tail_p: float = 0.0,
        name: str = "table",
    ) -> "ModelSpec":
        cols = tuple(
            (int(k), tuple((int(j), float(r)) for j, r in col if r > 0))
            for k, col in sorted(columns.items())
        )
        a = RateFn.table(a_values, tail_c=tail_c, tail_p=tail_p)
        return ModelSpec(name, a, Kernel("table", columns=cols), False)


def _audit_depth(*rates: RateFn | None) -> int:
    """States audited at construction: _AUDIT_DEPTH, or deeper when a table
    head reaches further (past every head the rates are power laws)."""
    return max([_AUDIT_DEPTH, *(len(r.values) for r in rates if r is not None)])


def _as_rate(x: float | RateFn) -> RateFn:
    if isinstance(x, RateFn):
        return x
    if x < 0:
        raise ModelError("rates must be >= 0")
    return RateFn.power(float(x), 0.0)


@dataclass(frozen=True)
class DissipativityReport:
    deficits: tuple[float, ...]  # k = 0..n, then listed table columns beyond n
    violations: tuple[tuple[int, float], ...]  # (k, excess rate)
    conservative_observed: bool


def dissipativity_audit(m: ModelSpec, n: int) -> DissipativityReport:
    """Column-by-column deficit report for states k <= n, then for every
    listed table column beyond n and the first state past them, whose empty
    column kills: no table model is conservative."""
    ks = np.array([*range(n + 1), *sorted(k for k in (*m.kernel._listed, m.kernel.extent) if n < k < math.inf)])
    deficits = m.deficits(ks)
    tol = _RATE_RTOL * np.maximum(1.0, m.a.at(ks))
    bad = deficits < -tol
    violations = zip(ks[bad].tolist(), (-deficits[bad]).tolist())
    return DissipativityReport(
        deficits=tuple(deficits.tolist()),
        violations=tuple(violations),
        conservative_observed=bool(np.all(np.abs(deficits) <= tol)),
    )


# ---------------------------------------------------------------------------
# Exact operator primitives (diagonal A)
# ---------------------------------------------------------------------------


def _check_tail(m: ModelSpec, u: PosSeq, op: str) -> float:
    """Bound for propagating u's tail through A- or B-type action."""
    if u.tail_bound == 0.0:
        return 0.0
    sup = m.a.sup_bound()
    if math.isinf(sup):
        raise ModelError(
            f"{op}: input has tail_bound > 0 but rates of {m.name!r} are unbounded"
        )
    return u.tail_bound * sup


def _states(entries: dict[int, float]) -> np.ndarray:
    return np.fromiter(entries, dtype=np.int64, count=len(entries))


def _rated(m: ModelSpec, entries: dict[int, float]):
    """((k, v), a_k) over the entries, from one evaluation of the rates."""
    return zip(entries.items(), m.a.at(_states(entries)).tolist())


def apply_A(m: ModelSpec, u: PosSeq) -> SignedSeq:
    """(A u)_k = -a_k u_k, returned as a signed sequence (pure loss part)."""
    tail = _check_tail(m, u, "apply_A")
    return SignedSeq(PosSeq.zero(), PosSeq({k: a_k * v for (k, v), a_k in _rated(m, u.entries)}, tail))


def apply_B_entries(m: ModelSpec, entries: dict[int, float]) -> dict[int, float]:
    """B applied to finitely many entries, as a plain dict (nothing flushed)."""
    ks = _states(entries)
    bands = [(d, r.tolist()) for d, r in m.kernel.bands(ks, m.a.at(ks)).items()]
    acc: dict[int, float] = {}
    for i, (k, v) in enumerate(entries.items()):
        for d, r in bands:
            if r[i] > 0:
                acc[k + d] = acc.get(k + d, 0.0) + r[i] * v
    return acc


def apply_B(m: ModelSpec, u: PosSeq) -> PosSeq:
    """Positive kernel action: mass at k feeds the column targets of k."""
    tail = _check_tail(m, u, "apply_B")
    return PosSeq(apply_B_entries(m, u.entries), tail)


def resolvent_A_entries(m: ModelSpec, lam: float, entries: dict[int, float]) -> dict[int, float]:
    """(lambda - A)^{-1} applied to finitely many entries, as a plain dict
    (nothing flushed)."""
    if lam <= 0:
        raise ValueError("the resolvent of A requires lambda > 0")
    return {k: v / (lam + a_k) for (k, v), a_k in _rated(m, entries)}


def apply_resolvent_A(m: ModelSpec, lam: float, u: PosSeq) -> PosSeq:
    """((lambda - A)^{-1} u)_k = u_k / (lambda + a_k); cone contraction after
    scaling by lambda."""
    return PosSeq(resolvent_A_entries(m, lam, u.entries), u.tail_bound / lam)


def apply_U(m: ModelSpec, t: float, u: PosSeq) -> PosSeq:
    """(U(t) u)_k = exp(-a_k t) u_k, exact for diagonal A."""
    if t < 0:
        raise ValueError("apply_U requires t >= 0")
    if t == 0:
        return u
    return PosSeq({k: math.exp(-a_k * t) * v for (k, v), a_k in _rated(m, u.entries)}, u.tail_bound)


def apply_J(m: ModelSpec, lam: float, u: PosSeq) -> PosSeq:
    """J(lambda) = B (lambda - A)^{-1}, a contraction on the positive cone.
    Column k of J sums to colsum_k / (lambda + a_k) < 1, so the tail passes
    through unscaled, bounded rates or not."""
    return PosSeq(apply_B_entries(m, resolvent_A_entries(m, lam, u.entries)), u.tail_bound)


# ---------------------------------------------------------------------------
# The pair (A, B) compiled to arrays on an index window
# ---------------------------------------------------------------------------


class OperatorWindow:
    """A and B restricted to the states [lo, hi), as arrays.

    ``a[i]`` is a_{lo+i}.  B is stored as bands: ``bands[d][i]`` is the rate
    from source lo+i to target lo+i+d, zero where that target leaves the
    window; ``leak[i]`` is the rate source lo+i sends outside the window and
    ``colsum[i]`` the sum of its whole column, bands added in order (the
    correctly rounded sum for columns of at most two entries).  Every number
    is read from ``RateFn.at`` and ``Kernel.bands`` over the whole window at
    once, the evaluation the sparse primitives view, so the two agree bit
    for bit.
    """

    def __init__(self, m: ModelSpec, lo: int, hi: int):
        if not 0 <= lo < hi:
            raise ValueError("OperatorWindow requires 0 <= lo < hi")
        ks = np.arange(lo, hi)
        self.lo, self.hi = lo, hi
        self.a = m.a.at(ks)
        bands = m.kernel.bands(ks, self.a)
        w = hi - lo
        self.colsum = sum(bands.values(), np.zeros(w))
        self.leak = np.zeros(w)
        self.bands = {}
        for d, r in bands.items():
            if r is self.a:
                r = r.copy()
            out = slice(max(w - d, 0), w) if d >= 0 else slice(0, min(-d, w))  # targets outside
            self.leak[out] += r[out]
            r[out] = 0.0
            if r.any():
                self.bands[d] = r

    def shifts(self):
        """(targets, sources, rates of those sources) of each band."""
        w = self.hi - self.lo
        for d, r in self.bands.items():
            tgt, src = (slice(d, w), slice(0, w - d)) if d >= 0 else (slice(0, w + d), slice(-d, w))
            yield tgt, src, r[src]

    def apply_B(self, v: np.ndarray) -> np.ndarray:
        """B v on the window along the last axis; mass sent outside is
        dropped (see ``leak``)."""
        out = np.zeros_like(v)
        for tgt, src, r in self.shifts():
            out[..., tgt] += r * v[..., src]
        return out

    def apply_Bt(self, p: np.ndarray) -> np.ndarray:
        """B^T p on the window along the last axis: (B^T p)_k = sum_j B_jk p_j
        over targets inside."""
        out = np.zeros_like(p)
        for tgt, src, r in self.shifts():
            out[..., src] += r * p[..., tgt]
        return out


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def _rate_to_json(r: RateFn) -> dict[str, Any]:
    if r.kind == "power":
        return {"kind": "power", "c": r.c, "p": r.p}
    return {"kind": "table", "values": list(r.values), "tail": {"c": r.c, "p": r.p}}


def _rate_from_json(obj: Any, where: str) -> RateFn:
    if not isinstance(obj, dict):
        raise ModelError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "power":
        _require_keys(obj, {"kind", "c", "p"}, where)
        return RateFn.power(_number(obj["c"], f"{where}.c"), _number(obj["p"], f"{where}.p"))
    if kind == "table":
        _require_keys(obj, {"kind", "values", "tail"}, where)
        tail = obj["tail"]
        if not isinstance(tail, dict):
            raise ModelError(f"{where}.tail: expected an object")
        _require_keys(tail, {"c", "p"}, f"{where}.tail")
        return RateFn.table(
            [_number(v, f"{where}.values") for v in _array(obj["values"], f"{where}.values")],
            tail_c=_number(tail["c"], f"{where}.tail.c"),
            tail_p=_number(tail["p"], f"{where}.tail.p"),
        )
    raise ModelError(f"{where}: unknown rate kind {kind!r}")


def _require_keys(obj: dict, allowed: set[str], where: str, optional: frozenset = frozenset()) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = allowed - optional - set(obj)
    if missing:
        raise ModelError(f"{where}: missing field(s) {sorted(missing)}")


def _number(x: Any, where: str) -> float:
    """A finite JSON number; true and false are rejected although Python
    counts them as integers."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            if math.isfinite(x):
                return float(x)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ModelError(f"{where}: expected a finite number, got {x!r}")


def _integer(x: Any, where: str) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ModelError(f"{where}: expected an integer, got {x!r}")


def _array(x: Any, where: str, size: int | None = None) -> list:
    if isinstance(x, list) and size in (None, len(x)):
        return x
    raise ModelError(f"{where}: expected an array{'' if size is None else f' of {size}'}, got {x!r}")


def model_to_json(m: ModelSpec) -> dict[str, Any]:
    k = m.kernel
    if k.kind == "zero":
        b: dict[str, Any] = {"kind": "zero"}
    elif k.kind == "pure_birth":
        b = {"kind": "pure_birth"}
        if k.birth is not None:
            b["birth"] = _rate_to_json(k.birth)
    elif k.kind == "birth_death":
        kill_c = max(m.a.c - k.birth.c - k.death.c, 0.0)
        kill = RateFn.power(kill_c, m.a.p if kill_c > 0 else 0.0)
        # the kill rates are the deficits; past every table head they follow
        # the power law, on the heads they may not (state 0 drops its death)
        ks = np.arange(max(1, *(len(r.values) for r in (m.a, k.birth, k.death))))
        head = np.maximum(m.deficits(ks), 0.0)
        if np.any(np.abs(kill.at(ks) - head) > _RATE_RTOL * np.maximum(1.0, m.a.at(ks))):
            kill = RateFn.table(head.tolist(), tail_c=kill.c, tail_p=kill.p)
        b = {
            "kind": "birth_death",
            "b": _rate_to_json(k.birth),
            "d": _rate_to_json(k.death),
            "kill": _rate_to_json(kill),
        }
    else:
        b = {
            "kind": "table",
            "columns": [[kk, [[j, r] for j, r in col]] for kk, col in k.columns],
            "tail": None,
        }
    return {
        "name": m.name,
        "space": "l1",
        "A": _rate_to_json(m.a),
        "B": b,
        "conservative": m.conservative,
    }


def model_from_json(obj: Any) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ModelError("model file: expected a JSON object")
    _require_keys(obj, {"name", "space", "A", "B", "conservative"}, "model")
    if obj["space"] != "l1":
        raise ModelError(f"model: unsupported space {obj['space']!r}")
    name = str(obj["name"])
    a = _rate_from_json(obj["A"], "A")
    conservative = obj["conservative"]
    if not isinstance(conservative, bool):
        raise ModelError(f"model.conservative: expected true or false, got {conservative!r}")
    b = obj["B"]
    if not isinstance(b, dict):
        raise ModelError("B: expected an object")
    kind = b.get("kind")
    if kind == "zero":
        _require_keys(b, {"kind"}, "B")
        kernel = Kernel("zero")
    elif kind == "pure_birth":
        _require_keys(b, {"kind", "birth"}, "B", optional=frozenset({"birth"}))
        birth = _rate_from_json(b["birth"], "B.birth") if "birth" in b else None
        kernel = Kernel("pure_birth", birth=birth)
    elif kind == "birth_death":
        _require_keys(b, {"kind", "b", "d", "kill"}, "B")
        birth = _rate_from_json(b["b"], "B.b")
        death = _rate_from_json(b["d"], "B.d")
        kr = _rate_from_json(b["kill"], "B.kill")
        kernel = Kernel("birth_death", birth=birth, death=death)
        # the declared diagonal must match b + d + kill (death dropped at 0)
        ks = np.arange(_audit_depth(a, birth, death, kr))
        have = a.at(ks)
        want = sum(kernel.bands(ks, have).values(), np.zeros(ks.size)) + kr.at(ks)
        for k in np.flatnonzero(np.abs(want - have) > _RATE_RTOL * np.maximum(1.0, want))[:1]:
            raise ModelError(f"B.kill: diagonal mismatch at k={k}: A gives {have[k]}, b+d+kill gives {want[k]}")
        # past every table head the rates are power laws: the check above
        # holds for every k only if b, d and kill share A's tail exponent
        # and their tail coefficients sum to A's
        tails = [r for r in (birth, death, kr) if r.c > 0]
        if any(r.p != a.p for r in tails) or abs(math.fsum(r.c for r in tails) - a.c) > _RATE_RTOL * max(1.0, a.c):
            raise ModelError(f"B.kill: diagonal tail mismatch: b+d+kill does not end in A's tail {a.c}*(k+1)^{a.p}")
    elif kind == "table":
        _require_keys(b, {"kind", "columns", "tail"}, "B", optional=frozenset({"tail"}))
        if b.get("tail") is not None:
            raise ModelError("B.tail: only null is supported (columns empty beyond the table)")
        cols = []
        for item in _array(b["columns"], "B.columns"):
            k, col = _array(item, "B.columns", 2)
            where = f"B.columns[{k!r}]"
            pairs = [_array(e, where, 2) for e in _array(col, where)]
            col = tuple((_integer(j, where), _number(r, where)) for j, r in pairs)
            cols.append((_integer(k, where), col))
        kernel = Kernel("table", columns=tuple(cols))
    else:
        raise ModelError(f"B: unknown kernel kind {kind!r}")
    return ModelSpec(name, a, kernel, conservative)


def load_model(path: str) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file {path}: invalid JSON ({exc})") from exc
    return model_from_json(obj)


def dump_model(m: ModelSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(m), fh, indent=2)
        fh.write("\n")
