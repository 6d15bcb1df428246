"""Exact reference values the benchmark checks the program's outputs against.

Everything here is computed from closed forms or from the model file's
data, with arithmetic of its own: nothing imports the package under test,
so an oracle can never be folded into the thing it checks.
"""

from __future__ import annotations

import math

import numpy as np


def theta_mass(t: float) -> float:
    """|V(t)e0| for quadratic_birth (a_k = (k+1)^2) started at state 0.

    The explosion time is sum_{n>=1} E_n/n^2 with E_n ~ Exp(1), whose
    survival function is the theta series 2 sum_{n>=1} (-1)^{n+1} e^{-n^2 t}.
    """
    if t <= 0.0:
        return 1.0
    if t < 0.05:
        raise ValueError("theta_mass: series needs t >= 0.05")
    terms = []
    n = 1
    while True:
        w = math.exp(-n * n * t)
        if w < 1e-20:
            break
        terms.append(2.0 * w if n % 2 else -2.0 * w)
        n += 1
    return math.fsum(terms)


def xi_quadratic(lam: float, k: int) -> float:
    """lim_n |J(lam)^n e_k| for quadratic_birth: prod_{n>=k+1} n^2/(n^2+lam).

    The full product from n = 1 is pi*sqrt(lam)/sinh(pi*sqrt(lam)); the
    first k factors are divided out in log space.
    """
    if lam <= 0.0 or k < 0:
        raise ValueError("xi_quadratic needs lam > 0 and k >= 0")
    x = math.pi * math.sqrt(lam)
    # log(x / sinh x) without overflow: sinh x = e^x (1 - e^{-2x}) / 2
    log_full = math.log(2.0 * x) - x - math.log1p(-math.exp(-2.0 * x))
    log_head = math.fsum(-math.log1p(lam / (n * n)) for n in range(1, k + 1))
    return math.exp(log_full - log_head)


def expm(q: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series."""
    norm = float(np.abs(q).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = q / float(2**s)
    out = np.eye(q.shape[0])
    term = np.eye(q.shape[0])
    for i in range(1, 24):
        term = term @ x / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def table_generator(model_json: dict) -> np.ndarray:
    """Dense generator Q (Q[j, k] = rate k -> j, Q[k, k] = -a_k) of a table
    model whose columns stay inside its table of diagonal rates."""
    a_values = model_json["A"]["values"]
    n = len(a_values)
    q = np.diag(-np.asarray(a_values, dtype=float))
    for k, col in model_json["B"]["columns"]:
        for j, r in col:
            if not 0 <= j < n:
                raise ValueError("table_generator: column leaves the table")
            q[j, k] += r
    return q


def table_mass(model_json: dict, k: int, t: float) -> float:
    """|V(t)e_k| for a start k inside a finite table model: the k-th column
    sum of expm(Q t)."""
    return float(expm(table_generator(model_json) * t)[:, k].sum())


def bd_kill_mass(t: float) -> float:
    """bd_kill kills at rate 0.5 in every state, so |V(t)u| = e^{-t/2}|u|."""
    return math.exp(-0.5 * t)


def pure_loss_mass(t: float) -> float:
    """pure_loss has B = 0 and a_k = 1: |V(t)e_k| = e^{-t}."""
    return math.exp(-t)


def two_state_mass(t: float) -> float:
    """two_state from e0: (e^{-t}, e^{-t} - e^{-2t}) sums to 2e^{-t} - e^{-2t}."""
    return 2.0 * math.exp(-t) - math.exp(-2.0 * t)
