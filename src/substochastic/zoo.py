"""Ready-made models used by the test-bench, the scripts and the docs.

The roster spans the behaviours the analyzers must tell apart: mass
conservation with and without explosion, plain killing, and small closed
chains where everything has a closed form.
"""

from __future__ import annotations

from .models import ModelSpec, RateFn

__all__ = [
    "two_state",
    "yule",
    "quadratic_birth",
    "pure_loss",
    "bd_kill",
    "bd_conservative",
    "closed_chain",
    "zoo_models",
]


def two_state(name: str = "two_state") -> ModelSpec:
    """State 0 feeds state 1 at rate 1 (a_0 = 1); state 1 is killed at rate 2.

    Everything about this model is a two-term closed form, which makes it
    the primary desk-check: V(t)e0 = (e^-t, e^-t - e^-2t).
    """
    return ModelSpec.table(
        a_values=(1.0, 2.0),
        columns={0: [(1, 1.0)], 1: []},
        tail_c=1.0,
        tail_p=0.0,
        name=name,
    )


def yule(name: str = "yule") -> ModelSpec:
    """Linear pure birth a_k = k+1: conservative and non-explosive."""
    return ModelSpec.pure_birth(RateFn.power(1.0, 1.0), name=name)


def quadratic_birth(name: str = "quadratic_birth") -> ModelSpec:
    """Quadratic pure birth a_k = (k+1)^2: conservative but explosive."""
    return ModelSpec.pure_birth(RateFn.power(1.0, 2.0), name=name)


def pure_loss(name: str = "pure_loss") -> ModelSpec:
    """B = 0 with a_k = 1: every state decays exponentially, no transport."""
    return ModelSpec.loss_only(RateFn.power(1.0, 0.0), name=name)


def bd_kill(name: str = "bd_kill") -> ModelSpec:
    """Constant-rate walk (b = 1, d = 1) with kill rate 0.5 at every state."""
    return ModelSpec.birth_death(1.0, 1.0, kill=0.5, name=name)


def bd_conservative(name: str = "bd_conservative") -> ModelSpec:
    """Constant-rate walk (b = 1.5, d = 1) with no killing: mass preserving."""
    return ModelSpec.birth_death(1.5, 1.0, kill=0.0, name=name)


def closed_chain(name: str = "closed_chain") -> ModelSpec:
    """Eight states with mixed strides, closed below 8: honest by finiteness."""
    columns = {
        0: [(1, 0.8), (2, 0.3)],
        1: [(0, 0.5), (3, 0.9)],
        2: [(4, 1.1)],
        3: [(1, 0.4), (5, 0.6)],
        4: [(2, 0.2), (6, 0.7)],
        5: [(7, 1.0)],
        6: [(4, 0.9)],
        7: [(5, 0.3), (6, 0.3)],
    }
    a_values = (1.2, 1.5, 1.3, 1.1, 1.0, 1.4, 1.0, 0.8)
    return ModelSpec.table(
        a_values=a_values,
        columns=columns,
        tail_c=1.0,
        tail_p=0.0,
        name=name,
    )


def zoo_models() -> tuple[ModelSpec, ...]:
    """The full roster, in a stable order."""
    return (
        two_state(),
        yule(),
        quadratic_birth(),
        pure_loss(),
        bd_kill(),
        bd_conservative(),
        closed_chain(),
    )
