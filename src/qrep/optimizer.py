"""Derivative-free parameter tuning for parametric patches.

Thin contract around scipy's COBYLA: exact evaluation cap, best-so-far
result even when the solver wanders, zero-vector start. Objectives are
plain callables on angle tuples, so the repair engine can charge every
call to its own budget; exceptions raised by the objective (for example
budget exhaustion) propagate to the caller untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize as _sopt


@dataclass(frozen=True)
class OptBudget:
    max_evals: int = 20
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class OptResult:
    params: tuple[float, ...]
    value: float
    evals: int
    converged: bool


_CAP_SENTINEL = 1e18
# the largest iteration count scipy passes to PRIMA (a C long)
_MAX_ITER = 2**63 - 1
# COBYLA's initial trust-region radius; the final radius (``tol``) may not exceed it
_RHOBEG = math.pi / 2


def minimize_params(
    objective: Callable[[tuple[float, ...]], float],
    n_params: int,
    budget: OptBudget = OptBudget(),
) -> OptResult:
    """Minimize ``objective`` over ``n_params`` angles from the zero vector.

    Calls the objective at most ``budget.max_evals`` times, exactly; the
    returned value is the best one actually observed. PRIMA's COBYLA needs
    at least ``n_params + 2`` evaluations, so below that the solver sees a
    huge sentinel instead of fresh evaluations once the cap is hit.
    """
    if n_params < 0:
        raise ValueError("n_params must be >= 0")
    if n_params == 0:
        v = float(objective(()))
        return OptResult((), v, 1, True)

    best_x: tuple[float, ...] = (0.0,) * n_params
    best_v = math.inf
    count = 0

    def wrapped(x: np.ndarray) -> float:
        nonlocal best_x, best_v, count
        if count >= budget.max_evals:
            return _CAP_SENTINEL
        count += 1
        v = float(objective(tuple(float(a) for a in x)))
        if v < best_v:
            best_v = v
            best_x = tuple(float(a) for a in x)
        return v

    res = _sopt.minimize(
        wrapped,
        np.zeros(n_params),
        method="COBYLA",
        tol=min(budget.tolerance, _RHOBEG),
        options={"maxiter": min(max(budget.max_evals, n_params + 2), _MAX_ITER), "rhobeg": _RHOBEG},
    )
    converged = bool(res.success)
    if count == 0:
        # solver bailed before evaluating; charge the start point
        v = float(objective(best_x))
        count = 1
        best_v = v
    return OptResult(best_x, best_v, count, converged)
