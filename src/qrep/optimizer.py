"""Derivative-free parameter tuning for parametric patches.

PRIMA's COBYLA (Zhang, 2023, libprima.net) in plain floats, for one variable
and no constraints (``_cobyla_1d``), with an exact evaluation cap, the best
point seen as the result even when the solver wanders, and a zero-vector
start; a trial of several angles tunes them one at a time. Objectives are
plain callables on angle tuples, so the repair engine can charge every call
to its own budget; exceptions raised by the objective (for example budget
exhaustion) propagate to the caller untouched.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_integer


@dataclass(frozen=True)
class OptBudget:
    max_evals: int = 20
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        check_integer("max_evals", self.max_evals, 1)
        if not 0 < self.tolerance < math.inf:  # NaN fails too
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


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
# the smallest final radius a trial runs to; a smaller tolerance acts as
# this one. Far below it a one-angle simplex can shrink until its inverse
# overflows (at 1e-200 some trials ended in a singular matrix)
TOL_FLOOR = 1e-12


def minimize_params(
    objective: Callable[[tuple[float, ...]], float],
    n_params: int,
    budget: OptBudget = OptBudget(),
) -> OptResult:
    """Minimize ``objective`` over ``n_params >= 1`` angles from the zero vector,
    one angle at a time: each runs :func:`_cobyla_1d` from the best point
    so far on an even share of the evaluations left, its start's value not
    asked again. Calls the objective at most ``budget.max_evals`` times,
    exactly, and returns the best value seen; below 3 evaluations per angle
    the solver sees a huge sentinel once the cap is hit. The tolerance, each
    angle's final radius, is clamped to ``[TOL_FLOOR, _RHOBEG]``; converged
    means every angle's search ended at it."""
    if n_params < 1:
        raise ValueError("n_params must be >= 1")

    best_x: tuple[float, ...] = (0.0,) * n_params
    best_v = math.inf
    count = 0

    def wrapped(x: tuple[float, ...]) -> float:
        nonlocal best_x, best_v, count
        if count >= budget.max_evals:
            return _CAP_SENTINEL
        count += 1
        v = float(objective(x))
        if v < best_v:
            best_v = v
            best_x = x
        return v

    tol = min(max(budget.tolerance, TOL_FLOOR), _RHOBEG)
    converged = True
    for i in range(n_params):
        if count >= budget.max_evals:  # the later angles keep their start
            return OptResult(best_x, best_v, count, False)
        head, tail = best_x[:i], best_x[i + 1:]
        maxfun = min(max((budget.max_evals - count) // (n_params - i), 3), _MAX_ITER)
        converged &= _cobyla_1d(lambda t: wrapped(head + (t,) + tail), maxfun, tol, best_v if i else None)
    return OptResult(best_x, best_v, count, converged)


# -- PRIMA's COBYLA for one variable ---------------------------------------
#
# The routines below keep PRIMA's names (cobylb, trstlp, setdrop_tr,
# updatexfc, updatepole) and the order of its float operations, so each
# decision, and so each point evaluated, comes out as in scipy. With no
# constraints every constraint value is 0 and the penalty stays at its
# floor EPS, so the merit function is f itself. Left out, because they
# cannot change which points are evaluated: the filter and selectx (they
# only pick the returned x, and minimize_params keeps its own best);
# the history; getcpen (it works on copies and, with no constraints,
# returns the penalty unchanged); and the message and callback hooks.

_EPS = sys.float_info.epsilon
_REALMAX = sys.float_info.max
_FUNCMAX = 1e30  # moderatef's cap on objective values
_ETA1 = 0.1
_ETA2 = (_ETA1 + 2) / 3  # cobyla() derives ETA2 from ETA1 when scipy passes neither
_GAMMA1 = 0.5
_GAMMA2 = 2.0
_GAMMA3 = 1.5  # max(1, min(0.75 * GAMMA2, 1.5))
_TRFAIL = 1.0e-6 * _EPS  # 1e-6 * min(cpen, 1), cpen being EPS


def _div(a: float, b: float) -> float:
    """``a / b`` with numpy's answer, not an exception, for ``b == 0``; a
    square in the divisor underflows to 0 at radii below about 1e-162."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.nan if a == 0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


def _trstlp(g: float, delta: float) -> float:
    """trstlp's step for a linear model of slope ``g`` within radius ``delta``:
    its second stage on one active row (its first stage has no constraint)."""
    if abs(g) > 1e12:
        g *= max(2 * sys.float_info.min, 1 / abs(g))
    a = abs(g)
    # qradd_Rdiag adds the row only when it is not minor against |g|
    if not (a > _EPS * _EPS and not (a >= a + 0.1 * a or a + 0.1 * a >= a + 0.2 * a)):
        return 0.0
    sdirn = -1 / g
    dd = delta * delta
    ss = sdirn * sdirn
    if dd <= 0 or ss <= _EPS * delta * delta:
        return 0.0
    step = math.sqrt(ss * dd) / ss
    if step <= 0 or not math.isfinite(step):
        return 0.0
    d = 0.0 + step * sdirn
    # the step's multiplier (lstsq) overflowing makes trstlp restore d = 0
    return d if math.isfinite(d / g) else 0.0


def _checked_inverse(s: float, si: float) -> float | None:
    """The simplex inverse ``si`` of ``s``, recomputed when it drifts; None
    when even that is off by more than 1 (PRIMA's DAMAGING_ROUNDING)."""
    err = abs(si * s - 1.0)
    if err > 0.1 or err != err:
        if s == 0:  # a radius far below 1e-160 can collapse the simplex
            raise np.linalg.LinAlgError("Singular matrix")
        inv = 1.0 / s
        err_inv = abs(inv * s - 1.0)
        if err_inv < err or (err != err and err_inv == err_inv):
            si, err = inv, err_inv
    return si if err <= 1 else None


def _updatepole(s: float, xb: float, si: float, fv: float, fb: float):
    """Make the better vertex the pole: the simplex is the pole ``xb`` with
    value ``fb`` and the vertex ``xb + s`` with value ``fv``, ``si`` being
    PRIMA's running 1/s. None on damaging rounding."""
    if fv < fb:
        xb, s, si, fv, fb = xb + s, 0.0 - s, -si, fb, fv
    si = _checked_inverse(s, si)
    return None if si is None else (s, xb, si, fv, fb)


def _updatexfc(jdrop: int, d: float, f: float, s: float, xb: float, si: float, fv: float, fb: float):
    """Replace vertex ``jdrop`` (0 the vertex, 1 the pole) by ``xb + d``
    with value ``f``, then update the pole. None on damaging rounding."""
    if jdrop == 0:
        s, si, fv = d, _div(si, si * d), f
    else:
        sd = si * d
        xb, s, si, fb = xb + d, s - d, si + sd * _div(si, 1 - sd), f
    si = _checked_inverse(s, si)
    return None if si is None else _updatepole(s, xb, si, fv, fb)


def _setdrop_tr(improved: bool, d: float, delta: float, rho: float, s: float, si: float) -> int | None:
    """The vertex a trust-region point at ``xb + d`` replaces, if any."""
    if improved:
        e0, eb = (s - d) * (s - d), d * d
    else:
        e0, eb = s * s, 0.0
    m = max(rho, delta / 10)
    mm = m * m
    w0, wb = _div(e0, mm), _div(eb, mm)
    sd = si * d
    score0 = (1.0 if w0 < 1 else w0) * abs(sd)
    scoreb = (1.0 if wb < 1 else wb) * abs(1 - sd) if improved else -1.0
    score0 = -1.0 if score0 != score0 else score0
    scoreb = -1.0 if scoreb != scoreb else scoreb
    if score0 > 0 or scoreb > 0:
        return 1 if scoreb > score0 else 0
    if improved:
        return 1 if eb > e0 else 0
    return None


def _cobyla_1d(fun: Callable[[float], float], maxfun: int, rhoend: float, f0: float | None = None) -> bool:
    """Minimize ``fun`` of one float from 0.0 as ``scipy.optimize.minimize``
    does with ``method="COBYLA"``, ``rhobeg=_RHOBEG``, ``tol=rhoend`` and
    ``maxiter=maxfun``: the same calls, at bit-identical points in the same
    order, but for the start's when its value ``f0`` is given. Returns
    scipy's ``success``."""
    rhobeg = _RHOBEG
    if abs(rhobeg - rhoend) < 1e2 * _EPS * max(rhobeg, 1):  # preproc
        rhoend = rhobeg
    # scipy's ScalarFunction evaluates the start on construction and answers
    # a repeat of its last point from a cache: no call, but PRIMA counts it
    last = [0.0, fun(0.0) if f0 is None else f0]

    def calcfc(x: float) -> float:
        x = min(max(x, -_REALMAX), _REALMAX)  # moderatex
        if x != last[0]:
            last[0], last[1] = x, fun(x)
        f = last[1]
        return _FUNCMAX if f != f else min(max(f, -_REALMAX), _FUNCMAX)  # moderatef

    # initxfc: the start, then one step of rhobeg
    xb, s, fb = 0.0, rhobeg, calcfc(0.0)
    fv = calcfc(rhobeg)
    if fv < fb:
        xb, s, fv, fb = rhobeg, -rhobeg, fb, fv
    si = 1.0 / s
    nf = 2
    close = (1e-4 * rhoend) * (1e-4 * rhoend)

    def probe(d: float, s: float, xb: float, fv: float, fb: float) -> tuple[float, float, bool]:
        """``xb + d``, its value (a vertex's own when it is that close), and
        whether it was evaluated."""
        x = xb + d
        e0 = x - (xb + s)
        e0 *= e0
        eb = (x - xb) * (x - xb)
        if eb < e0 or (eb != eb and e0 == e0):  # argmin, first index on ties
            if eb <= close:
                return x, fb, False
        elif e0 <= close:
            return x, fv, False
        return x, calcfc(x), True

    rho = delta = rhobeg
    shortd = False
    ratio = -1.0
    jdrop: int | None = 0
    d = 0.0
    small_radius = False
    for _ in range(10 * maxfun):
        state = _updatepole(s, xb, si, fv, fb)
        if state is None:
            break
        s, xb, si, fv, fb = state
        adequate_geo = s * s <= 4 * (delta * delta)
        g = (fv - fb) * si
        d = _trstlp(g, delta)
        dnorm = min(delta, math.sqrt(d * d))
        shortd = dnorm <= 0.1 * rho
        prerem = -(d * g)
        trfail = not prerem > _TRFAIL * rho
        if shortd or trfail:
            delta *= 0.1
            if delta <= _GAMMA3 * rho:
                delta = rho
        else:
            x, f, fresh = probe(d, s, xb, fv, fb)
            nf += fresh
            actrem = fb - f
            ratio = actrem / prerem
            if ratio <= _ETA1:
                delta = _GAMMA1 * dnorm
            elif ratio <= _ETA2:
                delta = max(_GAMMA1 * delta, dnorm)
            else:
                delta = max(_GAMMA1 * delta, _GAMMA2 * dnorm)
            if delta <= _GAMMA3 * rho:
                delta = rho
            jdrop = _setdrop_tr(actrem > 0, d, delta, rho, s, si)
            if jdrop is not None:
                state = _updatexfc(jdrop, d, f, s, xb, si, fv, fb)
                if state is None:
                    break
                s, xb, si, fv, fb = state
            if nf >= maxfun or math.isinf(x):  # checkbreak_con
                break
        bad_trstep = shortd or trfail or ratio <= 0 or jdrop is None
        if bad_trstep and not adequate_geo and not s * s <= 4 * (delta * delta):
            # geostep: half the radius along the vertex's direction, downhill
            d = _div(si, math.sqrt(si * si)) * (delta / 2)
            g = (fv - fb) * si
            if -(d * g) < d * g:
                d *= -1
            x, f, fresh = probe(d, s, xb, fv, fb)
            nf += fresh
            state = _updatexfc(0, d, f, s, xb, si, fv, fb)
            if state is None:
                break
            s, xb, si, fv, fb = state
            if nf >= maxfun or math.isinf(x):
                break
        if bad_trstep and adequate_geo and max(delta, dnorm) <= rho:
            if rho <= rhoend:
                small_radius = True
                break
            r = rho / rhoend  # redrho
            new_rho = 0.1 * rho if r > 250 else rhoend if r <= 16 else math.sqrt(r) * rhoend
            delta = max(0.5 * rho, new_rho)
            rho = new_rho
            state = _updatepole(s, xb, si, fv, fb)
            if state is None:
                break
            s, xb, si, fv, fb = state
    if small_radius and shortd:
        # cobylb evaluates a short last step before it returns
        x = xb + d
        if math.sqrt((x - xb) * (x - xb)) > 1e-3 * rhoend and nf < maxfun:
            calcfc(x)
    return small_radius
