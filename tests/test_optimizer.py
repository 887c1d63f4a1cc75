"""Derivative-free tuner: eval caps, best-so-far semantics, convergence,
and the COBYLA port held call by call to scipy's, one angle at a time."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import scipy_minimize_params

import qrep
from qrep import optimizer
from qrep.optimizer import _RHOBEG, TOL_FLOOR, OptBudget, minimize_params


def test_budget_validation():
    with pytest.raises(ValueError):
        OptBudget(max_evals=0)
    with pytest.raises(ValueError):
        OptBudget(tolerance=0.0)
    with pytest.raises(ValueError):
        OptBudget(tolerance=-1.0)


def test_max_evals_is_an_integer():
    """max_evals=2.5 used to crash random search at its first parametric patch."""
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"^max_evals must be an integer, got {bad}$"):
            OptBudget(max_evals=bad)
    with pytest.raises(ValueError, match="^max_evals must be >= 1, got 0$"):
        OptBudget(max_evals=0)
    assert OptBudget(max_evals=np.int64(3)).max_evals == 3


def test_tolerance_is_finite_and_positive():
    """--opt-tol's rule, kept by the budget: a NaN tolerance stopped a trial
    on (x-0.7)^2 early and unconverged, an infinite one at once as converged."""
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^tolerance must be finite and > 0, got {bad}$"):
            OptBudget(tolerance=bad)
    assert OptBudget(tolerance=1e-300).tolerance == 1e-300


def test_eval_cap_is_exact():
    calls = []

    def f(x):
        calls.append(x)
        return (x[0] - 1.0) ** 2

    res = minimize_params(f, 1, OptBudget(max_evals=7))
    assert len(calls) <= 7
    assert res.evals == len(calls)


def test_eval_cap_of_one():
    calls = []

    def f(x):
        calls.append(x)
        return x[0] ** 2

    res = minimize_params(f, 1, OptBudget(max_evals=1))
    assert len(calls) == 1
    assert res.evals == 1
    assert res.value == 0.0  # start point is the only sample


def test_best_so_far_not_last():
    # adversarial objective: good early, bad late
    seen = []

    def f(x):
        seen.append(x[0])
        return abs(x[0] - 0.01)

    res = minimize_params(f, 1, OptBudget(max_evals=15))
    assert res.value == min(abs(v - 0.01) for v in seen)
    assert abs(res.params[0] - 0.01) == pytest.approx(res.value)


def test_converges_1d_quadratic():
    res = minimize_params(lambda x: (x[0] - 0.7) ** 2, 1, OptBudget(max_evals=60, tolerance=1e-8))
    assert res.value < 1e-6
    assert res.params[0] == pytest.approx(0.7, abs=1e-2)


def test_converges_2d_quadratic():
    res = minimize_params(
        lambda x: (x[0] - 1.1) ** 2 + (x[1] + 0.4) ** 2,
        2,
        OptBudget(max_evals=120, tolerance=1e-8),
    )
    assert res.value < 1e-4
    assert res.params[0] == pytest.approx(1.1, abs=0.05)
    assert res.params[1] == pytest.approx(-0.4, abs=0.05)


def test_converges_3d_smooth():
    res = minimize_params(
        lambda x: sum((xi - t) ** 2 for xi, t in zip(x, (0.3, -0.2, 0.9))),
        3,
        OptBudget(max_evals=200, tolerance=1e-8),
    )
    assert res.value < 1e-3


def test_periodic_objective_like_rotation_fitness():
    # fitness of an rx patch is periodic in the angle; target pi/2
    res = minimize_params(
        lambda x: 1.0 - math.sin(x[0] / 2.0) ** 2,
        1,
        OptBudget(max_evals=80, tolerance=1e-8),
    )
    assert res.value < 1e-3  # reaches a minimum near pi


def test_zero_params_rejected():
    calls = []

    def f(x):
        calls.append(x)
        return 42.0

    with pytest.raises(ValueError, match="n_params must be >= 1"):
        minimize_params(f, 0)
    assert calls == []


def test_negative_params_rejected():
    with pytest.raises(ValueError):
        minimize_params(lambda x: 0.0, -1)


def test_objective_exception_propagates():
    class Boom(RuntimeError):
        pass

    def f(x):
        raise Boom("stop")

    with pytest.raises(Boom):
        minimize_params(f, 1, OptBudget(max_evals=5))


def test_objective_exception_ends_search_at_that_call():
    class Boom(RuntimeError):
        pass

    calls = []

    def f(x):
        calls.append(x)
        if len(calls) == 3:
            raise Boom("stop")
        return sum(a * a for a in x)

    with pytest.raises(Boom):
        minimize_params(f, 2, OptBudget(max_evals=20))
    assert len(calls) == 3


@pytest.mark.parametrize("n_params,cap", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 4), (3, 5)])
def test_cap_below_solver_minimum_is_exact_and_silent(n_params, cap):
    values = []

    def f(x):
        values.append(sum((a - 0.5) ** 2 for a in x))
        return values[-1]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_params(f, n_params, OptBudget(max_evals=cap))
    assert len(values) == res.evals == cap
    assert res.value == min(values)


def test_deterministic():
    f = lambda x: math.cos(x[0]) + 0.1 * x[0] ** 2
    a = minimize_params(f, 1, OptBudget(max_evals=40))
    b = minimize_params(f, 1, OptBudget(max_evals=40))
    assert a == b


@pytest.mark.parametrize("cap", [2**63 - 1, 2**63, 2**70])
def test_cap_beyond_solver_iteration_range(cap):
    # scipy hands the iteration limit to PRIMA as a C long
    res = minimize_params(lambda x: (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2, 2, OptBudget(max_evals=cap))
    assert res.evals < 500 and res.value < 1e-3


def test_tolerance_above_initial_radius_runs_without_solver_warning():
    # a tolerance coarser than COBYLA's starting radius is clamped to it, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_params(lambda x: (x[0] - 1.0) ** 2, 1, OptBudget(max_evals=10, tolerance=2.0))
    assert 1 <= res.evals <= 10


# ------------------------------------- the one-angle port vs scipy's COBYLA

MAX_EVALS = (1, 2, 3, 5, 20, 200)
# the last one is close enough to the start radius for PRIMA to snap to it
TOLERANCES = (1e-6, 1e-3, 0.1, 1.0, 10.0, _RHOBEG - 64 * sys.float_info.epsilon)


def _objective_factory(rng: np.random.Generator):
    """A seeded random one-angle objective, as a factory of fresh copies
    (pure noise draws a new value per call)."""
    kind = int(rng.integers(5))
    if kind == 0:  # trig polynomial of degree 1-3
        c0, ab = float(rng.uniform(-1, 1)), rng.uniform(-1, 1, (int(rng.integers(1, 4)), 2)).tolist()
        f = lambda t: c0 + sum(a * math.cos(k * t) + b * math.sin(k * t) for k, (a, b) in enumerate(ab, 1))
    elif kind == 1:  # a constant, or a plateau on it
        lo, hi = sorted(rng.uniform(-3, 3, 2).tolist())
        c, inner = float(rng.choice([0.0, 1.0, rng.uniform(-2, 2)])), float(rng.uniform(-1, 1))
        f = (lambda t: c) if rng.random() < 0.5 else (lambda t: inner if lo < t < hi else c)
    elif kind == 2:  # quantised steps
        q, a = float(rng.choice([0.01, 0.1, 0.5, 1.0])), float(rng.uniform(-3, 3))
        f = lambda t: round((t - a) ** 2 / q) * q
    elif kind == 3:  # a kink of slope 1e-12 to 1e14
        s, a = 10.0 ** float(rng.uniform(-12, 14)), float(rng.uniform(-4, 4))
        f = lambda t: s * abs(t - a)
    else:  # pure noise
        seed = int(rng.integers(2**32))
        return lambda: (lambda t, noise=np.random.default_rng(seed): float(noise.random()))
    return lambda: f


@pytest.mark.parametrize("seed", range(4))
def test_one_angle_port_matches_scipy_call_by_call(seed):
    rng = np.random.default_rng(seed)
    converged = set()
    for _ in range(75):
        make = _objective_factory(rng)
        budget = OptBudget(max_evals=int(rng.choice(MAX_EVALS)), tolerance=float(rng.choice(TOLERANCES)))
        runs = []
        for minimize in (minimize_params, scipy_minimize_params):
            f, seen = make(), []

            def objective(x, f=f, seen=seen):
                seen.append(x[0].hex())
                return f(x[0])

            runs.append((seen, minimize(objective, 1, budget)))
        assert runs[0] == runs[1], budget
        converged.add(runs[0][1].converged)
    assert converged == {False, True}


@pytest.mark.parametrize("tolerance", [1e-200, TOL_FLOOR])
def test_tolerance_at_or_below_the_floor_never_raises_and_matches_scipy(tolerance):
    # far below the floor a simplex could shrink until its inverse was
    # singular; the floor holds every trial to scipy's calls at the floor
    rng = np.random.default_rng(1729)
    for _ in range(100):
        make = _objective_factory(rng)
        budget = OptBudget(max_evals=int(rng.choice((20, 200, 1000))), tolerance=tolerance)
        runs = []
        for minimize in (minimize_params, scipy_minimize_params):
            f, seen = make(), []

            def objective(x, f=f, seen=seen):
                seen.append(x[0].hex())
                return f(x[0])

            runs.append((seen, minimize(objective, 1, budget)))
        assert runs[0] == runs[1], budget


@pytest.mark.parametrize("seed", range(3))
def test_wide_trials_match_scipy_angle_by_angle_call_by_call(seed):
    """2- and 3-angle trials, each angle run by the port from the best point
    so far on its share of the cap, call the objective where scipy's COBYLA
    run angle by angle with the same shares and cached starts calls it."""
    rng = np.random.default_rng(100 + seed)
    converged = set()
    for _ in range(40):
        n = int(rng.integers(2, 4))
        makes = [_objective_factory(rng) for _ in range(n)]
        coupling = float(rng.choice([0.0, rng.uniform(-1, 1)]))
        budget = OptBudget(max_evals=int(rng.choice((1, 2, 3, 5, 20, 40))), tolerance=float(rng.choice(TOLERANCES)))
        runs = []
        for minimize in (minimize_params, scipy_minimize_params):
            fs, seen = [make() for make in makes], []

            def objective(x, fs=fs, seen=seen):
                seen.append(tuple(a.hex() for a in x))
                return sum(f(a) for f, a in zip(fs, x)) + coupling * math.sin(x[0] - x[-1])

            runs.append((seen, minimize(objective, n, budget)))
        assert runs[0] == runs[1], budget
        assert runs[0][1].evals == len(runs[0][0]) <= budget.max_evals
        converged.add(runs[0][1].converged)
    assert converged == {False, True}


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, qrep, qrep.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qrep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The ported routines one by one against PRIMA's own, on inputs far wider
# than a repair produces: tiny and huge radii, slopes and simplices.

def _prima(name):
    return pytest.importorskip(f"scipy._lib.pyprima.cobyla.{name}")


def _wide(rng: np.random.Generator) -> float:
    if rng.random() < 0.05:
        return float(rng.choice([0.0, 5e-324, -1e-310, 1e-160, 1e160]))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 300))


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in values)


def test_trstlp_step_matches_prima():
    trustregion = _prima("trustregion")
    rng = np.random.default_rng(5)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            g, delta = _wide(rng), 10.0 ** float(rng.uniform(-200, 280))
            want = trustregion.trstlp(np.zeros((1, 0)), np.zeros(0), delta, np.array([g]))[0]
            assert optimizer._trstlp(g, delta).hex() == float(want).hex(), (g, delta)


def test_setdrop_tr_matches_prima():
    geometry = _prima("geometry")
    rng = np.random.default_rng(6)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            rho = 10.0 ** float(rng.uniform(-200, 1))
            delta = rho * float(rng.choice([1.0, 10.0 ** rng.uniform(0, 4)]))
            s, d = _wide(rng), _wide(rng)
            si = 1.0 / s if s and rng.random() < 0.8 else _wide(rng)
            improved = bool(rng.random() < 0.5)
            want = geometry.setdrop_tr(improved, np.array([d]), delta, rho, np.array([[s, 0.0]]), np.array([[si]]))
            got = optimizer._setdrop_tr(improved, d, delta, rho, s, si)
            assert got == (None if want is None else int(want)), (improved, d, delta, rho, s, si)


def test_updatexfc_matches_prima():
    update = _prima("update")
    rng = np.random.default_rng(7)
    eps = sys.float_info.epsilon
    with np.errstate(all="ignore"):
        for _ in range(3000):
            s, xb, d = _wide(rng), float(rng.uniform(-10, 10)), _wide(rng)
            si = 1.0 / s if s and rng.random() < 0.7 else _wide(rng)
            fv, fb, f = (float(v) for v in rng.choice([0.0, 1.0, -1e30, 1e30], 3) * rng.uniform(0, 2, 3))
            jdrop = int(rng.integers(2))
            outcome = []
            for run in ("prima", "port"):
                try:
                    if run == "prima":
                        sim, simi, fval, _, _, info = update.updatexfc(
                            jdrop, np.zeros(0), eps, 0.0, np.array([d]), f, np.zeros((0, 2)), np.zeros(2),
                            np.array([fv, fb]), np.array([[s, xb]]), np.array([[si]]),
                        )
                        damaged = info == update.DAMAGING_ROUNDING
                        outcome.append(None if damaged else _hex((sim[0, 0], sim[0, 1], simi[0, 0], *fval)))
                    else:
                        state = optimizer._updatexfc(jdrop, d, f, s, xb, si, fv, fb)
                        outcome.append(None if state is None else _hex(state))
                except np.linalg.LinAlgError:
                    outcome.append("singular")
            assert outcome[0] == outcome[1], (jdrop, d, f, s, xb, si, fv, fb)
