"""Derivative-free tuner: eval caps, best-so-far semantics, convergence."""
import math
import warnings

import pytest

from qrep.optimizer import OptBudget, OptResult, minimize_params


def test_budget_validation():
    with pytest.raises(ValueError):
        OptBudget(max_evals=0)
    with pytest.raises(ValueError):
        OptBudget(tolerance=0.0)
    with pytest.raises(ValueError):
        OptBudget(tolerance=-1.0)


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


def test_zero_params_single_call():
    calls = []

    def f(x):
        calls.append(x)
        return 42.0

    res = minimize_params(f, 0)
    assert res == OptResult((), 42.0, 1, True)
    assert calls == [()]


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
