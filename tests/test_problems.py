import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretoc.constrained import icosphere
from paretoc.errors import UnknownProblem
from paretoc.problems import (
    ConstrainedProblem,
    VectorProblem,
    check_derivatives,
    registry_get,
    registry_names,
    sample_domain,
)
from paretoc.tessellation import kuhn_tessellation

ALL_NAMES = [
    "triv", "smale", "sms", "noncv", "locglob",
    "zdt3reg", "tri_quadratic", "tri_quadratic_ncv", "sphere_proj",
]


def _samples_for(problem, count=20, seed=11):
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    s = sample_domain(base, count, seed=seed)
    if isinstance(problem, ConstrainedProblem):
        s = s / np.linalg.norm(s, axis=1, keepdims=True)
    return s


def test_registry_complete():
    assert registry_names() == sorted(ALL_NAMES)
    with pytest.raises(UnknownProblem):
        registry_get("nope")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_all_registered_problems_pass_derivative_check(name):
    problem = registry_get(name)
    report = check_derivatives(problem, _samples_for(problem))
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hessians_symmetric(name):
    problem = registry_get(name)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    for x in _samples_for(problem, count=10):
        H = base.hess(x)
        assert np.abs(H - np.transpose(H, (0, 2, 1))).max() < 1e-10


def test_wrong_gradient_sign_fails():
    bad = VectorProblem(
        name="bad", n=2, m=2,
        eval=lambda X: np.float_power(X, 2),
        jacobian=lambda X: X[:, :, None] * np.diag([-2.0, 2.0]),
        hessians=lambda X: np.tile([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])], (len(X), 1, 1, 1)),
        domain_box=[[-1, 1], [-1, 1]],
    )
    report = check_derivatives(bad, sample_domain(bad, 20, seed=3))
    assert not report.passed
    assert any(kind == "jacobian" for kind, _, _ in report.failures)


def test_triv_anchor_values():
    p = registry_get("triv")
    assert p.u([0.0, 0.0])[0] == 0.0
    assert p.u([3.0, 2.5])[1] == 0.0
    assert np.allclose(p.jac([0.7, -0.3])[0], [-2.1 * 0.7, -1.96 * -0.3])


def test_smale_constant_first_gradient():
    p = registry_get("smale")
    for x in sample_domain(p, 5, seed=1):
        assert np.allclose(p.jac(x)[0], [0.0, -1.0])


def test_sphere_constraint_jacobian_anchor():
    cp = registry_get("sphere_proj")
    assert np.allclose(cp.g_jac(np.array([1.0, 0.0, 0.0])), [[1.0, 0.0, 0.0]])
    assert cp.g_val(np.array([1.0, 0.0, 0.0]))[0] == pytest.approx(0.0, abs=1e-15)
    report = check_derivatives(cp, _samples_for(cp))
    assert report.passed and report.max_constraint_error < 1e-5


def test_zdt3reg_domain_box_exact():
    p = registry_get("zdt3reg")
    assert p.n == 6 and p.m == 2
    assert np.allclose(p.domain_box[0], [0.1, 0.425])
    for i in range(1, 6):
        assert np.allclose(p.domain_box[i], [-0.16, 0.16])


def test_m_le_n_flags():
    assert not registry_get("triv").sigma_skip
    toy = VectorProblem(
        name="toy", n=1, m=2,
        eval=lambda X: np.hstack([X, -X]),
        jacobian=lambda X: np.tile([[1.0], [-1.0]], (len(X), 1, 1)),
        hessians=lambda X: np.zeros((len(X), 2, 1, 1)),
        domain_box=[[-1, 1]],
    )
    assert toy.sigma_skip


def test_tri_quadratic_maxima_distinct_noncollinear():
    p = registry_get("tri_quadratic")
    # the three maxima sit near the unit points; check non-collinearity
    C = np.eye(3)
    v1, v2 = C[1] - C[0], C[2] - C[0]
    assert np.linalg.norm(np.cross(v1, v2)) > 0.5
    # gradient roughly vanishes near each unperturbed maximum
    for j in range(3):
        assert np.linalg.norm(p.jac(C[j])[j]) < 0.2


# ---------------------------------------------------------------------------
# stacked callables
# ---------------------------------------------------------------------------


def _kuhn_nodes(name, counts):
    p = registry_get(name)
    return kuhn_tessellation(p.domain_box, counts).nodes.points


# problem -> node sets it runs on: the golden cases and the bench inputs, and
# for problems with neither, a Kuhn grid of the domain box
CASE_NODES = {
    "smale": [("kuhn 16^2", lambda: _kuhn_nodes("smale", [16, 16]))],
    "noncv": [("kuhn 40^2", lambda: _kuhn_nodes("noncv", [40, 40])),
              ("kuhn 200^2", lambda: _kuhn_nodes("noncv", [200, 200]))],
    "tri_quadratic": [(f"kuhn {k}^3", lambda k=k: _kuhn_nodes("tri_quadratic", [k] * 3))
                      for k in (5, 6, 7, 15)],
    "sphere_proj": [(f"icosphere({k})", lambda k=k: icosphere(k).points) for k in range(6)],
    "triv": [("kuhn 30^2", lambda: _kuhn_nodes("triv", [30, 30]))],
    "sms": [("kuhn 30^2", lambda: _kuhn_nodes("sms", [30, 30]))],
    "locglob": [("kuhn 8^3", lambda: _kuhn_nodes("locglob", [8, 8, 8]))],
    "zdt3reg": [("kuhn 3^6", lambda: _kuhn_nodes("zdt3reg", [3] * 6))],
    "tri_quadratic_ncv": [("kuhn 8^3", lambda: _kuhn_nodes("tri_quadratic_ncv", [8] * 3))],
}


def _callables(problem):
    """(name, raw callable, stacked-call helper) of every problem quantity."""
    cp = problem if isinstance(problem, ConstrainedProblem) else None
    p = cp.base if cp is not None else problem
    pairs = [("u", p.eval, p.u_at), ("jac", p.jacobian, p.jac_at), ("hess", p.hessians, p.hess_at)]
    if cp is not None:
        pairs += [("g", cp.g, cp.g_val_at), ("g_jac", cp.g_jacobian, cp.g_jac_at)]
    return pairs


def _assert_rows_independent(problem, X):
    # a point's values do not depend on the stack it is in: the one-point
    # conveniences then give the pipeline's values bit for bit
    for what, raw_callable, at in _callables(problem):
        raw = raw_callable(X)
        # owned and C-contiguous: callers mark the arrays read-only
        assert raw.flags.owndata and raw.flags.c_contiguous, what
        ref = np.concatenate([at(X[i:i + 1]) for i in range(len(X))])
        assert np.array_equal(raw, ref), what
        assert np.array_equal(at(X), ref), what


def test_case_nodes_cover_every_problem():
    assert sorted(CASE_NODES) == sorted(ALL_NAMES)


@pytest.mark.parametrize(
    "name,label,nodes",
    [(name, label, nodes) for name, sets in sorted(CASE_NODES.items()) for label, nodes in sets],
)
def test_stacked_forms_match_per_point_on_case_nodes(name, label, nodes):
    _assert_rows_independent(registry_get(name), nodes())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_forms_match_per_point_on_uniform_samples(name):
    # a few thousand points catch an operation that rounds a point's value
    # differently in a stack than alone, such as a product whose kernel
    # depends on the stack size
    problem = registry_get(name)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    _assert_rows_independent(problem, sample_domain(base, 4000, seed=17, shrink=0.0))


@pytest.mark.parametrize("name", ALL_NAMES)
@given(data=st.data())
def test_stacked_forms_match_per_point_inside_the_box(name, data):
    problem = registry_get(name)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    point = st.tuples(*(st.floats(lo, hi) for lo, hi in base.domain_box))
    X = np.array(data.draw(st.lists(point, min_size=1, max_size=40)), dtype=float)
    _assert_rows_independent(problem, X)


def test_stacked_callable_of_wrong_shape_is_rejected():
    p = dataclasses.replace(registry_get("triv"), jacobian=lambda X: np.zeros((len(X), 4)))
    with pytest.raises(ValueError, match="shape"):
        p.jac_at(np.zeros((3, 2)))


def test_wrong_jacobian_fails_the_audit():
    p = registry_get("noncv")
    right = p.jacobian

    def wrong(X):
        J = right(X)
        J[:, 1, 0] += 1e-3  # one entry off by far more than the tolerance
        return J

    bad = dataclasses.replace(p, jacobian=wrong)
    report = check_derivatives(bad, _samples_for(bad))
    assert not report.passed
    assert {kind for kind, _, _ in report.failures} == {"jacobian"}
    assert report.max_jacobian_error >= 1e-5
    assert check_derivatives(p, _samples_for(p)).passed
