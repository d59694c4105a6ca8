import dataclasses
import hashlib

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
    H = base.hess_at(_samples_for(problem, count=10))
    assert np.abs(H - np.swapaxes(H, -1, -2)).max() < 1e-10


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
    assert p.u_at([[0.0, 0.0]])[0, 0] == 0.0
    assert p.u_at([[3.0, 2.5]])[0, 1] == 0.0
    assert np.allclose(p.jac_at([[0.7, -0.3]])[0, 0], [-2.1 * 0.7, -1.96 * -0.3])


def test_smale_constant_first_gradient():
    p = registry_get("smale")
    assert np.allclose(p.jac_at(sample_domain(p, 5, seed=1))[:, 0], [0.0, -1.0])


def test_sphere_constraint_jacobian_anchor():
    cp = registry_get("sphere_proj")
    assert np.allclose(cp.g_jac_at([[1.0, 0.0, 0.0]])[0], [[1.0, 0.0, 0.0]])
    assert cp.g_val_at([[1.0, 0.0, 0.0]])[0, 0] == pytest.approx(0.0, abs=1e-15)
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
        assert np.linalg.norm(p.jac_at(C[j][None])[0, j]) < 0.2


# ---------------------------------------------------------------------------
# stacked callables
# ---------------------------------------------------------------------------


def _kuhn_nodes(name, counts):
    p = registry_get(name)
    return kuhn_tessellation(p.domain_box, counts).nodes


# problem -> node sets it runs on: the golden cases and the bench inputs, and
# for problems with neither, a Kuhn grid of the domain box
CASE_NODES = {
    "smale": [("kuhn 16^2", lambda: _kuhn_nodes("smale", [16, 16]))],
    "noncv": [("kuhn 40^2", lambda: _kuhn_nodes("noncv", [40, 40])),
              ("kuhn 200^2", lambda: _kuhn_nodes("noncv", [200, 200]))],
    "tri_quadratic": [(f"kuhn {k}^3", lambda k=k: _kuhn_nodes("tri_quadratic", [k] * 3))
                      for k in (5, 6, 7, 15)],
    "sphere_proj": [(f"icosphere({k})", lambda k=k: icosphere(k).nodes) for k in range(6)],
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
        # owned and C-contiguous: the pipeline would copy anything else
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


def _box_samples(base):
    """4000 uniform points over the whole domain box, seed 17."""
    lo, hi = base.domain_box.T
    return np.random.default_rng(17).uniform(lo, hi, (4000, base.n))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_forms_match_per_point_on_uniform_samples(name):
    # a few thousand points catch an operation that rounds a point's value
    # differently in a stack than alone, such as a product whose kernel
    # depends on the stack size
    problem = registry_get(name)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    _assert_rows_independent(problem, _box_samples(base))


# sha256 of the bytes each raw callable returns on _box_samples(base),
# recorded at commit 634bb79.
# They pin every power to C pow (see problems._pow): a square taken with
# numpy's ** rounds differently on a few in a thousand points.
CALLABLE_DIGESTS = {
    "locglob": {
        "u": "0d5cd0ef0e97e2d586b3453e0f5f67cfc1399bbdb57d4fd2388232a6cf835906",
        "jac": "43a3d3106305da637c66bcdbe671e9e034a30b7388b7dab7a2ccc3fd8abe46d2",
        "hess": "fc4d670fe42a2f74b3b33d85eeb88e2425581f81ddcfc6793e9f663cb80a58a1",
    },
    "noncv": {
        "u": "d8572eff0126a2e6b4c8b46f7c2390d95e1c9324576542e40461f2868cf616ef",
        "jac": "78bf5b12359c5af14e8910a96cf72547f8f55452c562699df5115cd5dd1cd415",
        "hess": "4f2fca00e937cb65c0dfc3e8a08679e60211f134429c63a167f089999cd2ee56",
    },
    "smale": {
        "u": "de965231f3a0e4fdba39784576d0723743312e96ebb794443b8fcc56c9665171",
        "jac": "33ca104635df57eb6df701d022b642b06fd8353b6ea9fe15bc2a8de2a065e967",
        "hess": "4e0139997cf3bd0efcf2a31965199ac3f0d498c32f238ad46b4678e4146af839",
    },
    "sms": {
        "u": "642cefa61a95af536eefe6f0f1f3eccd8c04995dc7e9cc6fa289ca089aa9f8d6",
        "jac": "2ec7cda66ef8baca87c0f3a08f8731f501e63ac0f45555f9fd91b4ddc7d08e70",
        "hess": "a34818ee5bab881b83a81041c090178faf238e2e1859bca70dc67390364cc522",
    },
    "sphere_proj": {
        "u": "32084b1014be4d6d7844c7a4cf44b1650f2ba13c3dbe561eaa3789b0e4056449",
        "jac": "ac4f660adbdd61ba5736547f28e1659f18e0e4899d76408e3ddf85f63a23659c",
        "hess": "30fafbdc0facf210a26498db982f7ff8ad1e0b9a805816731c72e356a768c162",
        "g": "467cbe952d501ffff1eb9c1c2377b17096fec8535ccec536a41fa38ae143496e",
        "g_jac": "fe8669a8b81e3ed0c871c7de4fd1d6c8d98451e38d4c47d7953e6e059961b918",
    },
    "tri_quadratic": {
        "u": "08d1d78be096f608b57ae9af6ecfbd9281bbfe138b98a557f89524754059f1a4",
        "jac": "ed61e523f5c38b029032455789f15de9f183bfb435ff13f973b69e2d96368111",
        "hess": "a6827af2dfe8dfcee0909671c5d46321d97ad283503cab45efd19a6a13da6c15",
    },
    "tri_quadratic_ncv": {
        "u": "e45889f329d348073237665c264032b66d1dbd95e1e26db84a2fddd43bdea948",
        "jac": "4f79b180192e2693286ded54ae313a673aaa293a89e2712a36d2e26416097af6",
        "hess": "9e13b09aa2e16af41691af49803b0bfb39ac03944188a7796368f7894de0c8cf",
    },
    "triv": {
        "u": "0eda5c98858867b5ba4d9769f531fd4e0f6be08535ff44ea5dfab8f4c0fe0fee",
        "jac": "8305a2d0a2e59f9ca3ff19ddfb608d12b578218106c8aa36fa15c82c44844c26",
        "hess": "64ac0db05c2d6477aa60adff6ffb0c628276a1d6cad438a6325e68729a1b6ea5",
    },
    "zdt3reg": {
        "u": "990e9a099e94e059588316cb532f7093ba872c03f352b44295d7b7d69d634497",
        "jac": "ded530430d4839424e5b242fadfd1ef7679b647219e6818c8277552809ee52ab",
        "hess": "eb18c71bfe1f33ab423c4a15d596156d82bb8aec45f2cf2ec389c3fff132c480",
    },
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_callables_match_recorded_digests_on_uniform_samples(name):
    problem = registry_get(name)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    X = _box_samples(base)
    got = {what: hashlib.sha256(raw_callable(X).tobytes()).hexdigest()
           for what, raw_callable, _ in _callables(problem)}
    assert got == CALLABLE_DIGESTS[name]


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
