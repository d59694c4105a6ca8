"""Vector optimization problems with analytic gradients and Hessians.

Each registered problem is a :class:`VectorProblem` (or a
:class:`ConstrainedProblem` wrapping one) whose objective, Jacobian and
Hessian callables are hand-coded over a stack of points: each maps X (N, n)
to one row per point.  ``check_derivatives`` guards the hand-coded
derivatives against central finite differences.

Domain boxes for problems whose sources print no bounds are repo decisions,
chosen to contain the interesting critical structure with some margin; they
are documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import UnknownProblem

Array = np.ndarray


@dataclass
class VectorProblem:
    """A smooth map u: R^n -> R^m with analytic derivatives.

    Each callable maps a stack of points X (N, n) in one call: ``eval`` to
    the (N, m) objective values, ``jacobian`` to the (N, m, n) matrices of
    gradients (rows), ``hessians`` to the (N, m, n, n) stacks of symmetric
    matrices.

    ``minor_columns`` holds the m-column windows whose Jacobian minors the
    pipeline tests, resolved once at construction: the problem's own windows
    if given (each of width m, jointly covering every column, else
    ``ValueError``), otherwise the r = n-m+1 contiguous windows [j, j+m).
    ``m > n`` is accepted: the singular set is then the whole domain, there
    is no window (``()``) and :attr:`sigma_skip` is set.

    The pipeline evaluates through :meth:`u_at`, :meth:`jac_at` and
    :meth:`hess_at`; one point is a one-row stack.
    """

    name: str
    n: int
    m: int
    eval: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    hessians: Callable[[Array], Array]
    domain_box: Array
    description: str = ""
    # column subsets for the minor tests when the sliding windows are
    # structurally degenerate for this map (an identically-zero minor)
    minor_columns: Optional[tuple] = None

    def __post_init__(self):
        self.domain_box = np.asarray(self.domain_box, dtype=float).reshape(self.n, 2)
        if self.minor_columns is None:
            self.minor_columns = [range(j, j + self.m) for j in range(self.n - self.m + 1)]
        self.minor_columns = tuple(tuple(int(c) for c in w) for w in self.minor_columns)
        columns = set(range(self.n))
        covered = set()
        for win in self.minor_columns:
            # a window is m distinct columns of the Jacobian; with m > n
            # there is none
            if len(win) != self.m or len(columns.intersection(win)) != self.m:
                raise ValueError(f"minor window {win} invalid for n={self.n}, m={self.m}")
            covered.update(win)
        if covered != columns and not self.sigma_skip:
            raise ValueError("minor windows must jointly cover every column")

    @property
    def sigma_skip(self) -> bool:
        return self.m > self.n

    def u_at(self, X) -> Array:
        """Objective values at every row of X (N, n), as an (N, m) array."""
        return _at_points(self.eval, X, (self.m,))

    def jac_at(self, X) -> Array:
        """Jacobians at every row of X (N, n), as an (N, m, n) array."""
        return _at_points(self.jacobian, X, (self.m, self.n))

    def hess_at(self, X) -> Array:
        """Hessians at every row of X (N, n), as an (N, m, n, n) array."""
        return _at_points(self.hessians, X, (self.m, self.n, self.n))

    @property
    def box_diagonal(self) -> float:
        return float(np.linalg.norm(self.domain_box[:, 1] - self.domain_box[:, 0]))


@dataclass
class ConstrainedProblem:
    """Objectives over the zero set of an equality constraint g: R^n -> R^{n-m}.

    ``g`` and ``g_jacobian`` map a stack of points X (N, n) to the (N, n-m)
    constraint values and the (N, n-m, n) constraint Jacobians, so the
    manifold has dimension m and the augmented minor test is square.  The
    pipeline evaluates through :meth:`g_val_at` and :meth:`g_jac_at`.
    """

    base: VectorProblem
    g: Callable[[Array], Array]
    g_jacobian: Callable[[Array], Array]

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    def g_val_at(self, X) -> Array:
        """Constraint values at every row of X (N, n), as an (N, n - m) array."""
        return _at_points(self.g, X, (self.n - self.m,))

    def g_jac_at(self, X) -> Array:
        """Constraint Jacobians at every row of X (N, n), as an (N, n - m, n) array."""
        return _at_points(self.g_jacobian, X, (self.n - self.m, self.n))


def _at_points(f, X, shape) -> Array:
    """A problem callable's values at every row of X, as an owned (N, *shape) array."""
    X = np.asarray(X, dtype=float)
    shape = (len(X),) + shape
    # owned, writable and C-contiguous, whatever view the callable returns
    out = np.require(f(X), dtype=float, requirements="COW")
    if out.shape != shape:
        raise ValueError(f"problem callable returned shape {out.shape}, expected {shape}")
    return out


# ---------------------------------------------------------------------------
# derivative checking
# ---------------------------------------------------------------------------


DERIVATIVE_TOLERANCE = 1e-5  # largest relative derivative error that passes
SAMPLE_MARGIN = 1e-3  # sample_domain keeps this fraction of each box side clear


@dataclass
class DerivativeReport:
    problem: str
    max_jacobian_error: float
    max_hessian_error: float
    max_constraint_error: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        worst = max(self.max_jacobian_error, self.max_hessian_error, self.max_constraint_error)
        return worst < DERIVATIVE_TOLERANCE and not self.failures


def check_derivatives(problem: VectorProblem | ConstrainedProblem,
                      samples: Sequence[Array]) -> DerivativeReport:
    """Compare analytic Jacobians/Hessians against central finite differences.

    The step is 1e-4 times the domain-box diagonal.  Errors are relative
    to the larger of the matrix norm and 1.
    """
    cp = problem if isinstance(problem, ConstrainedProblem) else None
    p = cp.base if cp is not None else problem
    h = 1e-4 * p.box_diagonal
    X = np.array(samples, dtype=float)
    # errors are relative to the sample-set scale of each quantity, so stiff
    # maps are not penalized where a matrix entry happens to pass through zero
    jac_err = _sample_errors(p.jac_at(X), _central_differences(p.u_at, X, h))
    hess_err = _sample_errors(p.hess_at(X), _central_differences(p.jac_at, X, h))
    g_err = []
    if cp is not None:
        g_err = _sample_errors(cp.g_jac_at(X), _central_differences(cp.g_val_at, X, h))
    failures = []
    for x, j_err, h_err in zip(X.tolist(), jac_err, hess_err):
        if j_err >= DERIVATIVE_TOLERANCE:
            failures.append(("jacobian", x, j_err))
        if h_err >= DERIVATIVE_TOLERANCE:
            failures.append(("hessian", x, h_err))
    for x, err in zip(X.tolist(), g_err):
        if err >= DERIVATIVE_TOLERANCE:
            failures.append(("constraint", x, err))
    return DerivativeReport(
        problem=p.name,
        max_jacobian_error=max(jac_err),
        max_hessian_error=max(hess_err),
        max_constraint_error=max(g_err, default=0.0),
        failures=failures,
    )


def _sample_errors(A, A_fd) -> list:
    """Per-sample max |A - A_fd|, relative to the larger of max |A| and 1."""
    scale = max(1.0, float(np.abs(A).max()))
    return (np.abs(A - A_fd).reshape(len(A), -1).max(axis=1) / scale).tolist()


def _central_differences(f, X, h) -> Array:
    """Central differences of a stacked callable at every row of X, with the
    derivative along coordinate i in the last axis: (N, *out, n)."""
    cols = []
    for i in range(X.shape[1]):
        E = np.zeros_like(X)
        E[:, i] = h
        cols.append((f(X + E) - f(X - E)) / (2 * h))
    return np.stack(cols, axis=-1)


def sample_domain(problem: VectorProblem, count: int, seed: int = 0):
    """Uniform random samples inside the domain box, shrunk by ``SAMPLE_MARGIN``."""
    rng = np.random.default_rng(seed)
    lo = problem.domain_box[:, 0]
    hi = problem.domain_box[:, 1]
    pad = SAMPLE_MARGIN * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(count, problem.n))


# ---------------------------------------------------------------------------
# registered problems
# ---------------------------------------------------------------------------

# Powers are taken with np.float_power, which calls C pow as a float64
# scalar's x**k does; numpy's array power (x*x for a square) differs from it
# in the last bit, and the recorded complex files hold the pow values.
_pow = np.float_power


def _tiled(A: Array, N: int) -> Array:
    """N owned copies of a constant array, as an (N, *A.shape) array."""
    return np.repeat(A[None], N, axis=0)


def _matrices(rows) -> Array:
    """An (N, m, n) array from m rows of n (N,) entry arrays."""
    return np.stack([np.stack(row, axis=1) for row in rows], axis=1)


def _make_triv() -> VectorProblem:
    """Two negative definite quadratics; the stable set joins their maxima.

    u1 = -1.05 x^2 - 0.98 y^2
    u2 = -0.99 (x-3)^2 - 1.03 (y-2.5)^2
    """

    H = np.array([np.diag([-2.10, -1.96]), np.diag([-1.98, -2.06])])

    def ev_at(X):
        x, y = X.T
        u1 = -1.05 * _pow(x, 2) - 0.98 * _pow(y, 2)
        u2 = -0.99 * _pow(x - 3.0, 2) - 1.03 * _pow(y - 2.5, 2)
        return np.stack([u1, u2], axis=1)

    def jac_at(X):
        x, y = X.T
        return _matrices([[-2.10 * x, -1.96 * y], [-1.98 * (x - 3.0), -2.06 * (y - 2.5)]])

    return VectorProblem(
        name="triv",
        n=2,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=lambda X: _tiled(H, len(X)),
        domain_box=[[-1.52, 4.48], [-1.52, 3.98]],
        description="two concave quadratics with maxima at (0,0) and (3,2.5)",
    )


def _make_smale() -> VectorProblem:
    """u1 = -y, u2 = (y - x^3)/(x + 1); cusp at the origin, pole at x = -1."""

    def ev_at(X):
        x, y = X.T
        return np.stack([-y, (y - _pow(x, 3)) / (x + 1.0)], axis=1)

    def jac_at(X):
        x, y = X.T
        s = x + 1.0
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 1] = -1.0
        J[:, 1, 0] = (-2.0 * _pow(x, 3) - 3.0 * _pow(x, 2) - y) / _pow(s, 2)
        J[:, 1, 1] = 1.0 / s
        return J

    def hess_at(X):
        x, y = X.T
        s = x + 1.0
        H = np.zeros((len(X), 2, 2, 2))
        h_xx = -2.0 * _pow(x, 3) - 6.0 * _pow(x, 2) - 6.0 * x + 2.0 * y
        H[:, 1, 0, 0] = h_xx / _pow(s, 3)
        H[:, 1, 0, 1] = H[:, 1, 1, 0] = -1.0 / _pow(s, 2)
        return H

    # box stays clear of the pole at x = -1 so finite differences of the
    # hand-coded derivatives remain trustworthy over the whole domain
    return VectorProblem(
        name="smale",
        n=2,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=hess_at,
        domain_box=[[-0.6, 1.0], [-5.2, 1.0]],
        description="rational map with one critical curve split by a cusp",
    )


def _make_sms() -> VectorProblem:
    """Concave quadratic against a saddle; two unbounded fronts, one cusp.

    u1 = -x^2 - y^2
    u2 = -(x-6)^2 + (y+0.3)^2
    """

    H = np.array([np.diag([-2.0, -2.0]), np.diag([-2.0, 2.0])])

    def ev_at(X):
        x, y = X.T
        u1 = -_pow(x, 2) - _pow(y, 2)
        u2 = -_pow(x - 6.0, 2) + _pow(y + 0.3, 2)
        return np.stack([u1, u2], axis=1)

    def jac_at(X):
        x, y = X.T
        return _matrices([[-2.0 * x, -2.0 * y], [-2.0 * (x - 6.0), 2.0 * (y + 0.3)]])

    return VectorProblem(
        name="sms",
        n=2,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=lambda X: _tiled(H, len(X)),
        domain_box=[[-1.0, 7.0], [-4.0, 4.0]],
        description="concave quadratic vs saddle quadratic",
    )


def _make_noncv() -> VectorProblem:
    """Bimodal objective against a quadratic: unbounded branch plus two loops.

    u1 = -x^2 - y^2 - 4 (exp(-(x+2)^2 - y^2) + exp(-(x-2)^2 - y^2))
    u2 = -(x-6)^2 - (y+0.5)^2
    """

    def _bumps_at(x, y):
        e1 = np.exp(-_pow(x + 2.0, 2) - _pow(y, 2))
        e2 = np.exp(-_pow(x - 2.0, 2) - _pow(y, 2))
        return e1, e2

    def ev_at(X):
        x, y = X.T
        e1, e2 = _bumps_at(x, y)
        u1 = -_pow(x, 2) - _pow(y, 2) - 4.0 * (e1 + e2)
        u2 = -_pow(x - 6.0, 2) - _pow(y + 0.5, 2)
        return np.stack([u1, u2], axis=1)

    def jac_at(X):
        x, y = X.T
        e1, e2 = _bumps_at(x, y)
        du1x = -2.0 * x + 8.0 * (x + 2.0) * e1 + 8.0 * (x - 2.0) * e2
        du1y = -2.0 * y + 8.0 * y * (e1 + e2)
        return _matrices([[du1x, du1y], [-2.0 * (x - 6.0), -2.0 * (y + 0.5)]])

    def hess_at(X):
        x, y = X.T
        e1, e2 = _bumps_at(x, y)
        a1 = x + 2.0
        a2 = x - 2.0
        H = np.zeros((len(X), 2, 2, 2))
        H[:, 0, 0, 0] = (
            -2.0 + 8.0 * e1 * (1.0 - 2.0 * _pow(a1, 2)) + 8.0 * e2 * (1.0 - 2.0 * _pow(a2, 2))
        )
        H[:, 0, 0, 1] = H[:, 0, 1, 0] = -16.0 * y * (a1 * e1 + a2 * e2)
        H[:, 0, 1, 1] = -2.0 + 8.0 * (e1 + e2) * (1.0 - 2.0 * _pow(y, 2))
        H[:, 1, 0, 0] = H[:, 1, 1, 1] = -2.0
        return H

    return VectorProblem(
        name="noncv",
        n=2,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=hess_at,
        domain_box=[[-4.5, 8.0], [-3.0, 3.0]],
        description="bimodal objective vs quadratic: critical loop between two cusps",
    )


def _make_locglob() -> VectorProblem:
    """3-D map with a broad optimal branch surpassed locally by a sharp one.

    f is a sum of two anisotropic Gaussian bumps (the second with the third
    coordinate halved inside the bump), and the objectives are the 45-degree
    rotation of (x, f):

        g(X; M, p, s) = sqrt(2 pi / s) * exp(((X-p)^T M (X-p)) / s^2)
        f(X) = g(X; M, p0, 0.35) + g((x, y, z/2); M, p1, 3.0)
        u1 = (sqrt(2)/2) (x + f),  u2 = (sqrt(2)/2) (-x + f)
    """
    M = np.array(
        [
            [-1.0, -0.03, 0.011],
            [-0.03, -1.0, 0.07],
            [0.011, 0.07, -1.01],
        ]
    )
    p0 = np.array([0.0, 0.15, 0.0])
    p1 = np.array([0.0, -1.1, 0.0])
    s0 = 0.35
    s1 = 3.0
    S = np.diag([1.0, 1.0, 0.5])
    c = np.sqrt(2.0) / 2.0
    e1 = np.array([1.0, 0.0, 0.0])

    # the products are batched with the same operand shapes for every point,
    # (1, 3) @ (3, 3), (3, 3) @ (3, 1) and so on, so a point's values do not
    # depend on the stack it is in
    def _bump_at(Y, p, s):
        D = (Y - p)[:, :, None]
        q = (np.swapaxes(D, 1, 2) @ M @ D)[:, 0, 0]
        amp = np.sqrt(2.0 * np.pi / s)
        val = amp * np.exp(q / s**2)
        MD = (2.0 * M @ D)[:, :, 0]
        grad = val[:, None] * MD / s**2
        hess = val[:, None, None] * (
            MD[:, :, None] * MD[:, None, :] / s**4 + 2.0 * M / s**2
        )
        return val, grad, hess

    def _f_at(X):
        v0, g0, h0 = _bump_at(X, p0, s0)
        v1, g1, h1 = _bump_at((S @ X[:, :, None])[:, :, 0], p1, s1)
        return v0 + v1, g0 + (S @ g1[:, :, None])[:, :, 0], h0 + S @ h1 @ S

    def ev_at(X):
        f, _, _ = _f_at(X)
        return np.stack([c * (X[:, 0] + f), c * (-X[:, 0] + f)], axis=1)

    def jac_at(X):
        _, g, _ = _f_at(X)
        return np.stack([c * (e1 + g), c * (-e1 + g)], axis=1)

    def hess_at(X):
        _, _, h = _f_at(X)
        return np.stack([c * h, c * h], axis=1)

    # both rows share the last two components (c*grad f), so the (1,2)-column
    # minor vanishes identically; pair column 0 with each other column instead
    return VectorProblem(
        name="locglob",
        n=3,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=hess_at,
        domain_box=[[-1.0, 1.0], [-2.0, 2.0], [-1.0, 1.0]],
        description="broad and sharp optimal branches superposed in 3-D",
        minor_columns=((0, 1), (0, 2)),
    )


def _make_zdt3reg() -> VectorProblem:
    """Regularized 6-D ZDT3 variant (best-effort demo; not an acceptance gate).

    u1 = x1
    u2 = 1 - sqrt(x1) - x1 sin(10 pi x1) + x2^2 + ... + x6^2
    """

    w = 10.0 * np.pi

    def ev_at(X):
        x = X[:, 0]
        tail = (X[:, 1:] ** 2).sum(axis=1)
        return np.stack([x, 1.0 - np.sqrt(x) - x * np.sin(w * x) + tail], axis=1)

    def jac_at(X):
        x = X[:, 0]
        J = np.zeros((len(X), 2, 6))
        J[:, 0, 0] = 1.0
        J[:, 1, 0] = -0.5 / np.sqrt(x) - np.sin(w * x) - w * x * np.cos(w * x)
        J[:, 1, 1:] = 2.0 * X[:, 1:]
        return J

    def hess_at(X):
        x = X[:, 0]
        H = np.zeros((len(X), 2, 6, 6))
        H[:, 1, 0, 0] = (
            0.25 * _pow(x, -1.5) - 2.0 * w * np.cos(w * x) + w**2 * x * np.sin(w * x)
        )
        for i in range(1, 6):
            H[:, 1, i, i] = 2.0
        return H

    box = [[0.1, 0.425]] + [[-0.16, 0.16]] * 5
    # the first objective depends on x1 only, so every window that skips
    # column 0 has a zero row; pair column 0 with each remaining column
    return VectorProblem(
        name="zdt3reg",
        n=6,
        m=2,
        eval=ev_at,
        jacobian=jac_at,
        hessians=hess_at,
        domain_box=box,
        description="regularized ZDT3 in 6-D (demo)",
        minor_columns=tuple((0, j) for j in range(1, 6)),
    )


# Coefficients for the three-objective quadratic examples are repo choices
# (the source prints the template only): maxima at the unit points, mild
# anisotropy, small trigonometric perturbation.
_TRI_C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_TRI_ALPHA = np.array(
    [[1.0, 1.15, 1.1], [1.1, 1.0, 1.15], [1.15, 1.1, 1.0]]
)
_TRI_BETA2, _TRI_GAMMA2 = 0.05, 2.0
_TRI_BETA3, _TRI_GAMMA3 = 0.05, 2.5
# extra bump for the nonconvex variant
_TRI_C4 = np.array([1.1, 1.1, 0.2])
_TRI_ALPHA4 = np.array([6.0, 6.0, 6.0])
_TRI_BETA1, _TRI_GAMMA1 = 3.0, 1.0


_TRI_HESS = np.array([np.diag(-2.0 * a) for a in _TRI_ALPHA])
_TRI_DSUM = np.array([1.0, 1.0, 0.0])
_TRI_DDIFF = np.array([1.0, -1.0, 0.0])


def _tri_quadratic_parts_at(X):
    """Values, gradients and Hessians of the three quadratics at every row of X:
    (N, 3), (N, 3, 3), (N, 3, 3, 3)."""
    D = X[:, None, :] - _TRI_C  # row j: x - c_j
    T = _TRI_ALPHA * D * D
    f = -(T[..., 0] + T[..., 1] + T[..., 2])
    return f, -2.0 * _TRI_ALPHA * D, _tiled(_TRI_HESS, len(X))


def _tri_trig_parts_at(X):
    """Values, gradients and Hessians of the perturbations of objectives 2 and
    3 at every row of X: (N,), (N, 3) and (N, 3, 3) each."""
    k2 = np.pi / _TRI_GAMMA2
    k3 = np.pi / _TRI_GAMMA3
    s = X[:, 0] + X[:, 1]
    t = X[:, 0] - X[:, 1]
    v2 = _TRI_BETA2 * np.sin(k2 * s)
    g2 = (_TRI_BETA2 * k2 * np.cos(k2 * s))[:, None] * _TRI_DSUM
    h2 = (-_TRI_BETA2 * k2**2 * np.sin(k2 * s))[:, None, None] * np.outer(_TRI_DSUM, _TRI_DSUM)
    v3 = _TRI_BETA3 * np.cos(k3 * t)
    g3 = (-_TRI_BETA3 * k3 * np.sin(k3 * t))[:, None] * _TRI_DDIFF
    h3 = (-_TRI_BETA3 * k3**2 * np.cos(k3 * t))[:, None, None] * np.outer(
        _TRI_DDIFF, _TRI_DDIFF
    )
    return (v2, g2, h2), (v3, g3, h3)


def _tri_ev_at(X):
    f, _, _ = _tri_quadratic_parts_at(X)
    (v2, _, _), (v3, _, _) = _tri_trig_parts_at(X)
    return f + np.stack([np.zeros(len(X)), v2, v3], axis=1)


def _tri_jac_at(X):
    _, g, _ = _tri_quadratic_parts_at(X)
    (_, g2, _), (_, g3, _) = _tri_trig_parts_at(X)
    g[:, 1] += g2
    g[:, 2] += g3
    return g


def _tri_hess_at(X):
    _, _, h = _tri_quadratic_parts_at(X)
    (_, _, h2), (_, _, h3) = _tri_trig_parts_at(X)
    h[:, 1] += h2
    h[:, 2] += h3
    return h


def _make_tri_quadratic() -> VectorProblem:
    """Three concave quadratics plus a small trigonometric perturbation.

    The critical set is a stable triangle-like patch whose three corners are
    the individual maxima.
    """
    return VectorProblem(
        name="tri_quadratic",
        n=3,
        m=3,
        eval=_tri_ev_at,
        jacobian=_tri_jac_at,
        hessians=_tri_hess_at,
        domain_box=[[-1.0, 2.0]] * 3,
        description="three concave quadratics; stable triangular patch",
    )


def _make_tri_quadratic_ncv() -> VectorProblem:
    """Nonconvex variant: a sharp exponential bump adds a secondary branch."""

    def _bump_at(X):
        D = X - _TRI_C4
        T = _TRI_ALPHA4 * D * D
        f4 = -(T[:, 0] + T[:, 1] + T[:, 2])
        g4 = -2.0 * _TRI_ALPHA4 * D
        h4 = np.diag(-2.0 * _TRI_ALPHA4)
        val = _TRI_BETA1 * np.exp(f4 / _TRI_GAMMA1)
        grad = val[:, None] * g4 / _TRI_GAMMA1
        outer = g4[:, :, None] * g4[:, None, :]
        hess = val[:, None, None] * (outer / _TRI_GAMMA1**2 + h4 / _TRI_GAMMA1)
        return val, grad, hess

    def ev_at(X):
        out = _tri_ev_at(X)
        out[:, 0] += _bump_at(X)[0]
        return out

    def jac_at(X):
        out = _tri_jac_at(X)
        out[:, 0] += _bump_at(X)[1]
        return out

    def hess_at(X):
        out = _tri_hess_at(X)
        out[:, 0] += _bump_at(X)[2]
        return out

    return VectorProblem(
        name="tri_quadratic_ncv",
        n=3,
        m=3,
        eval=ev_at,
        jacobian=jac_at,
        hessians=hess_at,
        domain_box=[[-1.0, 2.0]] * 3,
        description="tri_quadratic with a secondary maximum of the first objective",
    )


def _make_sphere_proj() -> ConstrainedProblem:
    """Coordinate projections on the unit sphere: u = (x1, x2), g = (|x|^2-1)/2."""

    J = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    base = VectorProblem(
        name="sphere_proj",
        n=3,
        m=2,
        eval=lambda X: X[:, :2].copy(),
        jacobian=lambda X: _tiled(J, len(X)),
        hessians=lambda X: np.zeros((len(X), 2, 3, 3)),
        domain_box=[[-1.0, 1.0]] * 3,
        description="first two coordinates restricted to the unit sphere",
    )

    return ConstrainedProblem(
        base=base,
        # x @ x as a stack of (1, 3) @ (3, 1) products: a point's value does
        # not depend on the stack it is in
        g=lambda X: 0.5 * ((X[:, None, :] @ X[:, :, None])[:, 0] - 1.0),
        g_jacobian=lambda X: X[:, None, :].copy(),
    )


_REGISTRY: dict[str, Callable] = {
    "triv": _make_triv,
    "smale": _make_smale,
    "sms": _make_sms,
    "noncv": _make_noncv,
    "locglob": _make_locglob,
    "zdt3reg": _make_zdt3reg,
    "tri_quadratic": _make_tri_quadratic,
    "tri_quadratic_ncv": _make_tri_quadratic_ncv,
    "sphere_proj": _make_sphere_proj,
}


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def registry_get(name: str) -> VectorProblem | ConstrainedProblem:
    """Fetch a registered problem by name; raises UnknownProblem otherwise."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(registry_names())}"
        ) from None
    return factory()
