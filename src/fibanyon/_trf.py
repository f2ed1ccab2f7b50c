"""Bounded trust-region-reflective least squares for the RB/PB decay fit.

A numpy port of the path that ``scipy.optimize.curve_fit`` takes for
:func:`fibanyon.benchmark_suite.fit_decay`: trust-region-reflective
iterations (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)) with a
forward-difference Jacobian, Coleman-Li scaling and Moré's SVD solution of
the trust-region subproblem (Moré, Lecture Notes in Mathematics 630 (1977)).
It is reduced to the one case the fit needs: three parameters in the fixed
box :data:`LOWER`, :data:`UPPER`, linear loss, unit variable scale and
``ftol = xtol = gtol = 1e-8``.  Every floating-point operation follows
scipy's order, so with the same SVD it returns scipy's parameters bit for
bit.  Bookkeeping on the three coordinates (the scaling vector, the
difference steps, the box tests) runs as scalar Python, and vector norms as
``sqrt(x.dot(x))``, which is what ``numpy.linalg.norm`` computes for a real
vector: the float operations are scipy's, only the interpreter work is less.
"""

from __future__ import annotations

from math import copysign, sqrt
from typing import Callable

import numpy as np
from numpy.linalg import svd

LOWER = np.array([-1.0, -2.0, 1e-9])
UPPER = np.array([1.0, 2.0, 1.0])
TOL = 1e-8
"""``ftol``, ``xtol`` and ``gtol`` alike."""
MAX_EVALUATIONS = 20_000
"""Residual evaluations the iterations may spend; Jacobians are not counted."""

_EPS = np.finfo(float).eps
_REL_STEP = float(_EPS**0.5)  # relative forward-difference step
_BOUNDS = tuple(zip(LOWER.tolist(), UPPER.tolist()))
_INSIDE = tuple(zip(np.nextafter(LOWER, UPPER).tolist(), np.nextafter(UPPER, LOWER).tolist()))
"""Per coordinate, the nearest floats inside its bounds."""


def _norm(x: np.ndarray) -> float:
    return sqrt(x.dot(x))


def least_squares(fun: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> np.ndarray:
    """Minimise ``|fun(x)|^2 / 2`` over the box, starting from ``x0``.

    ``x0`` must lie at least 1e-10 inside the box, where scipy's start leaves
    it unchanged.  ``fun`` must be finite at ``x0``.  Raises ``RuntimeError``
    when :data:`MAX_EVALUATIONS` evaluations pass without convergence.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    jac = _jacobian(fun, x, f)
    m = f.size
    cost = 0.5 * np.dot(f, f)
    g = jac.T.dot(f)
    v, _ = _scaling(x, g)
    delta = _norm(x / v**0.5)
    if delta == 0:
        delta = 1.0
    f_augmented = np.zeros(m + 3)
    jac_augmented = np.zeros((m + 3, 3))
    diagonal = (np.arange(m, m + 3), np.arange(3))
    nfev = 1
    alpha = 0.0  # Levenberg-Marquardt parameter
    while True:
        v, dv = _scaling(x, g)
        g_norm = np.abs(g * v).max()
        if g_norm < TOL:
            return x
        if nfev == MAX_EVALUATIONS:
            raise RuntimeError(f"{MAX_EVALUATIONS} function evaluations spent")
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        jac_augmented[:m] = jac * d
        jac_h = jac_augmented[:m]
        jac_augmented[diagonal] = diag_h**0.5
        u, s, vt = svd(jac_augmented, full_matrices=False)
        uf = u.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # step-back ratio from the bounds

        actual_reduction = -1
        converged = False
        while actual_reduction <= 0 and nfev < MAX_EVALUATIONS:
            p_h, alpha = _solve_trust_region(m, uf, s, vt.T, delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, jac_h, diag_h, g_h, d * p_h, p_h, d, delta, theta)
            x_new = _strictly_feasible(x + step)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            delta_new, ratio = _update_radius(delta, actual_reduction, predicted_reduction,
                                              step_h_norm, step_h_norm > 0.95 * delta)
            converged = _terminates(actual_reduction, cost, _norm(step), _norm(x), ratio)
            if converged:
                break
            alpha *= delta / delta_new
            delta = delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if converged:
                return x
            jac = _jacobian(fun, x, f)
            g = jac.T.dot(f)
        elif converged:
            return x


def _jacobian(fun, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Forward differences with step ``h = sqrt(eps) sign(x) max(1, |x|)``,
    reversed where ``x + h`` leaves the box; each column is divided by
    ``(x + h) - x``.  scipy also cuts a step that fits on neither side of
    ``x``, which never happens here: every step is below 3e-8 and the box is
    at least 1 - 1e-9 wide.  The ``(m, 3)`` result is the transpose of a
    row-major ``(3, m)`` array, as in scipy."""
    columns = np.empty((3, f.size))
    for i, (xi, (low, high)) in enumerate(zip(x.tolist(), _BOUNDS)):
        h = _REL_STEP * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
        if not low <= xi + h <= high:
            h = -h
        shifted = xi + h
        x1 = x.copy()
        x1[i] = shifted
        columns[i] = (fun(x1) - f) / (shifted - xi)
    return columns.T


def _scaling(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coleman-Li scaling vector ``v`` (the distance to the bound the
    anti-gradient points at, else 1) and its derivative ``dv``."""
    v, dv = zip(*[(high - xi, -1.0) if gi < 0 else (xi - low, 1.0) if gi > 0 else (1.0, 0.0)
                  for xi, gi, (low, high) in zip(x.tolist(), g.tolist(), _BOUNDS)])
    return np.array(v), np.array(dv)


def _solve_trust_region(m: int, uf: np.ndarray, s: np.ndarray, v: np.ndarray,
                        delta: float, alpha: float) -> tuple[np.ndarray, float]:
    """Moré's trust-region step from the SVD ``J = U diag(s) V^T`` with
    ``uf = U^T f``: the Gauss-Newton step if it fits, else the regularised
    step whose norm is ``delta`` to 1%, with its Levenberg-Marquardt
    parameter (``alpha`` is the previous one)."""

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= 3 and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if _norm(p) <= delta:
            return p, 0.0
    alpha_upper = _norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -v.dot(suf / (s**2 + alpha))
    p *= delta / _norm(p)  # onto the boundary, so later steps stay inside
    return p, alpha


def _select_step(x, jac_h, diag_h, g_h, p, p_h, d, delta, theta):
    """The best of the trust-region step cut back inside the box, its
    reflection off the first bound it hits, and the cut anti-gradient step;
    returns the step, the step in scaled variables and the predicted
    reduction."""
    if all(low <= xi <= high for xi, (low, high) in zip((x + p).tolist(), _BOUNDS)):
        return p, p_h, -_quadratic(jac_h, g_h, p_h, diag_h)

    p_stride, hits = _step_to_bound(x, p)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    to_tr = _to_trust_boundary(p_h, r_h, delta)
    to_bound, _ = _step_to_bound(x_on_bound, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _line_quadratic(jac_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    p *= theta
    p_h *= theta
    p_value = _quadratic(jac_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _line_quadratic(jac_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride, 0)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _to_trust_boundary(x, s, delta):
    """The positive root t of ``|x + s t| = delta`` for ``x`` inside."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + copysign(d, b))  # avoids cancellation
    return max(q / a, c / q)


def _line_quadratic(jac, g, s, diag, s0=None):
    """Coefficients ``a, b`` (and ``c`` given ``s0``) of
    ``q(t) = a t^2 + b t + c``, the model ``(s0 + s t)^T (J^T J + diag)
    (s0 + s t) / 2 + g^T (s0 + s t)`` along a line."""
    v = jac.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = jac.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c):
    """Minimum point and value of ``a t^2 + b t + c`` on ``[lb, ub]``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _quadratic(jac, g, s, diag):
    """The model ``s^T (J^T J + diag) s / 2 + g^T s`` at one step."""
    js = jac.dot(s)
    q = np.dot(js, js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _step_to_bound(x, s):
    """Smallest ``t >= 0`` putting ``x + s t`` on the box boundary, and per
    variable -1, 1 or 0 for the lower, upper or no bound reached there."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((LOWER - x)[non_zero] / s_non_zero,
                                     (UPPER - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x: np.ndarray) -> np.ndarray:
    """``x`` with every coordinate on or beyond a bound moved to the
    nearest float inside it."""
    return np.array([low_inside if xi <= low else high_inside if xi >= high else xi
                     for xi, (low, high), (low_inside, high_inside)
                     in zip(x.tolist(), _BOUNDS, _INSIDE)])


def _update_radius(delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """New trust radius and the actual-to-predicted reduction ratio."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def _terminates(actual_reduction, cost, step_norm, x_norm, ratio) -> bool:
    """scipy's ``ftol`` or ``xtol`` test (the ``gtol`` test runs per
    iteration in :func:`least_squares`)."""
    ftol_satisfied = actual_reduction < TOL * cost and ratio > 0.25
    return ftol_satisfied or step_norm < TOL * (TOL + x_norm)
