"""Bounded trust-region-reflective least squares for the RB/PB decay fit.

A numpy port of the path that ``scipy.optimize.curve_fit`` takes for
:func:`fibanyon.benchmark_suite.fit_decay`: trust-region-reflective
iterations (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)) with a
forward-difference Jacobian, Coleman-Li scaling and Moré's SVD solution of
the trust-region subproblem (Moré, Lecture Notes in Mathematics 630 (1977)),
reduced to the model ``A + B r^e`` in the box :data:`LOWER`, :data:`UPPER`
with linear loss, unit variable scale and ``ftol = xtol = gtol = 1e-8``.

It performs scipy's floating-point operations in scipy's order, so with the
same SVD it returns scipy's parameters bit for bit; moving every recorded
rb-pb mean up one ulp moves 104 of their 128 fits by over 1e-12, the worst
by 7.5e-9.  Sums, products, quotients, ``sqrt`` and comparisons round alike
on floats and arrays, so the bookkeeping on the three coordinates runs on
Python floats.  What rounds by library stays a numpy call on scipy's
operands: the SVD; every dot, matrix-vector product and norm
(``sqrt(x.dot(x))``, as ``numpy.linalg.norm``), since OpenBLAS's ``ddot`` of
two 3-vectors differs from a sequential sum in 6,689 of 20,000 normal draws
on an AVX-512 machine; and every power, since numpy's differs from
``math.pow`` in 117,001 of 2.8M ``r**e`` on the grids.  An array's
``x**0.5`` and ``x**2`` are numpy's ``sqrt`` and ``x*x``, a scalar's are
``pow``, so each keeps the kind of operand scipy gives it.

The SVD is ``numpy.linalg.svd(J, full_matrices=False)``'s own: the fit calls
the LAPACK gufunc under that wrapper (``_umath_linalg.svd_s``, ``svd_n_s`` on
numpy 1.24-1.26) directly, which returns the wrapper's bits in about 60% of
its time on the 10x3 augmented Jacobian, and raises ``LinAlgError`` on a NaN
singular value (:func:`_svd`).
"""

from __future__ import annotations

from math import copysign, inf, isfinite, isnan, nextafter, sqrt
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

try:  # lstsq: numpy.linalg.lstsq's gufunc, for the initial guess of benchmark_suite.fit_decay
    from numpy.linalg._umath_linalg import lstsq, svd_s as _svd_gufunc
except ImportError:  # numpy 1.24-1.26 names them by the shorter side
    from numpy.linalg._umath_linalg import lstsq_n as lstsq, svd_n_s as _svd_gufunc

LOWER = (-1.0, -2.0, 1e-9)
UPPER = (1.0, 2.0, 1.0)
TOL = 1e-8
"""``ftol``, ``xtol`` and ``gtol`` alike."""
MAX_EVALUATIONS = 20_000
"""Residual evaluations the iterations may spend; Jacobians are not counted."""

_EPS = float(np.finfo(float).eps)
_REL_STEP = _EPS**0.5  # relative forward-difference step
_BOUNDS = tuple(zip(LOWER, UPPER))
_INSIDE = tuple((nextafter(low, high), nextafter(high, low)) for low, high in _BOUNDS)
"""Per coordinate, the nearest floats inside its bounds."""


def _norm(x: np.ndarray) -> float:
    return sqrt(x.dot(x))


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``numpy.linalg.svd(a, full_matrices=False)`` of a tall float64 matrix,
    bit for bit: the LAPACK gufunc that the wrapper calls, without its checks
    and ``errstate``.  A NaN singular value raises ``LinAlgError``.  The
    wrapper raises it where LAPACK fails or ``a`` holds NaN (the bare gufunc
    then also warns), and returns NaN where ``a`` holds inf, on which scipy's
    SVD, the one ``curve_fit`` calls, raises."""
    u, s, vt = _svd_gufunc(a)
    if any(map(isnan, s.tolist())):
        raise LinAlgError("SVD did not converge")
    return u, s, vt


def least_squares(exponent: np.ndarray, y: np.ndarray,
                  x0: Sequence[float]) -> tuple[tuple[float, float, float], np.ndarray]:
    """Minimise ``|A + B r^exponent - y|^2 / 2`` over the box, starting
    from ``x0 = (A, B, r)``; returns the optimum and its residuals.

    ``x0`` must lie at least 1e-10 inside the box, where scipy's start leaves
    it unchanged, and the residuals must be finite there.  Raises
    ``RuntimeError`` when :data:`MAX_EVALUATIONS` evaluations pass without
    convergence.
    """
    x = tuple(float(xi) for xi in x0)
    m = y.size
    power, f = _residuals(x, exponent, y)
    cost = 0.5 * f.dot(f)
    columns = np.empty((3, m))  # the Jacobian's transpose, row-major as in scipy
    jac_augmented, f_augmented = np.zeros((m + 3, 3)), np.zeros(m + 3)
    jac_h, diagonal = jac_augmented[:m], [(m + i, i) for i in range(3)]
    nfev, alpha, delta = 1, 0.0, None  # alpha: the Levenberg-Marquardt parameter
    while True:
        _jacobian(x, power, f, exponent, y, columns)
        g = columns.dot(f).tolist()
        g_norm, d, diag_h, g_h = _scaling(x, g)
        if delta is None:
            delta = _norm(np.array([xi / di for xi, di in zip(x, d)])) or 1.0
        if g_norm < TOL:
            return x, f
        if nfev == MAX_EVALUATIONS:
            raise RuntimeError(f"{MAX_EVALUATIONS} function evaluations spent")
        f_augmented[:m] = f
        np.multiply(columns.T, d, out=jac_h)
        for hi, index in zip(diag_h, diagonal):
            jac_augmented[index] = sqrt(hi)
        u, s, vt = _svd(jac_augmented)
        uf = u.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # step-back ratio from the bounds
        g_h, diag_h = np.array(g_h), np.array(diag_h)
        s_first, _, s_last = s.tolist()
        full_rank = m >= 3 and s_last > _EPS * m * s_first
        gauss_newton = None  # the Gauss-Newton step, the same in every trial
        if full_rank:
            gauss_newton = -vt.T.dot(uf / s)
            gauss_newton_norm = _norm(gauss_newton)
        actual_reduction, converged = -1, False
        while actual_reduction <= 0 and nfev < MAX_EVALUATIONS:
            if gauss_newton is not None and gauss_newton_norm <= delta:
                p_h, alpha = gauss_newton, 0.0
            else:
                p_h, alpha = _regularised_step(uf, s, vt, delta, alpha, full_rank)
            step, step_h, predicted_reduction = _select_step(
                x, jac_h, diag_h, g_h, p_h, d, delta, theta)
            x_new = _strictly_feasible(x, step)
            power_new, f_new = _residuals(x_new, exponent, y)
            nfev += 1
            step_h_norm = gauss_newton_norm if step_h is gauss_newton else _norm(step_h)
            cost_new = 0.5 * f_new.dot(f_new)
            if not isfinite(cost_new) and not np.isfinite(f_new).all():
                delta = 0.25 * step_h_norm
                continue
            actual_reduction = cost - cost_new
            ratio = (actual_reduction / predicted_reduction if predicted_reduction > 0
                     else 1 if predicted_reduction == actual_reduction == 0 else 0)
            # scipy's ftol test, else its xtol test (gtol runs per iteration)
            converged = (actual_reduction < TOL * cost and ratio > 0.25
                         or _xtol_satisfied(x, step))
            if converged:
                break
            delta_new = (0.25 * step_h_norm if ratio < 0.25 else 2.0 * delta
                         if ratio > 0.75 and step_h_norm > 0.95 * delta else delta)
            alpha *= delta / delta_new
            delta = delta_new

        if actual_reduction > 0:
            x, power, f, cost = x_new, power_new, f_new, cost_new
        if converged:
            return x, f


def _residuals(x, exponent: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``r^exponent`` and the residuals ``A + B r^exponent - y``."""
    power = np.power(x[2], exponent)
    f = power * x[1]
    f += x[0]
    f -= y
    return power, f


def _jacobian(x, power, f, exponent, y, out: np.ndarray) -> None:
    """Write the Jacobian's transpose into ``out``: forward differences with
    step ``h = sqrt(eps) sign(x) max(1, |x|)``, reversed where ``x + h``
    leaves the box, divided by ``(x + h) - x``; the rows of A and B reuse
    ``r^exponent``.  (scipy also cuts a step that fits on neither side of
    ``x``; here steps are below 3e-8 and the box is wider.)  Each row's
    factor, offset and step are full rows: cheaper than broadcast columns."""
    shifted = []
    for xi, (low, high) in zip(x, _BOUNDS):
        h = _REL_STEP * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
        shifted.append(xi + h if low <= xi + h <= high else xi - h)
    (a, b, r), (a_h, b_h, r_h) = x, shifted
    scale, offset, dx = np.array([b, b_h, b, a_h, a, a, a_h - a, b_h - b, r_h - r]).repeat(
        y.size).reshape(3, 3, y.size)
    out[:2] = power
    out[2] = np.power(r_h, exponent)
    out *= scale
    out += offset
    out -= y
    out -= f
    out /= dx


def _scaling(x, g) -> tuple[float, list[float], list[float], list[float]]:
    """Coleman-Li scaling: ``|g v|_inf``, ``d = sqrt(v)``, ``diag_h = g dv``
    and ``g_h = d g``, where ``v`` is the distance to the bound the
    anti-gradient points at (else 1) and ``dv`` its derivative."""
    scaled, d, diag_h, g_h = [], [], [], []
    for xi, gi, (low, high) in zip(x, g, _BOUNDS):
        vi, dvi = (high - xi, -1.0) if gi < 0 else (xi - low, 1.0) if gi > 0 else (1.0, 0.0)
        scaled.append(abs(gi * vi))
        d.append(sqrt(vi))
        diag_h.append(gi * dvi)
        g_h.append(d[-1] * gi)
    return max(scaled), d, diag_h, g_h


def _regularised_step(uf: np.ndarray, s: np.ndarray, vt: np.ndarray, delta: float,
                      alpha: float, full_rank: bool) -> tuple[np.ndarray, float]:
    """Moré's trust-region step from the SVD ``J = U diag(s) V^T`` with
    ``uf = U^T f`` when the Gauss-Newton step does not fit: the regularised
    step whose norm is ``delta`` to 1%, with its Levenberg-Marquardt
    parameter (``alpha`` is the previous one)."""
    def phi_and_derivative(alpha):
        denom = s_squared + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -(suf_squared / denom**3).sum() / p_norm

    suf = s * uf
    s_squared, suf_squared = s**2, suf**2
    alpha_upper, alpha_lower = _norm(suf) / delta, 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
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
        if abs(phi) < 0.01 * delta:
            break
    p = -vt.T.dot(suf / (s_squared + alpha))
    p *= delta / _norm(p)  # onto the boundary, so later steps stay inside
    return p, alpha


def _select_step(x, jac_h, diag_h, g_h, p_h, d, delta, theta):
    """The best of the trust-region step cut back inside the box, its
    reflection off the first bound it hits, and the cut anti-gradient step:
    the step, the step in scaled variables and the predicted reduction."""
    p_h_list = p_h.tolist()
    p, inside = [], True
    for xi, di, pi, (low, high) in zip(x, d, p_h_list, _BOUNDS):
        p.append(di * pi)
        inside = inside and low <= xi + di * pi <= high
    if inside:
        return p, p_h, -_quadratic(jac_h, g_h, p_h, diag_h)

    p_stride, hits = _step_to_bound(x, p)
    r_h = [-pi if hit else pi for pi, hit in zip(p_h_list, hits)]
    r = [di * ri for di, ri in zip(d, r_h)]
    p, p_h_list = [pi * p_stride for pi in p], [pi * p_stride for pi in p_h_list]
    p_h = np.array(p_h_list)

    to_tr = _to_trust_boundary(p_h, np.array(r_h), delta)
    to_bound, _ = _step_to_bound([xi + pi for xi, pi in zip(x, p)], r)
    r_stride = min(to_bound, to_tr)
    r_stride_l, r_stride_u, r_value = 0, -1, inf
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    if r_stride_l <= r_stride_u:
        a, b, c = _line_quadratic(jac_h, g_h, np.array(r_h), diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c)
        r_h = [ri * r_stride + pi for ri, pi in zip(r_h, p_h_list)]
        r = [ri * di for ri, di in zip(r_h, d)]

    p = [pi * theta for pi in p]
    p_h = np.array([pi * theta for pi in p_h_list])
    p_value = _quadratic(jac_h, g_h, p_h, diag_h)

    ag_h = [-gi for gi in g_h.tolist()]
    ag = [di * ai for di, ai in zip(d, ag_h)]
    to_tr = delta / _norm(np.array(ag_h))
    to_bound, _ = _step_to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _line_quadratic(jac_h, g_h, np.array(ag_h), diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride, 0)

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, np.array(r_h), -r_value
    return [ai * ag_stride for ai in ag], np.array([ai * ag_stride for ai in ag_h]), -ag_value


def _to_trust_boundary(x, s, delta):
    """The positive root t of ``|x + s t| = delta`` for ``x`` inside."""
    a = s.dot(s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = x.dot(s)
    c = x.dot(x) - delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + copysign(d, b))  # avoids cancellation
    return max(q / a, c / q)


def _quadratic(jac, g, s, diag):
    """The model ``s^T (J^T J + diag) s / 2 + g^T s`` at one step, from the
    same dot products as scipy's (each symmetric in its arguments)."""
    a, b = _line_quadratic(jac, g, s, diag)
    return a + b


def _line_quadratic(jac, g, s, diag, s0=None):
    """Coefficients ``a, b`` (and ``c`` given ``s0``) of ``a t^2 + b t + c``,
    the model ``s^T (J^T J + diag) s / 2 + g^T s`` at ``s0 + s t``."""
    v = jac.dot(s)
    a = v.dot(v)
    a += (s * diag).dot(s)
    a *= 0.5
    b = g.dot(s)
    if s0 is None:
        return a, b
    u = jac.dot(s0)
    b += u.dot(v)
    c = 0.5 * u.dot(u) + g.dot(s0)
    b += (s0 * diag).dot(s)
    c += 0.5 * (s0 * diag).dot(s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c):
    """Minimum point and value of ``a t^2 + b t + c`` on ``[lb, ub]`` (the first, as np.argmin)."""
    t = [lb, ub]
    if a != 0 and lb < -0.5 * b / a < ub:
        t.append(-0.5 * b / a)
    values = [ti * (a * ti + b) + c for ti in t]
    i = values.index(min(values))
    return t[i], values[i]


def _step_to_bound(x, s) -> tuple[float, list[bool]]:
    """Smallest ``t >= 0`` putting ``x + s t`` on the box boundary, and per
    variable whether it reaches a bound there."""
    steps = [max((low - xi) / si, (high - xi) / si) if si != 0 else inf
             for xi, si, (low, high) in zip(x, s, _BOUNDS)]
    min_step = min(steps)
    return min_step, [si != 0 and step == min_step for si, step in zip(s, steps)]


def _strictly_feasible(x, step) -> tuple[float, float, float]:
    """``x + step`` with every coordinate on or beyond a bound moved to the
    nearest float inside it."""
    x_new = []
    for xi, si, (low, high), (low_inside, high_inside) in zip(x, step, _BOUNDS, _INSIDE):
        xi += si
        x_new.append(low_inside if xi <= low else high_inside if xi >= high else xi)
    return tuple(x_new)


def _xtol_satisfied(x, step) -> bool:
    """scipy's ``|step| < xtol (xtol + |x|)``, with the norms (dot products)
    taken only when bounds that hold to a few ulps whatever their rounding,
    ``|step| >= max |step_i|`` and ``|x| <= sum |x_i|``, cannot decide it."""
    if max(map(abs, step)) > 1.000001 * TOL * (TOL + sum(map(abs, x))):
        return False
    return _norm(np.array(step)) < TOL * (TOL + _norm(np.array(x)))
