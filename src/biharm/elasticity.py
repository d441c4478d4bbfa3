"""Plane-strain elastic equilibrium on the unit disk, reconstructed from
boundary values of the two normal displacement gradients du/dx and dv/dy.

Pipeline: map the boundary gradients to boundary data for the first and
fourth components of a monogenic function Phi = (F, G), solve that
boundary problem, and read every mechanical field off the solution in
closed form:

    stress-potential second derivatives   W_xx = U1, W_yy = U1 - 2*U4,
    normal gradients    2*mu*V1 = (mu*U1 - (lam+2mu)*U4)/(lam+mu),
                        2*mu*V2 = (mu*U1 +       lam*U4)/(lam+mu),
    mixed derivative    W_xy = U3 - g0 = -Im G + y*Re F' - g0,
    shear gradients     2*mu*V3 = -W_xy - k0*Wc,  2*mu*V4 = -W_xy + k0*Wc,
    stresses            Hooke on (V1, V2) and tau_xy = -W_xy,
    displacements       2*(lam+mu)*u = P1 - (lam+2mu)/mu*P4 + (lam+mu)/mu*g0*y,
                        2*(lam+mu)*v = (lam+2mu)/mu*P2 + P3 + (lam+mu)/mu*g0*x,
                        each less its value at the basepoint,

with k0 = (lam+2mu)/(2(lam+mu)), Wc the harmonic conjugate of the
potential's Laplacian W0 = 2*Re F (gauged to vanish where Im F does), g0
the raw W_xy at the basepoint, and P1..P4 the components of the
antiderivative pair Psi = (int F, int G).  The algebra derivative is the
x-partial, so d/dx Pk = Uk; the y-partials follow from the compatibility
equations.

Gauges: W_xy is fixed to vanish at the basepoint (this pins the uniform
shear left free by the boundary data), displacements vanish at the
basepoint, and the solver normalization Im F(0) = 0 pins the rigid
rotation.  V1 and V2 are gauge-free and unique.

Gauss-Legendre path quadrature (path_integral, mixed_derivative,
displacements) computes W_xy and the displacements independently of the
closed forms; the tests use it as the cross-check.  The pipeline keeps
only the closed-loop integrals, which check that (V1, V3), (V4, V2) and
(W1_y, W2_x) are exact differentials; u and v do not enter them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .holomorphic import BoundaryFunction, DomainError, EDGE_TOL
from .monogenic import MonogenicFunction
from .schwarz import Problem14, boundary_residual, solve_14

# Marker recorded in run reports: coefficient of U4 in the V2 formula.
# The alternative variant (lam+2mu)/(lam+mu) fails the manufactured
# displacement round-trip test and the Hooke/stress-potential identities.
V2_U4_COEFFICIENT = "lambda/(lambda+mu)"

GL_NODES = 32


@dataclass(frozen=True)
class LameConstants:
    """Isotropic elastic moduli (lam, mu) plus the derived ratios."""

    lam: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.lam + self.mu > 0:
            raise ValueError("lambda + mu must be positive")

    @property
    def kappa0(self) -> float:
        return (self.lam + 2 * self.mu) / (2 * (self.lam + self.mu))

    @property
    def gamma(self) -> float:
        return (self.lam + self.mu) / self.mu


@dataclass(frozen=True)
class PolarGrid:
    """Sampling grid r x theta over the closed disk of radius r_max."""

    n_r: int = 64
    n_theta: int = 256
    r_max: float = 1.0 - 1e-6

    def __post_init__(self):
        if not (0 < self.r_max <= 1.0):
            raise ValueError("r_max must lie in (0, 1]")
        if self.n_r < 2 or self.n_theta < 4:
            raise ValueError("grid too small")

    @cached_property
    def radii(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_r)

    @cached_property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def mesh(self):
        r, th = np.meshgrid(self.radii, self.thetas, indexing="ij")
        return r, th, r * np.cos(th), r * np.sin(th)


@dataclass(frozen=True)
class FieldGrid:
    """One scalar field sampled on a polar grid."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError("values shape does not match the grid")
        object.__setattr__(self, "values", v)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# quadrature along radial-then-angular paths


def _composite_gl(n_panels: int, nodes: int = GL_NODES):
    """Gauss-Legendre nodes/weights compounded over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    ts = np.concatenate([(k + t) / n_panels for k in range(n_panels)])
    ws = np.tile(wt / n_panels, n_panels)
    return ts, ws


def _panel_counts(degree_hint: int):
    # arc panels sized so GL_NODES resolves trig degree `hint` to rounding
    arc = max(4, int(np.ceil(degree_hint / 10)))
    radial = 1 + degree_hint // 56
    return radial, arc


def path_integral(p_dx, p_dy, basepoint, x, y, degree_hint: int = 16,
                  chunk: int = 2048):
    """Integral of p_dx dx + p_dy dy from the basepoint to each target.

    The path runs radially at the basepoint's polar angle and then along
    the circular arc at the target radius (shorter direction).  Both
    callables must be vectorized over ndarray inputs.
    """
    xb, yb = float(basepoint[0]), float(basepoint[1])
    if np.hypot(xb, yb) >= 1.0:
        raise DomainError("basepoint must lie strictly inside the disk")
    xt = np.asarray(x, dtype=float)
    yt = np.asarray(y, dtype=float)
    if np.any(np.hypot(xt, yt) > 1.0 + EDGE_TOL):
        raise DomainError("integration target outside the closed disk")
    shape = xt.shape
    xt = xt.ravel()
    yt = yt.ravel()

    r0 = np.hypot(xb, yb)
    th0 = np.arctan2(yb, xb)
    r1 = np.hypot(xt, yt)
    th1 = np.arctan2(yt, xt)
    dth = np.arctan2(np.sin(th1 - th0), np.cos(th1 - th0))

    n_radial, n_arc = _panel_counts(degree_hint)
    t_r, w_r = _composite_gl(n_radial)
    t_a, w_a = _composite_gl(n_arc)

    out = np.empty_like(xt)
    for lo in range(0, len(xt), chunk):
        sl = slice(lo, lo + chunk)
        rr = r0 + np.outer(r1[sl] - r0, t_r)
        xs = rr * np.cos(th0)
        ys = rr * np.sin(th0)
        vals = p_dx(xs, ys) * np.cos(th0) + p_dy(xs, ys) * np.sin(th0)
        radial_part = (vals @ w_r) * (r1[sl] - r0)

        ang = th0 + np.outer(dth[sl], t_a)
        rads = r1[sl][:, None]
        xa = rads * np.cos(ang)
        ya = rads * np.sin(ang)
        va = -p_dx(xa, ya) * ya + p_dy(xa, ya) * xa
        arc_part = (va @ w_a) * dth[sl]

        out[sl] = radial_part + arc_part
    return out.reshape(shape) if shape else float(out[0])


def loop_integral(p_dx, p_dy, radius: float, degree_hint: int = 16) -> float:
    """Closed-loop integral around the circle of the given radius."""
    _, n_arc = _panel_counts(degree_hint)
    t_a, w_a = _composite_gl(4 * n_arc)
    ang = 2.0 * np.pi * t_a
    xa = radius * np.cos(ang)
    ya = radius * np.sin(ang)
    vals = -p_dx(xa, ya) * ya + p_dy(xa, ya) * xa
    return float((vals @ w_a) * 2.0 * np.pi)


# ---------------------------------------------------------------------------
# analytic field evaluators derived from the series pair


class _SeriesFields:
    """Vectorized closed-form evaluators for every derived field.

    All formulas follow from the component expressions of the pair
    representation; the mixed derivative uses the antiderivative
    -Im G + y*Re F' of the exact differential W1_y dx + W2_x dy, gauged to
    vanish at the basepoint, and the displacements use the components of
    the antiderivative pair (int F, int G).  The quadrature routes in
    mixed_derivative() and displacements() compute the same quantities
    independently; the test suite pins their agreement.
    """

    def __init__(self, phi: MonogenicFunction, lame: LameConstants | None,
                 basepoint=(0.0, 0.0)):
        self.phi = phi
        self.lame = lame
        self.basepoint = (float(basepoint[0]), float(basepoint[1]))
        if np.hypot(*self.basepoint) >= 1.0:
            raise DomainError("basepoint must lie strictly inside the disk")
        self.f = phi.f
        self.g = phi.g
        self.df = phi.f.differentiate()
        self.ddf = self.df.differentiate()
        self.dg = phi.g.differentiate()
        zb = complex(*self.basepoint)
        self._w11_gauge = (-self.g.evaluate_unchecked(zb).imag
                           + self.basepoint[1] * self.df.evaluate_unchecked(zb).real)

    # component fields -----------------------------------------------------
    def components(self, x, y):
        return self.phi.components(x, y, check=False)

    def u1(self, x, y):
        return self.components(x, y)[0]

    def u4(self, x, y):
        return self.components(x, y)[3]

    # potential second derivatives ------------------------------------------
    def w1(self, x, y):
        return self.u1(x, y)

    def w2(self, x, y):
        c = self.components(x, y)
        return c[0] - 2.0 * c[3]

    def w0(self, x, y):
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        return 2.0 * self.f.evaluate_unchecked(z).real

    def w0_conjugate(self, x, y):
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        return 2.0 * self.f.evaluate_unchecked(z).imag

    def w1_y(self, x, y):
        """d(W_xx)/dy, analytic."""
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        return (-self.dg.evaluate_unchecked(z).imag
                + np.asarray(y, dtype=float) * self.ddf.evaluate_unchecked(z).real)

    def w2_x(self, x, y):
        """d(W_yy)/dx, analytic."""
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        return (self.df.evaluate_unchecked(z).real
                - self.dg.evaluate_unchecked(z).real
                - np.asarray(y, dtype=float) * self.ddf.evaluate_unchecked(z).imag)

    def w11(self, x, y):
        """Mixed second derivative, closed form with basepoint gauge."""
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        raw = (-self.g.evaluate_unchecked(z).imag
               + np.asarray(y, dtype=float) * self.df.evaluate_unchecked(z).real)
        return raw - self._w11_gauge

    # displacement gradients --------------------------------------------------
    def v1(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        c = self.components(x, y)
        return (mu * c[0] - (la + 2 * mu) * c[3]) / (2 * mu * (la + mu))

    def v2(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        c = self.components(x, y)
        return (mu * c[0] + la * c[3]) / (2 * mu * (la + mu))

    def v3(self, x, y):
        mu, k0 = self.lame.mu, self.lame.kappa0
        return (-self.w11(x, y) - k0 * self.w0_conjugate(x, y)) / (2 * mu)

    def v4(self, x, y):
        mu, k0 = self.lame.mu, self.lame.kappa0
        return (-self.w11(x, y) + k0 * self.w0_conjugate(x, y)) / (2 * mu)

    # stresses ----------------------------------------------------------------
    def sigma_x(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        return (la + 2 * mu) * self.v1(x, y) + la * self.v2(x, y)

    def sigma_y(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        return la * self.v1(x, y) + (la + 2 * mu) * self.v2(x, y)

    def tau_xy(self, x, y):
        return -self.w11(x, y)

    # displacements -------------------------------------------------------------
    @cached_property
    def _antiderivative(self) -> MonogenicFunction:
        return MonogenicFunction(self.f.integrate(), self.g.integrate())

    def _u_raw(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        p = self._antiderivative.components(x, y, check=False)
        return (p[0] / (2 * (la + mu))
                - (la + 2 * mu) * p[3] / (2 * mu * (la + mu))
                + self._w11_gauge * np.asarray(y, dtype=float) / (2 * mu))

    def _v_raw(self, x, y):
        la, mu = self.lame.lam, self.lame.mu
        p = self._antiderivative.components(x, y, check=False)
        return ((la + 2 * mu) * p[1] / (2 * mu * (la + mu))
                + p[2] / (2 * (la + mu))
                + self._w11_gauge * np.asarray(x, dtype=float) / (2 * mu))

    def u(self, x, y):
        """x-displacement, closed form, vanishing at the basepoint."""
        return self._u_raw(x, y) - self._u_raw(*self.basepoint)

    def v(self, x, y):
        """y-displacement, closed form, vanishing at the basepoint."""
        return self._v_raw(x, y) - self._v_raw(*self.basepoint)


class AiryDerivatives:
    """Second derivatives of the stress potential generated by a monogenic
    function: W_xx, W_yy, their sum W0, its harmonic conjugate, and the
    mixed derivative W_xy recovered by line integration from the basepoint.
    """

    def __init__(self, phi: MonogenicFunction, basepoint=(0.0, 0.0)):
        self._fields = _SeriesFields(phi, None, basepoint)
        self.phi = phi
        self.basepoint = self._fields.basepoint
        self._w11_quad = mixed_derivative(phi, basepoint)
        self.w1 = self._fields.w1
        self.w2 = self._fields.w2
        self.w0 = self._fields.w0
        self.w0_conjugate = self._fields.w0_conjugate

    def w11(self, x, y):
        return self._w11_quad(x, y)


# ---------------------------------------------------------------------------
# operations


def boundary_map(g1: BoundaryFunction, g2: BoundaryFunction,
                 lame: LameConstants) -> Problem14:
    """Boundary data of the component problem equivalent to prescribing
    the normal gradients: u1 = lam*g1 + (lam+2mu)*g2, u4 = mu*(g2 - g1)."""
    la, mu = lame.lam, lame.mu
    u1 = la * g1 + (la + 2 * mu) * g2
    u4 = (-mu) * g1 + mu * g2
    n = max(u1.degree, u4.degree, 1)
    return Problem14(u1, u4, n)


def airy_boundary(g1: BoundaryFunction, g2: BoundaryFunction,
                  lame: LameConstants) -> tuple[BoundaryFunction, BoundaryFunction]:
    """Boundary traces of W_xx and W_yy implied by the gradient data."""
    la, mu = lame.lam, lame.mu
    w_xx = la * g1 + (la + 2 * mu) * g2
    w_yy = (la + 2 * mu) * g1 + la * g2
    return w_xx, w_yy


def airy_second_derivatives(phi: MonogenicFunction,
                            basepoint=(0.0, 0.0)) -> AiryDerivatives:
    return AiryDerivatives(phi, basepoint)


def mixed_derivative(phi: MonogenicFunction, basepoint=(0.0, 0.0)):
    """W_xy as a vectorized field, by Gauss-Legendre line integration of
    the exact differential W1_y dx + W2_x dy along radial-then-angular
    paths; zero at the basepoint."""
    fields = _SeriesFields(phi, None, basepoint)
    hint = max(phi.degree + 1, 4)

    def w11(x, y):
        return path_integral(fields.w1_y, fields.w2_x, fields.basepoint,
                             x, y, degree_hint=hint)

    return w11


def gradients(phi: MonogenicFunction, lame: LameConstants):
    """The unique normal displacement gradients (V1, V2) as fields."""
    fields = _SeriesFields(phi, lame)
    return fields.v1, fields.v2


def shear_gradients(airy: AiryDerivatives, lame: LameConstants):
    """Cross gradients (V3, V4) = (du/dy, dv/dx) from the potential fields."""
    mu, k0 = lame.mu, lame.kappa0

    def v3(x, y):
        return (-airy.w11(x, y) - k0 * airy.w0_conjugate(x, y)) / (2 * mu)

    def v4(x, y):
        return (-airy.w11(x, y) + k0 * airy.w0_conjugate(x, y)) / (2 * mu)

    return v3, v4


def stresses(phi: MonogenicFunction, lame: LameConstants, basepoint=(0.0, 0.0)):
    """Stress fields (sigma_x, sigma_y, tau_xy); the shear comes from the
    line-integrated mixed derivative."""
    fields = _SeriesFields(phi, lame, basepoint)
    w11 = mixed_derivative(phi, basepoint)

    def tau(x, y):
        return -w11(x, y)

    return fields.sigma_x, fields.sigma_y, tau


def displacements(v1, v2, v3, v4, basepoint=(0.0, 0.0), degree_hint: int = 16):
    """Displacement fields by line integration of the gradient fields,
    vanishing at the basepoint."""

    def u(x, y):
        return path_integral(v1, v3, basepoint, x, y, degree_hint=degree_hint)

    def v(x, y):
        return path_integral(v4, v2, basepoint, x, y, degree_hint=degree_hint)

    return u, v


def lame_pairs(phi: MonogenicFunction, lame: LameConstants):
    """Three displacement pairs built linearly from the components, each
    solving the displacement equilibrium system with gamma = (lam+mu)/mu."""
    gam = lame.gamma

    def comp(k):
        def field_fn(x, y, _k=k):
            return phi.components(x, y, check=False)[_k]
        return field_fn

    u1f, u2f, u3f, u4f = (comp(k) for k in range(4))

    def pair1_u(x, y):
        return (2 / gam) * u1f(x, y) - ((2 + gam) / gam) * u4f(x, y)

    def pair2_u(x, y):
        return -((2 + gam) / gam) * u2f(x, y) - (2 * (1 + gam) / gam) * u3f(x, y)

    def pair3_u(x, y):
        return -(2 / gam) * u2f(x, y) - ((2 + gam) / gam) * u3f(x, y)

    return [(pair1_u, u2f), (pair2_u, u4f), (pair3_u, u1f)]


def lame_residual(u, v, gamma: float, points, h: float = 1e-3) -> float:
    """Max finite-difference residual of the two displacement equilibrium
    equations Laplace(u) + gamma*theta_x and Laplace(v) + gamma*theta_y."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.hypot(x, y) > 1.0 - 2.0 * h):
        raise DomainError("stencil points must stay 2h inside the boundary")

    def second_xx(f):
        return (f(x + h, y) - 2.0 * f(x, y) + f(x - h, y)) / h ** 2

    def second_yy(f):
        return (f(x, y + h) - 2.0 * f(x, y) + f(x, y - h)) / h ** 2

    def cross(f):
        return (f(x + h, y + h) - f(x + h, y - h)
                - f(x - h, y + h) + f(x - h, y - h)) / (4.0 * h ** 2)

    u_xx, u_yy, u_xy = second_xx(u), second_yy(u), cross(u)
    v_xx, v_yy, v_xy = second_xx(v), second_yy(v), cross(v)
    eq1 = u_xx + u_yy + gamma * (u_xx + v_xy)
    eq2 = v_xx + v_yy + gamma * (u_xy + v_yy)
    return float(max(np.max(np.abs(eq1)), np.max(np.abs(eq2))))


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class ElasticState:
    """All reconstructed fields on a grid plus the verification residuals."""

    grid: PolarGrid
    basepoint: tuple[float, float]
    lame: LameConstants
    phi: MonogenicFunction
    u1: FieldGrid
    u2: FieldGrid
    u3: FieldGrid
    u4: FieldGrid
    v1: FieldGrid
    v2: FieldGrid
    v3: FieldGrid
    v4: FieldGrid
    sigma_x: FieldGrid
    sigma_y: FieldGrid
    tau_xy: FieldGrid
    u: FieldGrid
    v: FieldGrid
    residuals: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    kernel_note: str = ""

    def field_grids(self) -> dict[str, FieldGrid]:
        names = ("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4",
                 "sigma_x", "sigma_y", "tau_xy", "u", "v")
        return {name: getattr(self, name) for name in names}


def _residual_points(grid: PolarGrid, r_cap: float, max_points: int = 240):
    r, th, x, y = grid.mesh
    mask = (r > 0.05) & (r <= r_cap)
    xs, ys = x[mask], y[mask]
    stride = max(1, len(xs) // max_points)
    return np.column_stack([xs[::stride], ys[::stride]])


def solve_pipeline(g1: BoundaryFunction, g2: BoundaryFunction,
                   lame: LameConstants, grid: PolarGrid | None = None,
                   basepoint=(0.0, 0.0)) -> ElasticState:
    """Full reconstruction: boundary mapping, component solve, gradients,
    stresses, displacements, and the physical-consistency residual report.

    Every field is evaluated in closed form from the series pair; no path
    quadrature runs here.
    """
    grid = grid or PolarGrid()
    bp = (float(basepoint[0]), float(basepoint[1]))
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    problem = boundary_map(g1, g2, lame)
    phi = solve_14(problem)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fields = _SeriesFields(phi, lame, bp)
    _, _, x, y = grid.mesh

    comp = phi.components(x, y)
    sample = lambda arr: FieldGrid(grid, arr)
    u1g, u2g, u3g, u4g = (sample(c) for c in comp)
    v1g = sample(fields.v1(x, y))
    v2g = sample(fields.v2(x, y))
    v3g = sample(fields.v3(x, y))
    v4g = sample(fields.v4(x, y))
    sxg = sample(fields.sigma_x(x, y))
    syg = sample(fields.sigma_y(x, y))
    txyg = sample(fields.tau_xy(x, y))
    timings["fields"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ug = sample(fields.u(x, y))
    vg = sample(fields.v(x, y))
    timings["displacements"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    residuals = {}
    residuals["boundary"] = boundary_residual(phi, problem)

    # interior closure checks
    stress_scale = max(1.0, sxg.max_abs(), syg.max_abs(), txyg.max_abs())
    hooke_shear = np.max(np.abs(txyg.values
                                - lame.mu * (v3g.values + v4g.values)))
    airy_sx = np.max(np.abs(sxg.values - fields.w2(x, y)))
    airy_sy = np.max(np.abs(syg.values - fields.w1(x, y)))
    residuals["hooke"] = float(max(hooke_shear, airy_sx, airy_sy))

    pts = _residual_points(grid, r_cap=0.9)
    h_eq = 1e-5
    px, py = pts[:, 0], pts[:, 1]

    def ddx(f):
        return (f(px + h_eq, py) - f(px - h_eq, py)) / (2 * h_eq)

    def ddy(f):
        return (f(px, py + h_eq) - f(px, py - h_eq)) / (2 * h_eq)

    eq1 = ddx(fields.sigma_x) + ddy(fields.tau_xy)
    eq2 = ddx(fields.tau_xy) + ddy(fields.sigma_y)
    residuals["equilibrium"] = float(max(np.max(np.abs(eq1)),
                                         np.max(np.abs(eq2))) / stress_scale)

    lame_pts = _residual_points(grid, r_cap=0.85, max_points=80)
    residuals["lame"] = lame_residual(fields.u, fields.v, lame.gamma, lame_pts)

    # the loop integrals check that the written gradient fields are exact
    # differentials (strain compatibility); u and v come from the
    # antiderivative pair, not from these fields, so this does not test
    # grad u = (V1, V3) or grad v = (V4, V2): the test suite pins that
    hint = max(phi.degree + 1, 4)
    loops = []
    for radius in (0.35, 0.7):
        loops.append(abs(loop_integral(fields.w1_y, fields.w2_x, radius, hint)))
        loops.append(abs(loop_integral(fields.v1, fields.v3, radius, hint)))
        loops.append(abs(loop_integral(fields.v4, fields.v2, radius, hint)))
    residuals["loop"] = float(max(loops))
    timings["residuals"] = time.perf_counter() - t0

    note = ("component solution unique up to the two constants with "
            "vanishing first/fourth components; normalization Im F(0) = "
            "Im G(0) = 0 was applied and does not affect V1, V2, stresses, "
            "or displacements up to the fixed gauges")

    return ElasticState(grid=grid, basepoint=bp, lame=lame, phi=phi,
                        u1=u1g, u2=u2g, u3=u3g, u4=u4g,
                        v1=v1g, v2=v2g, v3=v3g, v4=v4g,
                        sigma_x=sxg, sigma_y=syg, tau_xy=txyg,
                        u=ug, v=vg, residuals=residuals, timings=timings,
                        kernel_note=note)
