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

FieldEvaluator is the one implementation of these formulas: a call at a
point set evaluates F, F', F'', G, G', int F and int G once each and
returns all thirteen fields (FIELD_NAMES) plus the integrands W1_y, W2_x
of the exact differential dW_xy.  Gauss-Legendre path quadrature
(path_integral, mixed_derivative, displacements) computes W_xy and the
displacements independently of the closed forms; the tests use it as the
cross-check.  The pipeline keeps only the closed-loop integrals, which
check that (V1, V3), (V4, V2) and (W1_y, W2_x) are exact differentials;
u and v do not enter them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .holomorphic import BoundaryFunction, DomainError, EDGE_TOL
from .monogenic import MonogenicFunction, component_values
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
# the field evaluator


FIELD_NAMES = ("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4",
               "sigma_x", "sigma_y", "tau_xy", "u", "v")


class FieldEvaluator:
    """Every field at a point set from one evaluation of the series pair.

    Built once from (phi, lame, basepoint): it differentiates and
    integrates the series and fixes the basepoint gauges.  A call at
    points (x, y) evaluates F, F', F'', G, G', int F and int G once each
    and returns a dict of arrays keyed by FIELD_NAMES plus the potential
    integrands "w1_y" = d(W_xx)/dy and "w2_x" = d(W_yy)/dx.  Without lame
    constants it returns only the entries that do not depend on them
    (u1..u4, tau_xy, w1_y, w2_x).
    """

    def __init__(self, phi: MonogenicFunction, lame: LameConstants | None = None,
                 basepoint=(0.0, 0.0)):
        self.phi = phi
        self.lame = lame
        self.basepoint = (float(basepoint[0]), float(basepoint[1]))
        if np.hypot(*self.basepoint) >= 1.0:
            raise DomainError("basepoint must lie strictly inside the disk")
        self._ddf = phi.df.differentiate()
        self._dg = phi.g.differentiate()
        self._int_f = phi.f.integrate()
        self._int_g = phi.g.integrate()
        xb, yb = (np.asarray(c) for c in self.basepoint)
        zb = xb + 1j * yb
        fb = phi.f.evaluate_unchecked(zb)
        # g0: the raw W_xy = U3 at the basepoint
        self._gauge = component_values(fb, phi.g.evaluate_unchecked(zb),
                                       phi.df.evaluate_unchecked(zb), yb)[2]
        if lame is not None:
            self._uv0 = self._raw_displacements(xb, yb, fb, zb)

    def _raw_displacements(self, x, y, fv, z):
        """u and v before the basepoint shift, from the components P1..P4
        of (int F, int G), whose F' is F itself."""
        la, mu = self.lame.lam, self.lame.mu
        p = component_values(self._int_f.evaluate_unchecked(z),
                             self._int_g.evaluate_unchecked(z), fv, y)
        u = (p[0] / (2 * (la + mu)) - (la + 2 * mu) * p[3] / (2 * mu * (la + mu))
             + self._gauge * y / (2 * mu))
        v = ((la + 2 * mu) * p[1] / (2 * mu * (la + mu)) + p[2] / (2 * (la + mu))
             + self._gauge * x / (2 * mu))
        return u, v

    def __call__(self, x, y) -> dict[str, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = x + 1j * y
        fv = self.phi.f.evaluate_unchecked(z)
        dfv = self.phi.df.evaluate_unchecked(z)
        ddfv = self._ddf.evaluate_unchecked(z)
        dgv = self._dg.evaluate_unchecked(z)
        u1, u2, u3, u4 = component_values(fv, self.phi.g.evaluate_unchecked(z), dfv, y)
        w_xy = u3 - self._gauge
        out = {"u1": u1, "u2": u2, "u3": u3, "u4": u4, "tau_xy": -w_xy,
               "w1_y": -dgv.imag + y * ddfv.real,
               "w2_x": dfv.real - dgv.real - y * ddfv.imag}
        if self.lame is None:
            return out
        la, mu, k0 = self.lame.lam, self.lame.mu, self.lame.kappa0
        v1 = (mu * u1 - (la + 2 * mu) * u4) / (2 * mu * (la + mu))
        v2 = (mu * u1 + la * u4) / (2 * mu * (la + mu))
        w0_conjugate = 2.0 * fv.imag
        u, v = self._raw_displacements(x, y, fv, z)
        out.update(v1=v1, v2=v2,
                   v3=(-w_xy - k0 * w0_conjugate) / (2 * mu),
                   v4=(-w_xy + k0 * w0_conjugate) / (2 * mu),
                   sigma_x=(la + 2 * mu) * v1 + la * v2,
                   sigma_y=la * v1 + (la + 2 * mu) * v2,
                   u=u - self._uv0[0], v=v - self._uv0[1])
        return out

    def field(self, name: str):
        """One entry as a vectorized callable (x, y) -> array."""
        return lambda x, y: self(x, y)[name]


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


def mixed_derivative(phi: MonogenicFunction, basepoint=(0.0, 0.0)):
    """W_xy as a vectorized field, by Gauss-Legendre line integration of
    the exact differential W1_y dx + W2_x dy along radial-then-angular
    paths; zero at the basepoint."""
    fields = FieldEvaluator(phi, None, basepoint)
    hint = max(phi.degree + 1, 4)

    def w11(x, y):
        return path_integral(fields.field("w1_y"), fields.field("w2_x"),
                             fields.basepoint, x, y, degree_hint=hint)

    return w11


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

    def of_components(combine):
        # one evaluation of the components per call
        return lambda x, y: combine(*phi.components(x, y, check=False))

    return [
        (of_components(lambda u1, u2, u3, u4: (2 / gam) * u1 - ((2 + gam) / gam) * u4),
         of_components(lambda u1, u2, u3, u4: u2)),
        (of_components(lambda u1, u2, u3, u4:
                       -((2 + gam) / gam) * u2 - (2 * (1 + gam) / gam) * u3),
         of_components(lambda u1, u2, u3, u4: u4)),
        (of_components(lambda u1, u2, u3, u4: -(2 / gam) * u2 - ((2 + gam) / gam) * u3),
         of_components(lambda u1, u2, u3, u4: u1)),
    ]


def lame_residual(u, v, gamma: float, points, h: float = 1e-3) -> float:
    """Max finite-difference residual of the two displacement equilibrium
    equations Laplace(u) + gamma*theta_x and Laplace(v) + gamma*theta_y."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.hypot(x, y) > 1.0 - 2.0 * h):
        raise DomainError("stencil points must stay 2h inside the boundary")

    # the nine stencil copies of the points, stacked so that u and v are
    # each called once
    offsets = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                        (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    sx, sy = x + h * offsets[:, :1], y + h * offsets[:, 1:]

    def second_derivatives(f):
        s = f(sx, sy)
        return ((s[1] - 2.0 * s[0] + s[2]) / h ** 2,
                (s[3] - 2.0 * s[0] + s[4]) / h ** 2,
                (s[5] - s[6] - s[7] + s[8]) / (4.0 * h ** 2))

    u_xx, u_yy, u_xy = second_derivatives(u)
    v_xx, v_yy, v_xy = second_derivatives(v)
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
        return {name: getattr(self, name) for name in FIELD_NAMES}


def _residual_points(grid: PolarGrid, r_cap: float, max_points: int = 240):
    r, th, x, y = grid.mesh
    mask = (r > 0.05) & (r <= r_cap)
    xs, ys = x[mask], y[mask]
    if not len(xs):
        # no grid radius in (0.05, r_cap]: use the circle of radius
        # min(r_max, r_cap) at the grid's angles instead
        radius = min(grid.r_max, r_cap)
        xs, ys = radius * np.cos(grid.thetas), radius * np.sin(grid.thetas)
    stride = max(1, len(xs) // max_points)
    return np.column_stack([xs[::stride], ys[::stride]])


def solve_pipeline(g1: BoundaryFunction, g2: BoundaryFunction,
                   lame: LameConstants, grid: PolarGrid | None = None,
                   basepoint=(0.0, 0.0)) -> ElasticState:
    """Full reconstruction: boundary mapping, component solve, one
    evaluation of every field on the grid, and the physical-consistency
    residual report.

    Every field is evaluated in closed form from the series pair; no path
    quadrature runs here.  u and v come out of the same grid pass as the
    other fields, so the "displacements" stage has no time of its own.
    """
    grid = grid or PolarGrid()
    bp = (float(basepoint[0]), float(basepoint[1]))
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    problem = boundary_map(g1, g2, lame)
    phi = solve_14(problem)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fields = FieldEvaluator(phi, lame, bp)
    _, _, x, y = grid.mesh
    values = fields(x, y)
    grids = {name: FieldGrid(grid, values[name]) for name in FIELD_NAMES}
    timings["fields"] = time.perf_counter() - t0
    timings["displacements"] = 0.0

    t0 = time.perf_counter()
    residuals = {}
    residuals["boundary"] = boundary_residual(phi, problem)

    # interior closure checks: Hooke's law for the shear, and the stresses
    # against the potential's W_yy = U1 - 2*U4 and W_xx = U1
    stress_scale = max(1.0, *(grids[name].max_abs()
                              for name in ("sigma_x", "sigma_y", "tau_xy")))
    hooke_shear = np.max(np.abs(values["tau_xy"]
                                - lame.mu * (values["v3"] + values["v4"])))
    airy_sx = np.max(np.abs(values["sigma_x"] - (values["u1"] - 2.0 * values["u4"])))
    airy_sy = np.max(np.abs(values["sigma_y"] - values["u1"]))
    residuals["hooke"] = float(max(hooke_shear, airy_sx, airy_sy))

    # central differences of the stresses: one evaluation at the four
    # shifted copies of the points
    pts = _residual_points(grid, r_cap=0.9)
    h_eq = 1e-5
    px, py = pts[:, 0], pts[:, 1]
    shifted = fields(np.stack([px + h_eq, px - h_eq, px, px]),
                     np.stack([py, py, py + h_eq, py - h_eq]))
    sx, sy, txy = shifted["sigma_x"], shifted["sigma_y"], shifted["tau_xy"]
    eq1 = (sx[0] - sx[1]) / (2 * h_eq) + (txy[2] - txy[3]) / (2 * h_eq)
    eq2 = (txy[0] - txy[1]) / (2 * h_eq) + (sy[2] - sy[3]) / (2 * h_eq)
    residuals["equilibrium"] = float(max(np.max(np.abs(eq1)),
                                         np.max(np.abs(eq2))) / stress_scale)

    lame_pts = _residual_points(grid, r_cap=0.85, max_points=80)
    residuals["lame"] = lame_residual(fields.field("u"), fields.field("v"),
                                      lame.gamma, lame_pts)

    # the loop integrals check that the written gradient fields are exact
    # differentials (strain compatibility); u and v come from the
    # antiderivative pair, not from these fields, so this does not test
    # grad u = (V1, V3) or grad v = (V4, V2): the test suite pins that
    hint = max(phi.degree + 1, 4)
    loops = [abs(loop_integral(fields.field(p_dx), fields.field(p_dy), radius, hint))
             for radius in (0.35, 0.7)
             for p_dx, p_dy in (("w1_y", "w2_x"), ("v1", "v3"), ("v4", "v2"))]
    residuals["loop"] = float(max(loops))
    timings["residuals"] = time.perf_counter() - t0

    note = ("component solution unique up to the two constants with "
            "vanishing first/fourth components; normalization Im F(0) = "
            "Im G(0) = 0 was applied and does not affect V1, V2, stresses, "
            "or displacements up to the fixed gauges")

    return ElasticState(grid=grid, basepoint=bp, lame=lame, phi=phi, **grids,
                        residuals=residuals, timings=timings, kernel_note=note)
