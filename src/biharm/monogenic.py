"""Algebra-valued functions on the unit disk with a derivative in the
algebra sense, stored as a pair of holomorphic series.

A function Phi(x*e1 + y*e2) = F(z) + rho*(G(z) - i*y*F'(z)) with z = x + iy
and F, G polynomials is exactly the span of algebra polynomials
sum A_k * (x*e1 + y*e2)**k, and the pair form makes every component a
closed-form expression in F, G:

    U1 = Re(F + G) + y*Im F',   U2 = Im(F + G) - y*Re F',
    U3 = -Im G + y*Re F',       U4 = Re G + y*Im F'.

The residual operations below verify, by finite differences, that members
of the class satisfy the four first-order compatibility equations and that
each component is biharmonic; they are the numerical watchdog for the
representation, not a consequence of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .balgebra import BElement, to_nilpotent
from .holomorphic import DomainError, EDGE_TOL, TaylorSeries

FD_STEP_FIRST = 1e-5   # central first differences
FD_STEP_FOURTH = 1e-3  # 13-point double-Laplacian stencil

# 13-point stencil for the squared Laplacian: offsets in units of h, weights.
_STENCIL_OFFSETS = np.array([
    (0, 0),
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (2, 0), (-2, 0), (0, 2), (0, -2),
], dtype=float)
_STENCIL_WEIGHTS = np.array([20.0,
                             -8.0, -8.0, -8.0, -8.0,
                             2.0, 2.0, 2.0, 2.0,
                             1.0, 1.0, 1.0, 1.0])

_CR_EQUATIONS = ("u1y", "u2y", "u3y", "u4y")


def component_values(fv, gv, dfv, y):
    """Components (U1, U2, U3, U4) from values of F, G and F' at points
    with ordinate y; the one place the pair-form formula is written."""
    shear = 1j * y * dfv
    c_plus_d = fv + gv - shear
    d = gv - shear
    return c_plus_d.real, c_plus_d.imag, -d.imag, d.real


@dataclass(frozen=True)
class MonogenicFunction:
    """Pair (F, G) encoding Phi = F(z) + rho*(G(z) - i*y*F'(z))."""

    f: TaylorSeries
    g: TaylorSeries

    @property
    def degree(self) -> int:
        return max(self.f.degree, self.g.degree)

    @cached_property
    def df(self) -> TaylorSeries:
        """F', differentiated once per function."""
        return self.f.differentiate()

    def evaluate(self, x: float, y: float) -> BElement:
        """Value at a single point of the closed unit disk."""
        return BElement(*(float(v) for v in self.components(x, y)))

    def components(self, x, y, check: bool = True):
        """Vectorized component fields (U1, U2, U3, U4) at array points."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if check and np.any(np.hypot(x, y) > 1.0 + EDGE_TOL):
            raise DomainError("point outside the closed unit disk")
        z = x + 1j * y
        return component_values(self.f.evaluate_unchecked(z), self.g.evaluate_unchecked(z),
                                self.df.evaluate_unchecked(z), y)

    def derivative(self) -> "MonogenicFunction":
        """The algebra derivative, which equals the x-partial componentwise."""
        return MonogenicFunction(self.df, self.g.differentiate())

    def recentered(self, x0: float, y0: float) -> "MonogenicFunction":
        """Same function in coordinates local to (x0, y0).

        Translation invariance of the pair form: the local pair is
        (F(z0 + w), G(z0 + w) - i*y0*F'(z0 + w)).
        """
        z0 = complex(x0, y0)
        f_loc = self.f.shifted(z0)
        g_loc = self.g.shifted(z0) + self.df.shifted(z0).scaled(-1j * y0)
        return MonogenicFunction(f_loc, g_loc)

    def __add__(self, other: "MonogenicFunction") -> "MonogenicFunction":
        return MonogenicFunction(self.f + other.f, self.g + other.g)

    def scaled(self, factor: float) -> "MonogenicFunction":
        return MonogenicFunction(self.f.scaled(factor), self.g.scaled(factor))

    @classmethod
    def zero(cls) -> "MonogenicFunction":
        return cls(TaylorSeries((0j,)), TaylorSeries((0j,)))


def from_b_polynomial(coeffs: Sequence[BElement]) -> MonogenicFunction:
    """The function sum coeffs[k] * (x*e1 + y*e2)**k in pair form.

    Since (x*e1 + y*e2)**k = z**k - i*k*y*z**(k-1)*rho, a coefficient with
    nilpotent split (c_k, d_k) contributes c_k to F and d_k to G.
    """
    parts = [to_nilpotent(a) for a in coeffs]
    if not parts:
        return MonogenicFunction.zero()
    return MonogenicFunction(TaylorSeries(tuple(p.c for p in parts)),
                             TaylorSeries(tuple(p.d for p in parts)))


def cr_residual(phi: MonogenicFunction, points, h: float = FD_STEP_FIRST,
                flip: str | None = None) -> float:
    """Max violation of the four compatibility equations over interior points.

    Partials are central differences of the evaluated components.  `flip`
    names one of the equations (u1y..u4y) and negates its right-hand side;
    that is the hook the fault-injection and mutation tests use.
    """
    if flip is not None and flip not in _CR_EQUATIONS:
        raise ValueError(f"unknown equation name {flip!r}; expected one of {_CR_EQUATIONS}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.hypot(x, y) + h > 1.0 + EDGE_TOL):
        raise DomainError("difference stencil leaves the closed disk")

    ux = [(a - b) / (2 * h) for a, b in zip(phi.components(x + h, y),
                                            phi.components(x - h, y))]
    uy = [(a - b) / (2 * h) for a, b in zip(phi.components(x, y + h),
                                            phi.components(x, y - h))]
    sign = {name: -1.0 if flip == name else 1.0 for name in _CR_EQUATIONS}
    res = [
        uy[0] - sign["u1y"] * ux[2],
        uy[1] - sign["u2y"] * ux[3],
        uy[2] - sign["u3y"] * (ux[0] - 2.0 * ux[3]),
        uy[3] - sign["u4y"] * (ux[1] + 2.0 * ux[2]),
    ]
    return float(max(np.max(np.abs(r)) for r in res))


def biharmonic_stencil(u, x0: float, y0: float, h: float = FD_STEP_FOURTH) -> float:
    """Raw 13-point estimate of the squared Laplacian of a callable field."""
    xs = x0 + h * _STENCIL_OFFSETS[:, 0]
    ys = y0 + h * _STENCIL_OFFSETS[:, 1]
    vals = np.array([u(xi, yi) for xi, yi in zip(xs, ys)], dtype=float)
    return float(_STENCIL_WEIGHTS @ vals / h ** 4)


def _component_remainders(local: MonogenicFunction, dx, dy):
    """Components of the re-centered function with all terms of total degree
    <= 3 removed.

    The dropped terms are annihilated exactly by the 13-point stencil (its
    moments vanish through total degree 3), so removing them changes the
    stencil value only by the catastrophic rounding they would otherwise
    inject through the h**-4 scaling.
    """
    w = dx + 1j * dy
    return component_values(local.f.truncated_below(4).evaluate_unchecked(w),
                            local.g.truncated_below(4).evaluate_unchecked(w),
                            local.df.truncated_below(3).evaluate_unchecked(w), dy)


def biharmonic_residual(phi: MonogenicFunction, points, h: float = FD_STEP_FOURTH) -> float:
    """Max 13-point squared-Laplacian value of the four components, scaled
    by max(1, local component magnitude)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if np.any(np.hypot(pts[:, 0], pts[:, 1]) > 1.0 - 3.0 * h):
        raise DomainError("stencil points must stay 3h inside the boundary")
    dx = h * _STENCIL_OFFSETS[:, 0]
    dy = h * _STENCIL_OFFSETS[:, 1]
    worst = 0.0
    for x0, y0 in pts:
        local = phi.recentered(x0, y0)
        remainders = _component_remainders(local, dx, dy)
        full = local.components(dx, dy, check=False)
        for rem, val in zip(remainders, full):
            scale = max(1.0, float(np.max(np.abs(val))))
            stencil = float(_STENCIL_WEIGHTS @ rem) / h ** 4
            worst = max(worst, abs(stencil) / scale)
    return worst


def random_b_polynomial(rng: np.random.Generator, degree: int,
                        decay: float = 0.3) -> MonogenicFunction:
    """Random algebra polynomial with geometrically damped coefficients.

    The damping keeps high-order derivatives small enough that the pinned
    finite-difference steps (1e-5 first order, 1e-3 fourth order) resolve
    the residual tolerances; undamped unit coefficients would push the
    fourth-order truncation error past them.
    """
    coeffs = [BElement(*(decay ** k * rng.standard_normal(4)))
              for k in range(degree + 1)]
    return from_b_polynomial(coeffs)
