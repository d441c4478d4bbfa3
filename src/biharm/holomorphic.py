"""Finite Taylor series on the unit disk and real trigonometric polynomials
on its boundary, plus the harmonic-extension (Schwarz) solver connecting
them.

Everything here is a polynomial or a trigonometric polynomial, so the
operations are exact up to rounding; no truncation is ever introduced
silently.  Fourier analysis/synthesis is direct summation (desk scale,
degrees expected well under 256).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EDGE_TOL = 1e-12  # slack on |z| <= 1 so rounded boundary points pass


class DomainError(ValueError):
    """Evaluation requested outside the closed unit disk (or too close to
    its boundary for the stencil in use)."""


@dataclass(frozen=True)
class TaylorSeries:
    """Polynomial F(z) = sum c_k z**k stored by its complex coefficients."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0j,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Horner evaluation; z may be a scalar or an ndarray in the closed disk."""
        zarr = np.asarray(z, dtype=complex)
        if np.any(np.abs(zarr) > 1.0 + EDGE_TOL):
            raise DomainError("evaluation point outside the closed unit disk")
        return self.evaluate_unchecked(zarr) if zarr.shape else complex(self.evaluate_unchecked(zarr))

    def evaluate_unchecked(self, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def differentiate(self) -> "TaylorSeries":
        if len(self.coeffs) == 1:
            return TaylorSeries((0j,))
        return TaylorSeries(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def integrate(self) -> "TaylorSeries":
        """The antiderivative with constant term 0."""
        return TaylorSeries((0j,) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    def scaled(self, factor: complex) -> "TaylorSeries":
        return TaylorSeries(tuple(factor * c for c in self.coeffs))

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda t: t + (0j,) * (n - len(t))
        return TaylorSeries(tuple(x + y for x, y in zip(pad(self.coeffs),
                                                        pad(other.coeffs))))

    def shifted(self, z0: complex) -> "TaylorSeries":
        """Re-center: returns T with T(w) = F(z0 + w) (exact Taylor shift)."""
        b = list(self.coeffs)
        n = len(b)
        # synthetic division by (z - z0), repeated; O(n^2), exact in theory
        for j in range(n - 1):
            for k in range(n - 2, j - 1, -1):
                b[k] = b[k] + z0 * b[k + 1]
        return TaylorSeries(tuple(b))

    def truncated_below(self, min_degree: int) -> "TaylorSeries":
        """Zero out all terms of degree < min_degree."""
        return TaylorSeries(tuple(0j if k < min_degree else c
                                  for k, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class BoundaryFunction:
    """Real trigonometric polynomial a0 + sum(a_n cos n*th + b_n sin n*th)."""

    a0: float = 0.0
    a: tuple[float, ...] = field(default_factory=tuple)
    b: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        n = max(len(a), len(b))
        object.__setattr__(self, "a", a + (0.0,) * (n - len(a)))
        object.__setattr__(self, "b", b + (0.0,) * (n - len(b)))
        object.__setattr__(self, "a0", float(self.a0))

    @property
    def degree(self) -> int:
        return len(self.a)

    def sample(self, thetas):
        """Evaluate at angles; vectorized direct summation."""
        th = np.asarray(thetas, dtype=float)
        out = np.full_like(th, self.a0)
        for n, (an, bn) in enumerate(zip(self.a, self.b), start=1):
            out = out + an * np.cos(n * th) + bn * np.sin(n * th)
        return out

    def __call__(self, thetas):
        return self.sample(thetas)

    def __add__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        n = max(self.degree, other.degree)
        pad = lambda t: t + (0.0,) * (n - len(t))
        return BoundaryFunction(self.a0 + other.a0,
                                tuple(x + y for x, y in zip(pad(self.a), pad(other.a))),
                                tuple(x + y for x, y in zip(pad(self.b), pad(other.b))))

    def __sub__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "BoundaryFunction":
        s = float(scalar)
        return BoundaryFunction(s * self.a0, tuple(s * v for v in self.a),
                                tuple(s * v for v in self.b))

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        vals = (abs(self.a0),) + tuple(abs(v) for v in self.a) + tuple(abs(v) for v in self.b)
        return max(vals)

    @classmethod
    def from_samples(cls, values, degree: int) -> "BoundaryFunction":
        """Recover coefficients from uniform samples over [0, 2pi).

        Exact for trigonometric polynomials of the given degree provided
        len(values) >= 2*degree + 1.
        """
        v = np.asarray(values, dtype=float)
        m = len(v)
        if m < 2 * degree + 1:
            raise ValueError("need at least 2*degree+1 samples for exact recovery")
        th = 2.0 * np.pi * np.arange(m) / m
        a0 = float(v.mean())
        ns = np.arange(1, degree + 1)
        cos_mat = np.cos(np.outer(ns, th))
        sin_mat = np.sin(np.outer(ns, th))
        a = (2.0 / m) * cos_mat @ v
        b = (2.0 / m) * sin_mat @ v
        return cls(a0, tuple(a), tuple(b))

    @classmethod
    def zero(cls) -> "BoundaryFunction":
        return cls(0.0, (), ())


def boundary_re_trace(f: TaylorSeries) -> BoundaryFunction:
    """Fourier coefficients of Re F(e^{i th}): a_n = Re c_n, b_n = -Im c_n."""
    c = f.coeffs
    return BoundaryFunction(c[0].real,
                            tuple(ck.real for ck in c[1:]),
                            tuple(-ck.imag for ck in c[1:]))


def boundary_im_trace(f: TaylorSeries) -> BoundaryFunction:
    """Trace of Im F(e^{i th}), i.e. Re of -i*F."""
    return boundary_re_trace(f.scaled(-1j))


def schwarz_solve(h: BoundaryFunction) -> TaylorSeries:
    """The unique holomorphic F with Re F = h on the circle and Im F(0) = 0.

    Coefficientwise: c_0 = a_0, c_n = a_n - i b_n, so the map is the exact
    inverse of boundary_re_trace on its image.
    """
    coeffs = (complex(h.a0),) + tuple(complex(an, -bn) for an, bn in zip(h.a, h.b))
    return TaylorSeries(coeffs)


def multiply_boundary(h1: BoundaryFunction, h2: BoundaryFunction) -> BoundaryFunction:
    """Exact product of trigonometric polynomials via oversampled collocation."""
    deg = h1.degree + h2.degree
    m = 2 * deg + 1
    th = 2.0 * np.pi * np.arange(m) / m
    return BoundaryFunction.from_samples(h1.sample(th) * h2.sample(th), deg)


def harmonic_conjugate_trace(h: BoundaryFunction) -> BoundaryFunction:
    """Boundary trace of the conjugate harmonic function, zero mean.

    The harmonic extension of cos n*th is r^n cos n*th whose conjugate is
    r^n sin n*th (and sin -> -cos); the conjugate of the mean is dropped.
    """
    return BoundaryFunction(0.0, tuple(-bn for bn in h.b), tuple(h.a))
