import numpy as np
import pytest

from biharm.holomorphic import BoundaryFunction, TaylorSeries
from biharm.monogenic import MonogenicFunction, random_b_polynomial
from biharm.schwarz import (DegreeOverflowError, Problem14, boundary_residual,
                            kernel_basis, solve_14)
from disk_sampling import disk_points


def trace_problem(phi, degree):
    m = 4 * degree + 9
    th = 2 * np.pi * np.arange(m) / m
    u1, _, _, u4 = phi.components(np.cos(th), np.sin(th))
    return Problem14(BoundaryFunction.from_samples(u1, degree),
                     BoundaryFunction.from_samples(u4, degree), degree)


def coeff_zero(series, tol=1e-14):
    return max(abs(c) for c in series.coeffs) <= tol


def test_identity_solution():
    p = Problem14(BoundaryFunction(0, (1,), ()), BoundaryFunction.zero(), 2)
    phi = solve_14(p)
    assert abs(phi.f.coeffs[1] - 1) < 1e-14 and abs(phi.f.coeffs[0]) < 1e-14
    assert coeff_zero(phi.g)
    assert boundary_residual(phi, p) < 1e-14


def test_square_solution():
    # boundary components of the squared identity: U1 = 1, U4 = 1 - cos 2th
    p = Problem14(BoundaryFunction(1.0), BoundaryFunction(1.0, (0, -1), ()), 3)
    phi = solve_14(p)
    expect = (0j, 0j, 1 + 0j)
    assert max(abs(a - b) for a, b in zip(phi.f.coeffs + (0j,) * 3, expect)) < 1e-13
    assert coeff_zero(phi.g, tol=1e-13)
    assert boundary_residual(phi, p) < 1e-13


def test_homogeneous_problem_is_zero():
    p = Problem14(BoundaryFunction.zero(), BoundaryFunction.zero(), 1)
    phi = solve_14(p)
    assert coeff_zero(phi.f, tol=0.0)
    assert coeff_zero(phi.g, tol=0.0)


def test_boundary_residual_of_zero_function():
    p = Problem14(BoundaryFunction(0, (1,), ()), BoundaryFunction.zero(), 2)
    assert boundary_residual(MonogenicFunction.zero(), p) == pytest.approx(1.0, abs=1e-12)


def test_exactness_at_degree_64(rng):
    decay = 0.9 ** np.arange(64)
    u1 = BoundaryFunction(0.4, tuple(rng.standard_normal(64) * decay),
                          tuple(rng.standard_normal(64) * decay))
    u4 = BoundaryFunction(-0.1, tuple(rng.standard_normal(64) * decay),
                          tuple(rng.standard_normal(64) * decay))
    p = Problem14(u1, u4, 64)
    assert boundary_residual(solve_14(p), p) < 1e-10


def test_round_trip_recovers_components(rng):
    pts = disk_points(rng, 80)
    for _ in range(6):
        phi0 = random_b_polynomial(rng, int(rng.integers(1, 9)))
        p = trace_problem(phi0, max(phi0.degree, 1))
        sol = solve_14(p)
        a = phi0.components(pts[:, 0], pts[:, 1])
        b = sol.components(pts[:, 0], pts[:, 1])
        assert float(np.max(np.abs(a[0] - b[0]))) < 1e-10
        assert float(np.max(np.abs(a[3] - b[3]))) < 1e-10
        # the discrepancy is spanned by the two imaginary constants
        df = (sol.f + phi0.f.scaled(-1)).coeffs
        dg = (sol.g + phi0.g.scaled(-1)).coeffs
        assert abs(df[0].real) < 1e-12 and abs(dg[0].real) < 1e-12
        assert max((abs(c) for c in df[1:]), default=0.0) < 1e-12
        assert max((abs(c) for c in dg[1:]), default=0.0) < 1e-12


def test_linearity(rng):
    phi_a = random_b_polynomial(rng, 5)
    phi_b = random_b_polynomial(rng, 7)
    pa, pb = trace_problem(phi_a, 7), trace_problem(phi_b, 7)
    alpha, beta = 1.7, -0.6
    combined = Problem14(alpha * pa.u1 + beta * pb.u1,
                         alpha * pa.u4 + beta * pb.u4, 7)
    sol = solve_14(combined)
    ref_f = solve_14(pa).f.scaled(alpha) + solve_14(pb).f.scaled(beta)
    ref_g = solve_14(pa).g.scaled(alpha) + solve_14(pb).g.scaled(beta)
    assert max(abs(x - y) for x, y in zip(sol.f.coeffs, ref_f.coeffs)) < 1e-12
    assert max(abs(x - y) for x, y in zip(sol.g.coeffs, ref_g.coeffs)) < 1e-12


def test_kernel_basis_components_vanish():
    th = np.linspace(0, 2 * np.pi, 100)
    x, y = 0.8 * np.cos(th), 0.8 * np.sin(th)
    k1, k2 = kernel_basis()
    for k in (k1, k2):
        u1, _, _, u4 = k.components(x, y)
        assert np.max(np.abs(u1)) == 0 and np.max(np.abs(u4)) == 0
    u2 = k1.components(x, y)[1]
    assert np.max(np.abs(u2 - 1.0)) == 0


def test_kernel_shift_preserves_boundary_residual(rng):
    phi0 = random_b_polynomial(rng, 4)
    p = trace_problem(phi0, 4)
    sol = solve_14(p)
    base = boundary_residual(sol, p)
    shifted = sol
    for coef, k in zip((0.37, -1.2), kernel_basis()):
        shifted = shifted + k.scaled(coef)
    assert abs(boundary_residual(shifted, p) - base) < 1e-14


def test_truncation_degree_validation():
    with pytest.raises(ValueError):
        Problem14(BoundaryFunction(0, (1, 1), ()), BoundaryFunction.zero(), 1)


def test_mode_cap():
    p = Problem14(BoundaryFunction(0, (1,), ()), BoundaryFunction.zero(), 8)
    with pytest.raises(DegreeOverflowError):
        solve_14(p, mode_cap=4)
