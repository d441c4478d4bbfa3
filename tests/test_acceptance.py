"""End-to-end acceptance battery.

One test per criterion; each prints a PASS line with the observed worst
value and the pinned tolerance (run pytest with -s to see them all).
Every expected value is either a hand-checked table computation or the
output of an in-test independent oracle, never the code path under test.
"""

import numpy as np
import pytest

from biharm.balgebra import (E1, E2, RHO, ZERO, BElement, invert, multiply,
                             to_nilpotent)
from biharm.elasticity import (LameConstants, PolarGrid, lame_pairs,
                               lame_residual, solve_pipeline)
from biharm.holomorphic import BoundaryFunction
from biharm.monogenic import (biharmonic_residual, cr_residual,
                              random_b_polynomial)
from biharm.schwarz import Problem14, solve_14
from conftest import disk_points

L11 = LameConstants(1.0, 1.0)


def report(num, text, worst, tol):
    print(f"PASS criterion {num}: {text} (worst={worst:.3e}, tol={tol:.1e})")


def test_criterion_1_algebra_suite(rng):
    tol = 1e-12
    worst = (multiply(E2, E2) - BElement(1, 0, 0, 2)).norm()
    square_sum = multiply(E1, E1) + multiply(E2, E2)
    assert square_sum.norm() > 0
    worst = max(worst, multiply(square_sum, square_sum).norm())
    worst = max(worst, multiply(RHO, RHO).norm())
    count = 0
    while count < 1000:
        a = BElement(*rng.uniform(-2, 2, 4))
        if abs(to_nilpotent(a).c) < 0.3:
            continue
        count += 1
        worst = max(worst, (multiply(a, invert(a)) - E1).norm())
    assert worst < tol
    report(1, "multiplication table, nilpotency, 1000 inverses", worst, tol)


def test_criterion_2_monogenicity_suite(rng):
    tol_cr, tol_bih = 1e-7, 1e-5
    pts = disk_points(rng, 50)
    worst_cr = worst_bih = 0.0
    polys = [random_b_polynomial(rng, int(rng.integers(0, 9)))
             for _ in range(50)]
    for phi in polys:
        worst_cr = max(worst_cr, cr_residual(phi, pts))
        worst_bih = max(worst_bih, biharmonic_residual(phi, pts))
    assert worst_cr < tol_cr
    assert worst_bih < tol_bih
    # every flipped sign in the compatibility system must be caught
    probe = random_b_polynomial(rng, 4)
    for name in ("u1y", "u2y", "u3y", "u4y"):
        mutated = cr_residual(probe, pts, flip=name)
        assert mutated > 1e3 * tol_cr, name
    report(2, "50 polynomials: compatibility and biharmonicity residuals",
           max(worst_cr, worst_bih), tol_bih)


def test_criterion_3_second_derivative_identities(rng):
    tol = 1e-6
    h = 1e-4
    pts = disk_points(rng, 100)
    x, y = pts[:, 0], pts[:, 1]
    worst = 0.0
    for _ in range(8):
        phi_star = random_b_polynomial(rng, int(rng.integers(2, 9)))
        phi = phi_star.derivative().derivative()
        u1 = lambda a, b: phi_star.components(a, b)[0]
        wxx = (u1(x + h, y) - 2 * u1(x, y) + u1(x - h, y)) / h ** 2
        wyy = (u1(x, y + h) - 2 * u1(x, y) + u1(x, y - h)) / h ** 2
        c = phi.components(x, y)
        worst = max(worst, float(np.max(np.abs(wxx - c[0]))))
        worst = max(worst, float(np.max(np.abs(wyy - (c[0] - 2 * c[3])))))
    assert worst < tol
    report(3, "potential second derivatives from the twice-derived function",
           worst, tol)


def test_criterion_4_solver_round_trip(rng):
    tol = 1e-10
    pts = disk_points(rng, 80)
    worst = 0.0
    for _ in range(20):
        phi0 = random_b_polynomial(rng, int(rng.integers(1, 9)))
        degree = max(phi0.degree, 1)
        m = 4 * degree + 9
        th = 2 * np.pi * np.arange(m) / m
        u1, _, _, u4 = phi0.components(np.cos(th), np.sin(th))
        problem = Problem14(BoundaryFunction.from_samples(u1, degree),
                            BoundaryFunction.from_samples(u4, degree), degree)
        sol = solve_14(problem)
        a = phi0.components(pts[:, 0], pts[:, 1])
        b = sol.components(pts[:, 0], pts[:, 1])
        worst = max(worst, float(np.max(np.abs(a[0] - b[0]))))
        worst = max(worst, float(np.max(np.abs(a[3] - b[3]))))
        # discrepancy confined to the two-dimensional constant kernel
        df = (sol.f + phi0.f.scaled(-1)).coeffs
        dg = (sol.g + phi0.g.scaled(-1)).coeffs
        worst = max(worst, abs(df[0].real), abs(dg[0].real))
        worst = max(worst, max((abs(v) for v in df[1:]), default=0.0))
        worst = max(worst, max((abs(v) for v in dg[1:]), default=0.0))
    assert worst < tol
    report(4, "20 boundary-trace round trips with kernel bookkeeping",
           worst, tol)


def test_criterion_5_zero_data_uniqueness():
    tol = 1e-12
    state = solve_pipeline(BoundaryFunction.zero(), BoundaryFunction.zero(),
                           L11, PolarGrid(32, 64))
    worst = max(state.v1.max_abs(), state.v2.max_abs())
    assert worst < tol
    report(5, "homogeneous data give identically zero normal gradients",
           worst, tol)


def test_criterion_6_physics_closure(rng):
    tol_eq, tol_hooke, tol_loop = 1e-6, 1e-9, 1e-10
    decay = 0.75 ** np.arange(1, 17)
    worst_eq = worst_hooke = worst_loop = 0.0
    for lam, mu in ((1.0, 1.0), (2.0, 1.0)):
        g1 = BoundaryFunction(0.3, tuple(rng.standard_normal(16) * decay),
                              tuple(rng.standard_normal(16) * decay))
        g2 = BoundaryFunction(-0.2, tuple(rng.standard_normal(16) * decay),
                              tuple(rng.standard_normal(16) * decay))
        state = solve_pipeline(g1, g2, LameConstants(lam, mu), PolarGrid(32, 96))
        worst_eq = max(worst_eq, state.residuals["equilibrium"])
        worst_hooke = max(worst_hooke, state.residuals["hooke"])
        worst_loop = max(worst_loop, state.residuals["loop"])
    assert worst_eq < tol_eq
    assert worst_hooke < tol_hooke
    assert worst_loop < tol_loop
    report(6, "degree-16 pipeline: equilibrium, Hooke/potential, loops",
           max(worst_eq, worst_hooke, worst_loop), tol_eq)


def test_criterion_7_lame_pairs(rng):
    tol = 1e-6
    pts = disk_points(rng, 40)
    worst = 0.0
    for _ in range(20):
        phi = random_b_polynomial(rng, int(rng.integers(0, 7)), decay=0.2)
        for lam, mu in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
            lame = LameConstants(lam, mu)
            for u, v in lame_pairs(phi, lame):
                worst = max(worst, lame_residual(u, v, lame.gamma, pts))
    assert worst < tol
    report(7, "three displacement pairs solve the equilibrium system", worst, tol)


def test_criterion_8_discriminating_v2_variant():
    tol = 1e-8
    grid = PolarGrid(24, 48)
    # manufactured field u = x^2 - 3y^2, v = 0 (first pair of the squared
    # identity at gamma = 2); boundary data are its exact normal gradients
    g1 = BoundaryFunction(0, (2.0,), ())
    g2 = BoundaryFunction.zero()
    state = solve_pipeline(g1, g2, L11, grid)
    _, _, x, y = grid.mesh
    worst = max(float(np.max(np.abs(state.v1.values - 2 * x))),
                float(np.max(np.abs(state.v2.values))))
    assert worst < tol
    # implemented variant must be recorded for the report
    from biharm.elasticity import V2_U4_COEFFICIENT
    assert V2_U4_COEFFICIENT == "lambda/(lambda+mu)"
    # the rejected coefficient (lam+2mu)/(lam+mu) predicts v_y = -x: O(1) off
    la, mu = L11.lam, L11.mu
    rejected = (mu * state.u1.values + (la + 2 * mu) * state.u4.values) \
        / (2 * mu * (la + mu))
    assert np.max(np.abs(rejected)) > 0.5
    report(8, "manufactured displacement field separates the V2 variants",
           worst, tol)


def test_criterion_9_worked_closed_form_case():
    tol = 1e-8
    grid = PolarGrid(32, 64)
    g = BoundaryFunction(0, (0.25,), ())
    state = solve_pipeline(g, g, L11, grid)
    _, _, x, y = grid.mesh
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(state.u.values
                                           - (x ** 2 / 8 - 5 * y ** 2 / 8)))))
    worst = max(worst, float(np.max(np.abs(state.v.values - x * y / 4))))
    worst = max(worst, float(np.max(np.abs(state.sigma_x.values - x))))
    worst = max(worst, float(np.max(np.abs(state.sigma_y.values - x))))
    worst = max(worst, float(np.max(np.abs(state.tau_xy.values + y))))
    assert worst < tol
    report(9, "closed-form case: u, v, sigma_x, sigma_y, tau_xy", worst, tol)
