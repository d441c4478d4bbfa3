import numpy as np
import pytest

from biharm.elasticity import (AiryDerivatives, LameConstants, PolarGrid,
                               _SeriesFields, airy_boundary,
                               airy_second_derivatives, boundary_map,
                               displacements, gradients, lame_pairs,
                               lame_residual, loop_integral, mixed_derivative,
                               shear_gradients, solve_pipeline, stresses)
from biharm.holomorphic import (BoundaryFunction, DomainError, TaylorSeries,
                                harmonic_conjugate_trace)
from biharm.monogenic import MonogenicFunction, random_b_polynomial
from biharm.schwarz import kernel_basis
from conftest import disk_points

L11 = LameConstants(1.0, 1.0)
ZETA = MonogenicFunction(TaylorSeries((0, 1)), TaylorSeries((0j,)))
ZETA2 = MonogenicFunction(TaylorSeries((0, 0, 1)), TaylorSeries((0j,)))
ZERO_PHI = MonogenicFunction.zero()


def grid_xy(rng, count=60, radius=0.75):
    pts = disk_points(rng, count, radius)
    return pts[:, 0], pts[:, 1]


def test_lame_constants():
    assert L11.kappa0 == pytest.approx(0.75)
    assert L11.gamma == pytest.approx(2.0)
    assert LameConstants(2.0, 1.0).kappa0 == pytest.approx(4.0 / 6.0)
    assert LameConstants(1.0, 3.0).gamma == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        LameConstants(1.0, 0.0)
    with pytest.raises(ValueError):
        LameConstants(-2.0, 1.0)


def test_boundary_map_examples():
    cos = BoundaryFunction(0, (1,), ())
    p = boundary_map(BoundaryFunction.zero(), cos, L11)
    assert p.u1.a == (3.0,) and p.u4.a == (1.0,)
    p0 = boundary_map(BoundaryFunction.zero(), BoundaryFunction.zero(), L11)
    assert p0.u1.max_abs_coeff() == 0 and p0.u4.max_abs_coeff() == 0
    p2 = boundary_map(BoundaryFunction(1), BoundaryFunction(1), LameConstants(2, 1))
    assert p2.u1.a0 == pytest.approx(6.0) and p2.u4.a0 == pytest.approx(0.0)


def test_airy_boundary_examples(rng):
    cos = BoundaryFunction(0, (1,), ())
    wxx, wyy = airy_boundary(BoundaryFunction.zero(), cos, L11)
    assert wxx.a == (3.0,) and wyy.a == (1.0,)
    z1, z2 = airy_boundary(BoundaryFunction.zero(), BoundaryFunction.zero(), L11)
    assert z1.max_abs_coeff() == 0 and z2.max_abs_coeff() == 0
    # trace identities against the component boundary map
    g1 = BoundaryFunction(0.3, tuple(rng.standard_normal(4)),
                          tuple(rng.standard_normal(4)))
    g2 = BoundaryFunction(-1.0, tuple(rng.standard_normal(4)),
                          tuple(rng.standard_normal(4)))
    lame = LameConstants(1.7, 0.6)
    wxx, wyy = airy_boundary(g1, g2, lame)
    p = boundary_map(g1, g2, lame)
    th = np.linspace(0, 2 * np.pi, 101)
    assert np.max(np.abs(wxx.sample(th) - p.u1.sample(th))) < 1e-12
    assert np.max(np.abs(0.5 * (wxx.sample(th) - wyy.sample(th))
                         - p.u4.sample(th))) < 1e-12


def test_airy_second_derivatives_identity_function(rng):
    a = airy_second_derivatives(ZETA, (0.0, 0.0))
    x, y = grid_xy(rng)
    assert np.max(np.abs(a.w1(x, y) - x)) < 1e-14
    assert np.max(np.abs(a.w2(x, y) - x)) < 1e-14
    assert np.max(np.abs(a.w0(x, y) - 2 * x)) < 1e-14
    assert np.max(np.abs(a.w0_conjugate(x, y) - 2 * y)) < 1e-14


def test_airy_second_derivatives_square(rng):
    a = airy_second_derivatives(ZETA2, (0.0, 0.0))
    x, y = grid_xy(rng)
    assert np.max(np.abs(a.w1(x, y) - (x ** 2 + y ** 2))) < 1e-14
    assert np.max(np.abs(a.w2(x, y) - (x ** 2 - 3 * y ** 2))) < 1e-14


def test_airy_second_derivatives_zero(rng):
    a = airy_second_derivatives(ZERO_PHI, (0.0, 0.0))
    x, y = grid_xy(rng)
    for f in (a.w1, a.w2, a.w0, a.w0_conjugate, a.w11):
        assert np.max(np.abs(f(x, y))) < 1e-15


def test_airy_type_invariants(rng):
    phi = random_b_polynomial(rng, 7)
    a = airy_second_derivatives(phi, (0.1, -0.2))
    x, y = grid_xy(rng)
    assert np.max(np.abs(a.w0(x, y) - a.w1(x, y) - a.w2(x, y))) < 1e-12
    # conjugate pair satisfies the first-order harmonic-pair relations
    h = 1e-5
    wx = (a.w0(x + h, y) - a.w0(x - h, y)) / (2 * h)
    wy = (a.w0(x, y + h) - a.w0(x, y - h)) / (2 * h)
    cx = (a.w0_conjugate(x + h, y) - a.w0_conjugate(x - h, y)) / (2 * h)
    cy = (a.w0_conjugate(x, y + h) - a.w0_conjugate(x, y - h)) / (2 * h)
    assert np.max(np.abs(wx - cy)) < 1e-7
    assert np.max(np.abs(wy + cx)) < 1e-7
    # the interior conjugate agrees on the boundary with the trace-side
    # construction, up to the mean that the trace route normalizes away
    m = 4 * phi.degree + 9
    th = 2 * np.pi * np.arange(m) / m
    bx, by = np.cos(th), np.sin(th)
    w0_trace = BoundaryFunction.from_samples(a.w0(bx, by), phi.degree + 1)
    conj = harmonic_conjugate_trace(w0_trace).sample(th)
    direct = a.w0_conjugate(bx, by)
    assert np.max(np.abs((direct - direct.mean()) - conj)) < 1e-10


def test_mixed_derivative_identity_function(rng):
    w11 = mixed_derivative(ZETA, (0.0, 0.0))
    x, y = grid_xy(rng)
    assert np.max(np.abs(w11(x, y) - y)) < 1e-12


def test_mixed_derivative_zero(rng):
    w11 = mixed_derivative(ZERO_PHI, (0.0, 0.0))
    x, y = grid_xy(rng)
    assert np.max(np.abs(w11(x, y))) < 1e-15


def test_mixed_derivative_closed_loop(rng):
    phi = random_b_polynomial(rng, 8)
    fields = _SeriesFields(phi, None, (0.0, 0.0))
    assert abs(loop_integral(fields.w1_y, fields.w2_x, 0.5,
                             degree_hint=phi.degree + 1)) < 1e-10


def test_mixed_derivative_matches_antiderivative(rng):
    # quadrature route against the closed-form antiderivative, both gauged
    # at the same basepoint: equality certifies path independence
    phi = random_b_polynomial(rng, 8)
    basepoint = (0.2, -0.1)
    w11 = mixed_derivative(phi, basepoint)
    fields = _SeriesFields(phi, None, basepoint)
    x, y = grid_xy(rng, 40)
    assert np.max(np.abs(w11(x, y) - fields.w11(x, y))) < 1e-11


@pytest.mark.parametrize("degree", [1, 8, 32, 48])
def test_closed_form_displacements_and_shear_match_quadrature(rng, degree):
    # closed forms from the antiderivative pair against the independent
    # Gauss-Legendre path integrals, same gauge at an off-centre basepoint
    phi = random_b_polynomial(rng, degree)
    lame = LameConstants(2.0, 1.5)
    basepoint = (0.3, -0.2)
    fields = _SeriesFields(phi, lame, basepoint)
    u, v = displacements(fields.v1, fields.v2, fields.v3, fields.v4,
                         basepoint, degree_hint=phi.degree + 1)
    w11 = mixed_derivative(phi, basepoint)
    x, y = grid_xy(rng, 60, radius=0.99)
    assert np.max(np.abs(fields.u(x, y) - u(x, y))) < 1e-11
    assert np.max(np.abs(fields.v(x, y) - v(x, y))) < 1e-11
    assert np.max(np.abs(fields.tau_xy(x, y) + w11(x, y))) < 1e-11
    assert fields.u(*basepoint) == 0.0 and fields.v(*basepoint) == 0.0


def test_mixed_derivative_domain_checks():
    w11 = mixed_derivative(ZETA, (0.0, 0.0))
    with pytest.raises(DomainError):
        w11(1.2, 0.0)
    with pytest.raises(DomainError):
        mixed_derivative(ZETA, (1.0, 0.5))


def test_gradients_identity_function(rng):
    v1, v2 = gradients(ZETA, L11)
    x, y = grid_xy(rng)
    assert np.max(np.abs(v1(x, y) - x / 4)) < 1e-14
    assert np.max(np.abs(v2(x, y) - x / 4)) < 1e-14


def test_gradients_zero(rng):
    v1, v2 = gradients(ZERO_PHI, L11)
    x, y = grid_xy(rng)
    assert np.max(np.abs(v1(x, y))) == 0 and np.max(np.abs(v2(x, y))) == 0


def test_gradients_constant_rho_against_hooke_inversion(rng):
    # constant with U1 = U4 = 1: the potential derivatives are W_xx = 1,
    # W_yy = -1, so inverting Hooke's law with sigma_x = W_yy, sigma_y = W_xx
    # pins V1 = -1/2 and V2 = +1/2
    rho_phi = MonogenicFunction(TaylorSeries((0j,)), TaylorSeries((1,)))
    la, mu = L11.lam, L11.mu
    sx, sy = -1.0, 1.0
    det = 4 * mu * (la + mu)
    v1_expect = ((la + 2 * mu) * sx - la * sy) / det
    v2_expect = (-la * sx + (la + 2 * mu) * sy) / det
    assert v1_expect == pytest.approx(-0.5)
    assert v2_expect == pytest.approx(0.5)
    v1, v2 = gradients(rho_phi, L11)
    x, y = grid_xy(rng, 20)
    assert np.max(np.abs(v1(x, y) - v1_expect)) < 1e-14
    assert np.max(np.abs(v2(x, y) - v2_expect)) < 1e-14


def test_stresses_identity_function(rng):
    sx, sy, txy = stresses(ZETA, L11)
    x, y = grid_xy(rng)
    assert np.max(np.abs(sx(x, y) - x)) < 1e-13
    assert np.max(np.abs(sy(x, y) - x)) < 1e-13
    assert np.max(np.abs(txy(x, y) + y)) < 1e-12


def test_stresses_zero(rng):
    sx, sy, txy = stresses(ZERO_PHI, L11)
    x, y = grid_xy(rng, 20)
    for f in (sx, sy, txy):
        assert np.max(np.abs(f(x, y))) < 1e-15


def test_equilibrium_by_hand_for_identity_function(rng):
    # sigma_x = x, tau_xy = -y: divergence terms cancel exactly
    sx, sy, txy = stresses(ZETA, L11)
    h = 1e-5
    x, y = grid_xy(rng, 20, radius=0.6)
    div1 = (sx(x + h, y) - sx(x - h, y)) / (2 * h) \
        + (txy(x, y + h) - txy(x, y - h)) / (2 * h)
    div2 = (txy(x + h, y) - txy(x - h, y)) / (2 * h) \
        + (sy(x, y + h) - sy(x, y - h)) / (2 * h)
    assert np.max(np.abs(div1)) < 1e-8
    assert np.max(np.abs(div2)) < 1e-8


def test_shear_gradients_identity_function(rng):
    a = airy_second_derivatives(ZETA, (0.0, 0.0))
    v3, v4 = shear_gradients(a, L11)
    x, y = grid_xy(rng)
    assert np.max(np.abs(v3(x, y) + 5 * y / 4)) < 1e-12
    assert np.max(np.abs(v4(x, y) - y / 4)) < 1e-12


def test_shear_gradients_zero(rng):
    a = airy_second_derivatives(ZERO_PHI, (0.0, 0.0))
    v3, v4 = shear_gradients(a, L11)
    x, y = grid_xy(rng, 10)
    assert np.max(np.abs(v3(x, y))) < 1e-15
    assert np.max(np.abs(v4(x, y))) < 1e-15


def test_hooke_shear_closure(rng):
    phi = random_b_polynomial(rng, 6)
    lame = LameConstants(2.0, 1.0)
    a = airy_second_derivatives(phi, (0.0, 0.0))
    v3, v4 = shear_gradients(a, lame)
    _, _, txy = stresses(phi, lame)
    x, y = grid_xy(rng, 200)
    assert np.max(np.abs(txy(x, y) - lame.mu * (v3(x, y) + v4(x, y)))) < 1e-9


def test_displacements_worked_case(rng):
    v1, v2 = gradients(ZETA, L11)
    a = airy_second_derivatives(ZETA, (0.0, 0.0))
    v3, v4 = shear_gradients(a, L11)
    u, v = displacements(v1, v2, v3, v4)
    x, y = grid_xy(rng)
    assert np.max(np.abs(u(x, y) - (x ** 2 / 8 - 5 * y ** 2 / 8))) < 1e-12
    assert np.max(np.abs(v(x, y) - x * y / 4)) < 1e-12
    assert u(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_displacements_zero(rng):
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    u, v = displacements(zero, zero, zero, zero)
    x, y = grid_xy(rng, 10)
    assert np.max(np.abs(u(x, y))) == 0 and np.max(np.abs(v(x, y))) == 0


def test_displacement_closed_loops(rng):
    phi = random_b_polynomial(rng, 7)
    lame = LameConstants(1.0, 3.0)
    fields = _SeriesFields(phi, lame, (0.0, 0.0))
    hint = phi.degree + 1
    for radius in (0.3, 0.8):
        assert abs(loop_integral(fields.v1, fields.v3, radius, hint)) < 1e-10
        assert abs(loop_integral(fields.v4, fields.v2, radius, hint)) < 1e-10


def test_lame_pairs_examples(rng):
    x, y = grid_xy(rng)
    pairs = lame_pairs(ZETA2, L11)  # gamma = 2
    u, v = pairs[0]
    assert np.max(np.abs(u(x, y) - (x ** 2 - 3 * y ** 2))) < 1e-13
    assert np.max(np.abs(v(x, y))) < 1e-15
    pu, pv = lame_pairs(ZETA, L11)[0]
    assert np.max(np.abs(pu(x, y) - x)) < 1e-14
    assert np.max(np.abs(pv(x, y))) < 1e-15
    for u, v in lame_pairs(ZERO_PHI, L11):
        assert np.max(np.abs(u(x, y))) == 0 and np.max(np.abs(v(x, y))) == 0


def test_lame_residual_examples(rng):
    pts = disk_points(rng, 40)
    u, v = lame_pairs(ZETA2, L11)[0]
    assert lame_residual(u, v, 2.0, pts) < 1e-6
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    assert lame_residual(zero, zero, 2.0, pts) == 0.0
    # non-solution probe: laplacian 2, gamma*theta_x = 4, residual 6
    probe_u = lambda x, y: np.asarray(x, dtype=float) ** 2
    assert lame_residual(probe_u, zero, 2.0, pts) == pytest.approx(6.0, abs=1e-6)
    with pytest.raises(DomainError):
        lame_residual(u, v, 2.0, [(0.9999, 0.0)])


def test_lame_pairs_satisfy_system(rng):
    pts = disk_points(rng, 30)
    for lam, mu in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        lame = LameConstants(lam, mu)
        for _ in range(3):
            phi = random_b_polynomial(rng, int(rng.integers(0, 7)), decay=0.2)
            for u, v in lame_pairs(phi, lame):
                assert lame_residual(u, v, lame.gamma, pts) < 1e-6


def test_pipeline_zero_data():
    state = solve_pipeline(BoundaryFunction.zero(), BoundaryFunction.zero(),
                           L11, PolarGrid(16, 32))
    for name, fg in state.field_grids().items():
        assert fg.max_abs() < 1e-12, name
    assert all(v < 1e-12 for v in state.residuals.values())


def test_pipeline_manufactured_identity_case():
    grid = PolarGrid(24, 48)
    g = BoundaryFunction(0, (0.25,), ())
    state = solve_pipeline(g, g, L11, grid)
    _, _, x, y = grid.mesh
    assert np.max(np.abs(state.v1.values - x / 4)) < 1e-10
    assert np.max(np.abs(state.v2.values - x / 4)) < 1e-10
    assert np.max(np.abs(state.sigma_x.values - x)) < 1e-8
    assert np.max(np.abs(state.sigma_y.values - x)) < 1e-8
    assert np.max(np.abs(state.tau_xy.values + y)) < 1e-8
    assert np.max(np.abs(state.u.values - (x ** 2 / 8 - 5 * y ** 2 / 8))) < 1e-8
    assert np.max(np.abs(state.v.values - x * y / 4)) < 1e-8


def test_pipeline_discriminates_v2_variant():
    # manufactured displacement field: first equilibrium pair of the squared
    # identity at gamma = 2, i.e. u = x^2 - 3y^2, v = 0, with boundary data
    # g1 = du/dx, g2 = dv/dy on the circle
    grid = PolarGrid(24, 48)
    g1 = BoundaryFunction(0, (2.0,), ())   # 2x -> 2cos
    g2 = BoundaryFunction.zero()
    state = solve_pipeline(g1, g2, L11, grid)
    _, _, x, y = grid.mesh
    assert np.max(np.abs(state.v1.values - 2 * x)) < 1e-8
    assert np.max(np.abs(state.v2.values)) < 1e-8

    # the rejected variant, with coefficient (lam+2mu)/(lam+mu) on the fourth
    # component, would predict v_y = -x here: distinguishable at O(1)
    la, mu = L11.lam, L11.mu
    u1 = state.u1.values
    u4 = state.u4.values
    v2_variant = (mu * u1 + (la + 2 * mu) * u4) / (2 * mu * (la + mu))
    assert np.max(np.abs(v2_variant)) > 0.5


def test_pipeline_kernel_insensitivity(rng):
    g1 = BoundaryFunction(0.2, (0.5, -0.1), (0.3,))
    g2 = BoundaryFunction(-0.1, (0.2,), (0.4, 0.25))
    lame = LameConstants(2.0, 1.0)
    state = solve_pipeline(g1, g2, lame, PolarGrid(16, 32))
    shifted = state.phi
    for coef, k in zip((0.9, -0.4), kernel_basis()):
        shifted = shifted + k.scaled(coef)
    v1a, v2a = gradients(state.phi, lame)
    v1b, v2b = gradients(shifted, lame)
    x, y = grid_xy(rng, 100)
    assert np.max(np.abs(v1a(x, y) - v1b(x, y))) < 1e-12
    assert np.max(np.abs(v2a(x, y) - v2b(x, y))) < 1e-12


def test_pipeline_runs_without_path_quadrature(monkeypatch):
    import biharm.elasticity as elasticity_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("path quadrature on the solve path")

    monkeypatch.setattr(elasticity_mod, "path_integral", forbidden)
    g1 = BoundaryFunction(0.2, (0.5, -0.1), (0.3,))
    g2 = BoundaryFunction(-0.1, (0.2,), (0.4, 0.25))
    state = solve_pipeline(g1, g2, LameConstants(2.0, 1.5), PolarGrid(16, 32),
                           (0.3, -0.2))
    assert all(np.isfinite(fg.values).all() for fg in state.field_grids().values())


def test_pipeline_residual_report_keys():
    g = BoundaryFunction(0, (0.25,), ())
    state = solve_pipeline(g, g, L11, PolarGrid(16, 32))
    assert set(state.residuals) == {"boundary", "equilibrium", "hooke",
                                    "lame", "loop"}
    assert all(np.isfinite(v) and v >= 0 for v in state.residuals.values())
    assert state.kernel_note
    assert set(state.timings) == {"solve", "fields", "displacements",
                                  "residuals"}
