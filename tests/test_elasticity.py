import numpy as np
import pytest

from biharm.elasticity import (FIELD_NAMES, FieldEvaluator, LameConstants,
                               PolarGrid, _residual_points, airy_boundary,
                               boundary_map, displacements, lame_pairs,
                               lame_residual, loop_integral, mixed_derivative,
                               solve_pipeline)
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


def potential(values, lame):
    """W_xx, W_yy, their sum W0 and its harmonic conjugate, read off the
    evaluator's stresses (sigma_x = W_yy, sigma_y = W_xx) and shear
    gradients (V4 - V3 = kappa0 * conj(W0) / mu)."""
    w_xx, w_yy = values["sigma_y"], values["sigma_x"]
    conj = lame.mu * (values["v4"] - values["v3"]) / lame.kappa0
    return w_xx, w_yy, w_xx + w_yy, conj


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
    x, y = grid_xy(rng)
    w_xx, w_yy, w0, conj = potential(FieldEvaluator(ZETA, L11)(x, y), L11)
    assert np.max(np.abs(w_xx - x)) < 1e-14
    assert np.max(np.abs(w_yy - x)) < 1e-14
    assert np.max(np.abs(w0 - 2 * x)) < 1e-14
    assert np.max(np.abs(conj - 2 * y)) < 1e-14


def test_airy_second_derivatives_square(rng):
    x, y = grid_xy(rng)
    w_xx, w_yy, _, _ = potential(FieldEvaluator(ZETA2, L11)(x, y), L11)
    assert np.max(np.abs(w_xx - (x ** 2 + y ** 2))) < 1e-14
    assert np.max(np.abs(w_yy - (x ** 2 - 3 * y ** 2))) < 1e-14


def test_airy_second_derivatives_zero(rng):
    x, y = grid_xy(rng)
    values = FieldEvaluator(ZERO_PHI, L11)(x, y)
    assert set(values) == set(FIELD_NAMES) | {"w1_y", "w2_x"}
    for name, arr in values.items():
        assert np.max(np.abs(arr)) < 1e-15, name


def test_evaluator_without_lame_constants(rng):
    # the lame-free entries need no moduli and do not depend on them
    phi = random_b_polynomial(rng, 6)
    x, y = grid_xy(rng)
    free = FieldEvaluator(phi, None, (0.2, -0.1))(x, y)
    assert set(free) == {"u1", "u2", "u3", "u4", "tau_xy", "w1_y", "w2_x"}
    full = FieldEvaluator(phi, LameConstants(2.0, 1.5), (0.2, -0.1))(x, y)
    for name, arr in free.items():
        assert np.array_equal(arr, full[name]), name
    with pytest.raises(DomainError):
        FieldEvaluator(phi, None, (0.8, 0.8))


def test_airy_type_invariants(rng):
    phi = random_b_polynomial(rng, 7)
    lame = LameConstants(2.0, 1.5)
    fields = FieldEvaluator(phi, lame, (0.1, -0.2))
    x, y = grid_xy(rng)
    _, _, w0, _ = potential(fields(x, y), lame)
    assert np.max(np.abs(w0 - 2 * phi.f.evaluate(x + 1j * y).real)) < 1e-12
    # conjugate pair satisfies the first-order harmonic-pair relations
    h = 1e-5
    w0_at = lambda a, b: potential(fields(a, b), lame)[2]
    conj_at = lambda a, b: potential(fields(a, b), lame)[3]
    wx = (w0_at(x + h, y) - w0_at(x - h, y)) / (2 * h)
    wy = (w0_at(x, y + h) - w0_at(x, y - h)) / (2 * h)
    cx = (conj_at(x + h, y) - conj_at(x - h, y)) / (2 * h)
    cy = (conj_at(x, y + h) - conj_at(x, y - h)) / (2 * h)
    assert np.max(np.abs(wx - cy)) < 1e-7
    assert np.max(np.abs(wy + cx)) < 1e-7
    # the interior conjugate agrees on the boundary with the trace-side
    # construction, up to the mean that the trace route normalizes away
    m = 4 * phi.degree + 9
    th = 2 * np.pi * np.arange(m) / m
    bx, by = np.cos(th), np.sin(th)
    w0_trace = BoundaryFunction.from_samples(w0_at(bx, by), phi.degree + 1)
    conj = harmonic_conjugate_trace(w0_trace).sample(th)
    direct = conj_at(bx, by)
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
    fields = FieldEvaluator(phi)
    assert abs(loop_integral(fields.field("w1_y"), fields.field("w2_x"), 0.5,
                             degree_hint=phi.degree + 1)) < 1e-10


def test_mixed_derivative_matches_antiderivative(rng):
    # quadrature route against the closed-form antiderivative, both gauged
    # at the same basepoint: equality certifies path independence
    phi = random_b_polynomial(rng, 8)
    basepoint = (0.2, -0.1)
    w11 = mixed_derivative(phi, basepoint)
    fields = FieldEvaluator(phi, None, basepoint)
    x, y = grid_xy(rng, 40)
    assert np.max(np.abs(w11(x, y) + fields(x, y)["tau_xy"])) < 1e-11


@pytest.mark.parametrize("degree", [1, 8, 32, 48])
def test_closed_form_displacements_and_shear_match_quadrature(rng, degree):
    # closed forms from the antiderivative pair against the independent
    # Gauss-Legendre path integrals, same gauge at an off-centre basepoint
    phi = random_b_polynomial(rng, degree)
    lame = LameConstants(2.0, 1.5)
    basepoint = (0.3, -0.2)
    fields = FieldEvaluator(phi, lame, basepoint)
    u, v = displacements(*(fields.field(name) for name in ("v1", "v2", "v3", "v4")),
                         basepoint, degree_hint=phi.degree + 1)
    w11 = mixed_derivative(phi, basepoint)
    x, y = grid_xy(rng, 60, radius=0.99)
    values = fields(x, y)
    assert np.max(np.abs(values["u"] - u(x, y))) < 1e-11
    assert np.max(np.abs(values["v"] - v(x, y))) < 1e-11
    assert np.max(np.abs(values["tau_xy"] + w11(x, y))) < 1e-11
    at_basepoint = fields(*basepoint)
    assert at_basepoint["u"] == 0.0 and at_basepoint["v"] == 0.0


def test_mixed_derivative_domain_checks():
    w11 = mixed_derivative(ZETA, (0.0, 0.0))
    with pytest.raises(DomainError):
        w11(1.2, 0.0)
    with pytest.raises(DomainError):
        mixed_derivative(ZETA, (1.0, 0.5))


def test_gradients_identity_function(rng):
    x, y = grid_xy(rng)
    values = FieldEvaluator(ZETA, L11)(x, y)
    assert np.max(np.abs(values["v1"] - x / 4)) < 1e-14
    assert np.max(np.abs(values["v2"] - x / 4)) < 1e-14


def test_gradients_zero(rng):
    x, y = grid_xy(rng)
    values = FieldEvaluator(ZERO_PHI, L11)(x, y)
    assert np.max(np.abs(values["v1"])) == 0 and np.max(np.abs(values["v2"])) == 0


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
    x, y = grid_xy(rng, 20)
    values = FieldEvaluator(rho_phi, L11)(x, y)
    assert np.max(np.abs(values["v1"] - v1_expect)) < 1e-14
    assert np.max(np.abs(values["v2"] - v2_expect)) < 1e-14


def test_stresses_identity_function(rng):
    x, y = grid_xy(rng)
    values = FieldEvaluator(ZETA, L11)(x, y)
    assert np.max(np.abs(values["sigma_x"] - x)) < 1e-13
    assert np.max(np.abs(values["sigma_y"] - x)) < 1e-13
    assert np.max(np.abs(values["tau_xy"] + y)) < 1e-12


def test_stresses_zero(rng):
    x, y = grid_xy(rng, 20)
    values = FieldEvaluator(ZERO_PHI, L11)(x, y)
    for name in ("sigma_x", "sigma_y", "tau_xy"):
        assert np.max(np.abs(values[name])) < 1e-15


def test_equilibrium_by_hand_for_identity_function(rng):
    # sigma_x = x, tau_xy = -y: divergence terms cancel exactly
    fields = FieldEvaluator(ZETA, L11)
    sx, sy, txy = (fields.field(name) for name in ("sigma_x", "sigma_y", "tau_xy"))
    h = 1e-5
    x, y = grid_xy(rng, 20, radius=0.6)
    div1 = (sx(x + h, y) - sx(x - h, y)) / (2 * h) \
        + (txy(x, y + h) - txy(x, y - h)) / (2 * h)
    div2 = (txy(x + h, y) - txy(x - h, y)) / (2 * h) \
        + (sy(x, y + h) - sy(x, y - h)) / (2 * h)
    assert np.max(np.abs(div1)) < 1e-8
    assert np.max(np.abs(div2)) < 1e-8


def test_shear_gradients_identity_function(rng):
    x, y = grid_xy(rng)
    values = FieldEvaluator(ZETA, L11)(x, y)
    assert np.max(np.abs(values["v3"] + 5 * y / 4)) < 1e-12
    assert np.max(np.abs(values["v4"] - y / 4)) < 1e-12


def test_shear_gradients_zero(rng):
    x, y = grid_xy(rng, 10)
    values = FieldEvaluator(ZERO_PHI, L11)(x, y)
    assert np.max(np.abs(values["v3"])) < 1e-15
    assert np.max(np.abs(values["v4"])) < 1e-15


def test_hooke_shear_closure(rng):
    phi = random_b_polynomial(rng, 6)
    lame = LameConstants(2.0, 1.0)
    x, y = grid_xy(rng, 200)
    values = FieldEvaluator(phi, lame)(x, y)
    assert np.max(np.abs(values["tau_xy"]
                         - lame.mu * (values["v3"] + values["v4"]))) < 1e-9


def test_displacements_worked_case(rng):
    fields = FieldEvaluator(ZETA, L11)
    u, v = displacements(*(fields.field(name) for name in ("v1", "v2", "v3", "v4")))
    x, y = grid_xy(rng)
    values = fields(x, y)
    for u_xy, v_xy in ((u(x, y), v(x, y)), (values["u"], values["v"])):
        assert np.max(np.abs(u_xy - (x ** 2 / 8 - 5 * y ** 2 / 8))) < 1e-12
        assert np.max(np.abs(v_xy - x * y / 4)) < 1e-12
    assert u(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_displacements_zero(rng):
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    u, v = displacements(zero, zero, zero, zero)
    x, y = grid_xy(rng, 10)
    assert np.max(np.abs(u(x, y))) == 0 and np.max(np.abs(v(x, y))) == 0


def test_displacement_closed_loops(rng):
    phi = random_b_polynomial(rng, 7)
    lame = LameConstants(1.0, 3.0)
    fields = FieldEvaluator(phi, lame, (0.0, 0.0))
    v1, v2, v3, v4 = (fields.field(name) for name in ("v1", "v2", "v3", "v4"))
    hint = phi.degree + 1
    for radius in (0.3, 0.8):
        assert abs(loop_integral(v1, v3, radius, hint)) < 1e-10
        assert abs(loop_integral(v4, v2, radius, hint)) < 1e-10


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
    x, y = grid_xy(rng, 100)
    a = FieldEvaluator(state.phi, lame)(x, y)
    b = FieldEvaluator(shifted, lame)(x, y)
    assert np.max(np.abs(a["v1"] - b["v1"])) < 1e-12
    assert np.max(np.abs(a["v2"] - b["v2"])) < 1e-12


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


def test_pipeline_evaluates_each_series_once_on_the_grid(monkeypatch, rng):
    # degree 48 on a 48 x 128 grid: the grid is one point set, so each of
    # F, F', F'', G, G', int F and int G is evaluated on it exactly once
    grid = PolarGrid(48, 128)
    shapes = []
    evaluate = TaylorSeries.evaluate_unchecked

    def counted(series, z):
        shapes.append(np.shape(z))
        return evaluate(series, z)

    monkeypatch.setattr(TaylorSeries, "evaluate_unchecked", counted)
    damp = 0.9 ** np.arange(1, 49)
    g1, g2 = (BoundaryFunction(0.1, tuple(rng.standard_normal(48) * damp),
                               tuple(rng.standard_normal(48) * damp))
              for _ in range(2))
    state = solve_pipeline(g1, g2, LameConstants(2.0, 1.5), grid, (0.3, -0.2))
    assert state.phi.degree >= 48
    grid_calls = shapes.count((grid.n_r, grid.n_theta))
    assert 0 < grid_calls <= 7


@pytest.mark.parametrize("grid", [PolarGrid(2, 4), PolarGrid(64, 256, 0.04)])
def test_residual_points_on_grids_without_interior_radii(grid):
    # no grid radius lies in (0.05, r_cap]; the residuals still get points
    for r_cap, max_points in ((0.9, 240), (0.85, 80)):
        pts = _residual_points(grid, r_cap, max_points)
        assert len(pts) > 0
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= r_cap)
    g = BoundaryFunction(0, (0.25,), ())
    state = solve_pipeline(g, g, L11, grid)
    assert all(np.isfinite(v) for v in state.residuals.values())
