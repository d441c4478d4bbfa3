import numpy as np
import pytest

from biharm.balgebra import (E1, RHO, ZERO, BElement, embed_point, multiply,
                             power)
from biharm.holomorphic import DomainError, TaylorSeries
from biharm.monogenic import (MonogenicFunction, biharmonic_residual,
                              biharmonic_stencil, cr_residual,
                              from_b_polynomial, random_b_polynomial)
from conftest import disk_points

ZETA = MonogenicFunction(TaylorSeries((0, 1)), TaylorSeries((0j,)))


def table_evaluate(coeffs, x, y):
    """Independent oracle: sum coeffs[k] * (x*e1 + y*e2)**k by table arithmetic."""
    acc = ZERO
    zeta = embed_point(x, y)
    for k, a in enumerate(coeffs):
        acc = acc + multiply(a, power(zeta, k))
    return acc


def test_evaluate_identity_function():
    for x, y in ((0.2, 0.4), (-0.5, 0.1), (0.0, 0.0)):
        got = ZETA.evaluate(x, y)
        assert (got - embed_point(x, y)).norm() < 1e-15


def test_evaluate_square():
    # the squared identity, checked against table arithmetic on a boundary
    # point (evaluation is confined to the closed disk)
    phi = MonogenicFunction(TaylorSeries((0, 0, 1)), TaylorSeries((0j,)))
    got = phi.evaluate(0.6, 0.8)
    assert (got - BElement(1.0, 0, 0.96, 1.28)).norm() < 1e-15
    assert (got - power(embed_point(0.6, 0.8), 2)).norm() < 1e-15


def test_evaluate_constant_rho():
    phi = MonogenicFunction(TaylorSeries((0j,)), TaylorSeries((1,)))
    for x, y in ((0.9, 0.1), (0.0, 0.0), (-0.3, -0.7)):
        assert (phi.evaluate(x, y) - RHO).norm() == 0


def test_evaluate_domain_check():
    with pytest.raises(DomainError):
        ZETA.evaluate(0.9, 0.9)
    ZETA.evaluate(1.0, 0.0)  # boundary point allowed


def test_from_b_polynomial_examples():
    phi = from_b_polynomial([ZERO, E1])
    assert phi.f.coeffs == (0j, 1 + 0j) and max(abs(c) for c in phi.g.coeffs) == 0
    phi_rho = from_b_polynomial([RHO])
    assert phi_rho.f.coeffs == (0j,) and phi_rho.g.coeffs == (1 + 0j,)
    phi_sq = from_b_polynomial([ZERO, ZERO, E1])
    assert phi_sq.f.coeffs == (0j, 0j, 1 + 0j)


def test_pair_representation_matches_table_oracle(rng):
    for _ in range(5):
        deg = int(rng.integers(0, 9))
        coeffs = [BElement(*(0.5 ** k * rng.standard_normal(4)))
                  for k in range(deg + 1)]
        phi = from_b_polynomial(coeffs)
        worst = 0.0
        for x, y in disk_points(rng, 100):
            direct = table_evaluate(coeffs, x, y)
            worst = max(worst, (phi.evaluate(x, y) - direct).norm())
        assert worst < 1e-11


def test_component_identity_u1_minus_u4(rng):
    phi = random_b_polynomial(rng, 7)
    for x, y in disk_points(rng, 30):
        b = phi.evaluate(x, y)
        assert abs(b.u1 - b.u4 - phi.f.evaluate(complex(x, y)).real) < 1e-12


def test_derivative_examples():
    phi = MonogenicFunction(TaylorSeries((0, 0, 1)), TaylorSeries((0j,)))
    d = phi.derivative()
    assert d.f.coeffs == (0j, 2 + 0j)
    const = MonogenicFunction(TaylorSeries((2.0,)), TaylorSeries((1j,)))
    dc = const.derivative()
    assert max(abs(c) for c in dc.f.coeffs + dc.g.coeffs) == 0
    second = MonogenicFunction(TaylorSeries((0, 0, 0, 1)),
                               TaylorSeries((0, 0, 1))).derivative().derivative()
    assert second.f.coeffs == (0j, 6 + 0j) and second.g.coeffs == (2 + 0j,)


def test_derivative_matches_x_partial(rng):
    phi = random_b_polynomial(rng, 8)
    dphi = phi.derivative()
    h = 1e-5
    pts = disk_points(rng, 60)
    x, y = pts[:, 0], pts[:, 1]
    fd = [(a - b) / (2 * h) for a, b in zip(phi.components(x + h, y),
                                            phi.components(x - h, y))]
    exact = dphi.components(x, y)
    worst = max(float(np.max(np.abs(f - e))) for f, e in zip(fd, exact))
    assert worst < 1e-7


def test_cr_residual_small_for_polynomials(rng):
    pts = disk_points(rng, 50)
    for _ in range(6):
        phi = random_b_polynomial(rng, int(rng.integers(0, 9)))
        assert cr_residual(phi, pts) < 1e-7


def test_cr_residual_exactly_zero_for_constants(rng):
    phi = from_b_polynomial([BElement(0.3, -1.0, 0.25, 2.0)])
    assert cr_residual(phi, disk_points(rng, 20)) == 0.0


def test_cr_residual_detects_mutated_component(rng):
    # synthetic component set from the identity function with U3 negated
    class Mutated:
        def components(self, x, y, check=True):
            u1, u2, u3, u4 = ZETA.components(x, y, check=check)
            return u1, u2, -u3, u4

    assert cr_residual(Mutated(), disk_points(rng, 20)) > 0.5


def test_cr_residual_checker_flips(rng):
    # a generic polynomial keeps every equation's terms nonzero, so each
    # flipped sign must blow the residual far past the clean value
    phi = random_b_polynomial(rng, 4)
    pts = disk_points(rng, 20)
    clean = cr_residual(phi, pts)
    for name in ("u1y", "u2y", "u3y", "u4y"):
        assert cr_residual(phi, pts, flip=name) > max(1e-3, 1e4 * clean)
    with pytest.raises(ValueError):
        cr_residual(phi, pts, flip="bogus")


def test_cr_residual_stencil_domain():
    with pytest.raises(DomainError):
        cr_residual(ZETA, [(0.999999999, 0.0)])


def test_biharmonic_residual_polynomials(rng):
    pts = disk_points(rng, 40)
    for deg, tol in ((6, 1e-5), (8, 1e-5)):
        phi = random_b_polynomial(rng, deg)
        assert biharmonic_residual(phi, pts) < tol


def test_biharmonic_residual_constant_exact(rng):
    phi = from_b_polynomial([BElement(1.7, -0.4, 0.9, 0.1)])
    assert biharmonic_residual(phi, disk_points(rng, 10)) == 0.0


def test_biharmonic_residual_domain():
    phi = random_b_polynomial(np.random.default_rng(0), 3)
    with pytest.raises(DomainError):
        biharmonic_residual(phi, [(0.999, 0.0)])


def test_biharmonic_stencil_detects_probe():
    # the squared Laplacian of x**5 is 120*x, and the 13-point stencil is
    # exact on quintics, so the value is h-independent
    probe = lambda x, y: x ** 5
    for h in (1e-3, 2e-3):
        got = biharmonic_stencil(probe, 0.5, 0.2, h=h)
        assert got == pytest.approx(60.0, abs=1e-3)
    assert abs(biharmonic_stencil(probe, -0.4, 0.1)) == pytest.approx(48.0, abs=1e-3)


def test_recentered_agrees_with_global(rng):
    phi = random_b_polynomial(rng, 6)
    x0, y0 = 0.3, -0.4
    local = phi.recentered(x0, y0)
    for dx, dy in disk_points(rng, 20, radius=0.2):
        a = phi.evaluate(x0 + dx, y0 + dy)
        b = local.evaluate(dx, dy)
        assert (a - b).norm() < 1e-12


def test_df_is_computed_once(rng):
    phi = random_b_polynomial(rng, 5)
    assert phi.df is phi.df
    assert phi.df == phi.f.differentiate()
    assert phi.derivative().f is phi.df
