import numpy as np
import pytest

from biharm.holomorphic import (BoundaryFunction, DomainError, TaylorSeries,
                                boundary_im_trace, boundary_re_trace,
                                harmonic_conjugate_trace, multiply_boundary,
                                schwarz_solve)
from disk_sampling import disk_points


def coeffs_close(got, expected, tol=1e-14):
    got = tuple(got)
    expected = tuple(complex(c) for c in expected)
    n = max(len(got), len(expected))
    got += (0j,) * (n - len(got))
    expected += (0j,) * (n - len(expected))
    return max(abs(a - b) for a, b in zip(got, expected)) <= tol


def bf_close(got, expected, tol=1e-13):
    th = np.linspace(0, 2 * np.pi, 257)
    return np.max(np.abs(got.sample(th) - expected.sample(th))) <= tol


def test_evaluate_examples():
    assert TaylorSeries((0, 1)).evaluate(1j) == 1j
    assert TaylorSeries((0, 0, 1)).evaluate(1 + 0j) == 1
    assert TaylorSeries((1, 2, 3)).evaluate(0.5) == pytest.approx(2.75, abs=1e-15)


def test_evaluate_domain_check():
    f = TaylorSeries((0, 1))
    with pytest.raises(DomainError):
        f.evaluate(1.1)
    # a hair past 1 from rounded boundary coordinates is fine
    f.evaluate(np.exp(1j * 0.7))


def test_differentiate():
    assert coeffs_close(TaylorSeries((0, 0, 1)).differentiate().coeffs, (0, 2))
    assert coeffs_close(TaylorSeries((5.0,)).differentiate().coeffs, (0,))
    assert coeffs_close(TaylorSeries((1, 1, 1, 1)).differentiate().coeffs, (1, 2, 3))


def test_integrate():
    assert coeffs_close(TaylorSeries((0, 2)).integrate().coeffs, (0, 0, 1))
    assert coeffs_close(TaylorSeries((0j,)).integrate().coeffs, (0, 0))
    assert coeffs_close(TaylorSeries((3, 1j, 3)).integrate().coeffs, (0, 3, 0.5j, 1))
    f = TaylorSeries((0.5 - 1j, 2.0, -0.25j, 1.5))
    assert coeffs_close(f.integrate().differentiate().coeffs, f.coeffs)


def test_differentiate_commutes_with_evaluation(rng):
    f = TaylorSeries(tuple(rng.standard_normal(9) * 0.4 ** np.arange(9)
                           + 1j * rng.standard_normal(9) * 0.4 ** np.arange(9)))
    df = f.differentiate()
    h = 1e-5
    worst = 0.0
    for x, y in disk_points(rng, 100):
        z = complex(x, y)
        fd = (f.evaluate(z + h) - f.evaluate(z - h)) / (2 * h)
        worst = max(worst, abs(fd - df.evaluate(z)))
    assert worst < 1e-7


def test_taylor_shift_recenters(rng):
    f = TaylorSeries(tuple(rng.standard_normal(7) + 1j * rng.standard_normal(7)))
    z0 = 0.3 - 0.2j
    shifted = f.shifted(z0)
    for w in (0.1 + 0.05j, -0.2j, 0.0):
        assert abs(shifted.evaluate_unchecked(w) - f.evaluate_unchecked(z0 + w)) < 1e-12


def test_boundary_re_trace_examples():
    assert bf_close(boundary_re_trace(TaylorSeries((0, 1))),
                    BoundaryFunction(0, (1,), ()))
    # Re(i e^{i th}) = -sin th
    assert bf_close(boundary_re_trace(TaylorSeries((0, 1j))),
                    BoundaryFunction(0, (), (-1,)))
    assert bf_close(boundary_re_trace(TaylorSeries((5,))), BoundaryFunction(5))


def test_schwarz_solve_examples():
    assert coeffs_close(schwarz_solve(BoundaryFunction(0, (1,), ())).coeffs, (0, 1))
    assert coeffs_close(schwarz_solve(BoundaryFunction(1)).coeffs, (1,))
    f = schwarz_solve(BoundaryFunction(0, (0, 1), (1, 0)))
    assert coeffs_close(f.coeffs, (0, -1j, 1))
    # trigonometric check of the recovered boundary values
    th = np.linspace(0, 2 * np.pi, 128)
    target = np.cos(2 * th) + np.sin(th)
    assert np.max(np.abs(f.evaluate(np.exp(1j * th)).real - target)) < 1e-13


def test_schwarz_round_trips(rng):
    coeff = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    coeff[0] = coeff[0].real  # normalization Im F(0) = 0
    f = TaylorSeries(tuple(coeff))
    assert coeffs_close(schwarz_solve(boundary_re_trace(f)).coeffs, f.coeffs)
    h = BoundaryFunction(0.7, tuple(rng.standard_normal(6)),
                         tuple(rng.standard_normal(6)))
    assert bf_close(boundary_re_trace(schwarz_solve(h)), h)


def test_multiply_boundary_examples():
    cos = BoundaryFunction(0, (1,), ())
    sin = BoundaryFunction(0, (), (1,))
    one = BoundaryFunction(1)
    assert bf_close(multiply_boundary(cos, cos),
                    BoundaryFunction(0.5, (0, 0.5), ()))
    assert bf_close(multiply_boundary(sin, one), sin)
    assert bf_close(multiply_boundary(sin, cos),
                    BoundaryFunction(0, (), (0, 0.5)))


def test_multiply_boundary_matches_pointwise(rng):
    h1 = BoundaryFunction(0.3, tuple(rng.standard_normal(5)),
                          tuple(rng.standard_normal(5)))
    h2 = BoundaryFunction(-1.1, tuple(rng.standard_normal(7)),
                          tuple(rng.standard_normal(7)))
    prod = multiply_boundary(h1, h2)
    th = rng.uniform(0, 2 * np.pi, 64)
    assert np.max(np.abs(prod.sample(th) - h1.sample(th) * h2.sample(th))) < 1e-12


def test_harmonic_conjugate_examples():
    cos = BoundaryFunction(0, (1,), ())
    sin = BoundaryFunction(0, (), (1,))
    assert bf_close(harmonic_conjugate_trace(cos), sin)
    assert bf_close(harmonic_conjugate_trace(sin), BoundaryFunction(0, (-1,), ()))
    assert bf_close(harmonic_conjugate_trace(BoundaryFunction(1)),
                    BoundaryFunction(0))


def test_im_trace(rng):
    f = TaylorSeries(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    th = rng.uniform(0, 2 * np.pi, 32)
    got = boundary_im_trace(f).sample(th)
    assert np.max(np.abs(got - f.evaluate(np.exp(1j * th)).imag)) < 1e-13


def test_dft_round_trip(rng):
    h = BoundaryFunction(0.25, tuple(rng.standard_normal(10)),
                         tuple(rng.standard_normal(10)))
    m = 2 * h.degree + 1
    th = 2 * np.pi * np.arange(m) / m
    back = BoundaryFunction.from_samples(h.sample(th), h.degree)
    assert abs(back.a0 - h.a0) < 1e-12
    assert np.max(np.abs(np.array(back.a) - np.array(h.a))) < 1e-12
    assert np.max(np.abs(np.array(back.b) - np.array(h.b))) < 1e-12


def test_from_samples_requires_enough_points():
    with pytest.raises(ValueError):
        BoundaryFunction.from_samples(np.zeros(8), 4)


def test_boundary_arithmetic():
    h1 = BoundaryFunction(1, (2,), (3,))
    h2 = BoundaryFunction(0.5, (0, 1), ())
    s = h1 + 2.0 * h2
    assert s.a0 == 2.0 and s.a == (2.0, 2.0) and s.b == (3.0, 0.0)
    d = h1 - h1
    assert d.a0 == 0 and max(abs(v) for v in d.a + d.b) == 0
