import numpy as np
import pytest

import inputs


def test_same_seed_gives_same_inputs():
    for workload in inputs.SOLVE_SHAPES:
        a = inputs.solve_case(workload, inputs.job_rng(7, workload, 3))
        b = inputs.solve_case(workload, inputs.job_rng(7, workload, 3))
        assert a.config_text("out") == b.config_text("out")
    s1 = inputs.spectral_case(inputs.job_rng(7, "spectral", 0))
    s2 = inputs.spectral_case(inputs.job_rng(7, "spectral", 0))
    assert s1.keys() == s2.keys()
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    assert inputs.verify_job(7, 12) == inputs.verify_job(7, 12)


def test_other_seed_or_job_gives_other_inputs():
    base = inputs.solve_case("solve_high", inputs.job_rng(7, "solve_high", 0)).config_text("o")
    assert inputs.solve_case("solve_high", inputs.job_rng(8, "solve_high", 0)).config_text("o") != base
    assert inputs.solve_case("solve_high", inputs.job_rng(7, "solve_high", 1)).config_text("o") != base
    assert inputs.verify_job(7, 0)[0] != inputs.verify_job(8, 0)[0]


def test_verify_jobs_are_consecutive_with_every_tenth_faulted():
    jobs = [inputs.verify_job(3, j) for j in range(30)]
    assert [s for s, _ in jobs] == list(range(jobs[0][0], jobs[0][0] + 30))
    assert [j for j, (_, fault) in enumerate(jobs) if fault] == [9, 19, 29]


def _sample(trig, th):
    n = np.arange(1, len(trig.a) + 1)
    return trig.a0 + np.cos(np.outer(th, n)) @ trig.a + np.sin(np.outer(th, n)) @ trig.b


@pytest.mark.parametrize("degree", [0, 1, 2, 9])
def test_component_traces_match_sampled_components(degree):
    f, g = inputs.random_pair(np.random.default_rng(degree), degree, 0.8)
    u1, u4 = inputs.component_traces(f, g)
    th = np.linspace(0.0, 2 * np.pi, 41)
    x, y = np.cos(th), np.sin(th)
    values = inputs.exact_fields(inputs.SolveCase(f, g, u1, u4, (2, 4, 1.0), False), x, y)
    assert np.allclose(_sample(u1, th), values["u1"], atol=1e-13)
    assert np.allclose(_sample(u4, th), values["u4"], atol=1e-13)


def test_gradients_invert_the_boundary_map():
    f, g = inputs.random_pair(np.random.default_rng(1), 5, 0.75)
    u1, u4 = inputs.component_traces(f, g)
    g1, g2 = inputs.gradients_from_traces(u1, u4, 2.0, 1.5)
    back1 = g1.scaled(2.0) + g2.scaled(2.0 + 3.0)
    back4 = (g2 + g1.scaled(-1.0)).scaled(1.5)
    for got, want in ((back1, u1), (back4, u4)):
        assert np.allclose(np.r_[got.a0, got.a, got.b], np.r_[want.a0, want.a, want.b], atol=1e-14)


def test_spectral_boundary_data_are_unit_order_at_every_mode():
    arrs = inputs.spectral_case(inputs.job_rng(2, "spectral", 0))
    for n in inputs.SPECTRAL_MODES:
        coeffs = np.abs(arrs[f"g1_{n}"][1:])
        assert coeffs.max() < 10
        assert np.mean(coeffs[-n // 4:]) > 0.1  # no decay towards the top modes
