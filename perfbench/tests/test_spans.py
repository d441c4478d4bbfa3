import numpy as np
import pytest

import spans


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 3.0, 2.0, 2.0]


@pytest.fixture
def traced():
    rec = spans.Recorder()
    rec.install()
    yield rec
    rec.uninstall()


def test_install_and_uninstall_restore_every_binding():
    from biharm import cli, elasticity, holomorphic
    before = (elasticity.path_integral, cli.solve_pipeline, elasticity.solve_pipeline,
              holomorphic.TaylorSeries.evaluate_unchecked,
              holomorphic.BoundaryFunction.__dict__["from_samples"])
    rec = spans.Recorder()
    rec.install()
    assert cli.solve_pipeline is elasticity.solve_pipeline is not before[1]
    with pytest.raises(RuntimeError):
        rec.install()
    rec.uninstall()
    after = (elasticity.path_integral, cli.solve_pipeline, elasticity.solve_pipeline,
             holomorphic.TaylorSeries.evaluate_unchecked,
             holomorphic.BoundaryFunction.__dict__["from_samples"])
    assert all(a is b for a, b in zip(before, after))


def test_spans_account_for_a_small_pipeline_job(traced):
    from biharm import elasticity, holomorphic

    g1 = holomorphic.BoundaryFunction(0.1, (0.25, 0.05), (0.0, 0.02))
    g2 = holomorphic.BoundaryFunction(0.0, (0.25,), (0.1,))
    lame = elasticity.LameConstants(2.0, 1.5)
    grid = elasticity.PolarGrid(6, 12)
    for job in (0, 1):
        traced.run_job(job, elasticity.solve_pipeline, g1, g2, lame, grid, (0.3, -0.2))
    summary = spans.summarize(traced)
    assert summary["jobs"] == 2

    a = traced.arrays()
    own = spans.self_times(a["parent"], a["start"], a["end"])
    for job, root_s in summary["job_s"].items():
        in_job = a["job"] == job
        assert own[in_job].sum() == pytest.approx(root_s, rel=1e-9)
        assert (summary["accounted_s"][job]
                == pytest.approx(root_s - own[in_job & (a["name"] == traced.names.index(spans.ROOT))].sum(), rel=1e-9))
    # layer self times partition the library's share of the jobs
    assert (sum(summary["self_s"].values())
            == pytest.approx(sum(summary["accounted_s"].values()), rel=1e-9))

    counts = summary["counts"]
    assert counts["holomorphic.eval_calls"] > 0
    assert counts["holomorphic.eval_terms"] >= counts["holomorphic.eval_calls"]
    assert counts["elasticity.quad_nodes"] > 0
    assert counts["monogenic.components_points"] > 0
    assert counts["elasticity.stage.fields_s"] > 0
    assert summary["timed_s"]["elasticity.path_integral_s"] > 0
    assert 0 <= summary["residual_max"] < 1e-10


def test_nested_calls_of_one_metric_count_once(traced):
    from biharm import holomorphic

    series = holomorphic.TaylorSeries((1.0, 2.0, 3.0))
    traced.run_job(0, series.evaluate, np.zeros(5))  # evaluate -> evaluate_unchecked
    summary = spans.summarize(traced)
    a = traced.arrays()
    outer = traced.names.index("holomorphic.TaylorSeries.evaluate")
    evaluate_s = float((a["end"] - a["start"])[a["name"] == outer].sum())
    assert summary["timed_s"]["holomorphic.eval_s"] == pytest.approx(evaluate_s)
    assert summary["counts"]["holomorphic.eval_calls"] == 1
    assert summary["counts"]["holomorphic.eval_terms"] == 3 * 5
