import io

import numpy as np

import checks
import inputs


def _small_case(seed=0, degree=3):
    f, g = inputs.random_pair(np.random.default_rng(seed), degree, 0.75)
    g1, g2 = inputs.gradients_from_traces(*inputs.component_traces(f, g), inputs.LAM, inputs.MU)
    return inputs.SolveCase(f, g, g1, g2, (6, 12, 1.0 - 1e-6), True)


def _write_fields(out_dir, case, values):
    coords = [c.tolist() for c in inputs.grid_points(case.grid)]
    out_dir.mkdir()
    for name, v in values.items():
        rows = ["r,theta,x,y,value"] + [",".join(map(repr, row))
                                        for row in zip(*coords, v.tolist())]
        (out_dir / f"{name}.csv").write_text("\n".join(rows) + "\n")


def test_exact_fields_pass_and_a_perturbed_field_is_flagged(tmp_path):
    case = _small_case()
    _, _, x, y = inputs.grid_points(case.grid)
    exact = inputs.exact_fields(case, x, y)
    _write_fields(tmp_path / "good", case, exact)
    values, problems = checks.load_fields(tmp_path / "good", case.grid)
    assert problems == [] and checks.check_manufactured(case, values) == []

    for name in ("v1", "u"):  # one gauge-free, one gauged field
        bad = dict(exact)
        bad[name] = exact[name] + 1e-7 * np.sin(7 * x)
        _write_fields(tmp_path / name, case, bad)
        values, _ = checks.load_fields(tmp_path / name, case.grid)
        problems = checks.check_manufactured(case, values)
        assert len(problems) == 1 and problems[0].startswith(name + " ")


def test_missing_csv_and_wrong_grid_are_flagged(tmp_path):
    case = _small_case()
    _, _, x, y = inputs.grid_points(case.grid)
    exact = inputs.exact_fields(case, x, y)
    del exact["tau_xy"]
    _write_fields(tmp_path / "out", case, exact)
    _, problems = checks.load_fields(tmp_path / "out", case.grid)
    assert len(problems) == 1 and problems[0].startswith("tau_xy")
    _, problems = checks.load_fields(tmp_path / "out", (6, 13, 1.0 - 1e-6))
    assert len(problems) == 13


def test_library_solve_passes_the_manufactured_check(tmp_path):
    from biharm import cli

    case = _small_case(seed=4, degree=4)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(case.config_text(str(tmp_path / "out")))
    report = io.StringIO()
    code = cli.cmd_solve(str(cfg), out=report)
    assert checks.check_report(code, report.getvalue()) == []
    values, problems = checks.load_fields(tmp_path / "out", case.grid)
    assert problems == [] and checks.check_manufactured(case, values) == []


def test_reference_digest_round_trip_and_drift(tmp_path):
    values = {name: np.linspace(-1, 1, 100) * (k + 1) for k, name in enumerate(checks.FIELDS)}
    ref = tmp_path / "reference.json"
    import json
    ref.write_text(json.dumps({"w": {"fields": checks.reference_digest(values)}}))
    assert checks.check_reference("w", values, ref) == []
    drifted = dict(values, sigma_x=values["sigma_x"] * (1 + 1e-13))
    assert checks.check_reference("w", drifted, ref) == []
    changed = dict(values, sigma_x=values["sigma_x"] + 1e-6)
    assert len(checks.check_reference("w", changed, ref)) == 1


def test_spectral_and_verify_checks():
    good = {"512": {"f_err": 1e-14, "g_err": 1e-12, "residual": 1e-11}}
    assert checks.check_spectral(good) == []
    bad = {"2048": {"f_err": 1e-14, "g_err": 1e-12, "residual": 2e-8}}
    assert len(checks.check_spectral(bad)) == 1
    assert checks.check_verify(0, "all invariants passed\n", None) == []
    assert checks.check_verify(1, "failed invariants: kernel\n", None)
    assert checks.check_verify(1, "failed invariants: cr\n", "u3y") == []
    assert checks.check_verify(1, "failed invariants: cr, kernel\n", "u3y") == []
    assert checks.check_verify(0, "all invariants passed\n", "u3y")
    assert checks.check_verify(1, "failed invariants: biharmonic\n", "u3y")
