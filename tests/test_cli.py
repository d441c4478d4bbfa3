import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biharm.cli import (ConfigError, DEFAULT_THRESHOLDS, ENV_OUTPUT_DIR,
                        RunReport, build_config, cmd_solve, cmd_verify,
                        load_config, main, parse_flat_config, read_field_csv)

GOOD_CONFIG = """\
# worked closed-form case
lambda = 1.0
mu = 1.0
g1.a0 = 0.0
g1.cos = 0.25
g2.a0 = 0.0
g2.cos = 0.25
grid.n_r = 12
grid.n_theta = 24
output_dir = {out}
"""

ZERO_CONFIG = """\
lambda = 1.0
mu = 1.0
grid.n_r = 8
grid.n_theta = 16
output_dir = {out}
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return path


def test_parse_flat_config():
    raw = parse_flat_config("a = 1\n# comment\nb.c = 2, 3  # trailing\n\n")
    assert raw == {"a": "1", "b.c": "2, 3"}
    with pytest.raises(ConfigError):
        parse_flat_config("not a key value line")
    with pytest.raises(ConfigError):
        parse_flat_config("a = 1\na = 2")


def test_build_config_defaults():
    cfg = build_config({"lambda": "1.0", "mu": "2.0", "g1.cos": "0.5, 0.25"})
    assert cfg.n_r == 64 and cfg.n_theta == 256
    assert cfg.g1.a == (0.5, 0.25)
    assert cfg.thresholds == DEFAULT_THRESHOLDS


@pytest.mark.parametrize("overrides,fieldname", [
    ({"mu": "-1"}, "mu"),
    ({"lambda": "-5", "mu": "1"}, "lambda"),
    ({"grid.r_max": "1.5"}, "grid.r_max"),
    ({"basepoint.x": "2.0"}, "basepoint.x"),
    ({"truncation": "3", "g1.cos": "0, 0, 1"}, "truncation"),
    ({"nonsense": "1"}, "nonsense"),
    ({"mu": "abc"}, "mu"),
    ({"g1.a0": "nan"}, "g1.a0"),
    ({"g2.cos": "0.5, inf"}, "g2.cos"),
    ({"g1.sin": "-inf"}, "g1.sin"),
    ({"lambda": "inf"}, "lambda"),
    ({"basepoint.y": "nan"}, "basepoint.y"),
    ({"threshold.lame": "nan"}, "threshold.lame"),
    ({"threshold.loop": "inf"}, "threshold.loop"),
])
def test_build_config_validation_names_field(overrides, fieldname):
    raw = {"lambda": "1.0", "mu": "1.0"}
    raw.update(overrides)
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert fieldname in str(err.value)


def test_missing_required_field():
    with pytest.raises(ConfigError) as err:
        build_config({"mu": "1.0"})
    assert "lambda" in str(err.value)


def test_cmd_solve_invalid_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("lambda = 1.0\nmu = -1\n")
    assert cmd_solve(str(path)) == 2
    assert "mu" in capsys.readouterr().err


def test_cmd_solve_missing_file_exit_2(tmp_path):
    assert cmd_solve(str(tmp_path / "absent.cfg")) == 2


def test_cmd_solve_zero_config(tmp_path):
    path = write_config(tmp_path, ZERO_CONFIG)
    assert cmd_solve(str(path), out=io.StringIO()) == 0
    out_dir = tmp_path / "out"
    report = (out_dir / "report.txt").read_text()
    assert report.startswith("status = ok")
    for line in report.splitlines():
        if line.endswith("_residual") or "_residual = " in line:
            value = float(line.split("=")[1])
            assert value < 1e-12
    data = read_field_csv(out_dir / "u.csv")
    assert np.max(np.abs(data[:, 4])) == 0.0


def test_cmd_solve_manufactured_case(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert cmd_solve(str(path), out=io.StringIO()) == 0
    data = read_field_csv(tmp_path / "out" / "tau_xy.csv")
    y, tau = data[:, 3], data[:, 4]
    assert np.max(np.abs(tau + y)) < 1e-8
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "v2_u4_coefficient = lambda/(lambda+mu)" in report


def test_csv_round_trip_and_determinism(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert cmd_solve(str(path), out=io.StringIO()) == 0
    first = {f.name: f.read_bytes()
             for f in sorted((tmp_path / "out").glob("*.csv"))}
    # byte-identical rerun
    assert cmd_solve(str(path), out=io.StringIO()) == 0
    for f in sorted((tmp_path / "out").glob("*.csv")):
        assert f.read_bytes() == first[f.name]
    # shortest-repr cells parse back to the exact binary values
    from biharm.cli import load_config
    from biharm.elasticity import solve_pipeline
    cfg = load_config(path)
    state = solve_pipeline(cfg.g1, cfg.g2, cfg.lame(), cfg.grid(), cfg.basepoint)
    data = read_field_csv(tmp_path / "out" / "sigma_x.csv")
    assert np.array_equal(data[:, 4],
                          state.sigma_x.values.ravel())


def test_output_dir_env_override(tmp_path, monkeypatch):
    path = write_config(tmp_path, ZERO_CONFIG)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("BIHARM_OUTPUT_DIR", str(override))
    assert cmd_solve(str(path), out=io.StringIO()) == 0
    assert (override / "report.txt").exists()
    assert not (tmp_path / "out").exists()


def test_threshold_breach_exit_1(tmp_path):
    # the equilibrium check carries honest finite-difference noise, so an
    # absurd threshold must trip the exit code
    text = ZERO_CONFIG + "g1.cos = 0.5\nthreshold.equilibrium = 1e-30\n"
    path = write_config(tmp_path, text)
    buf = io.StringIO()
    code = cmd_solve(str(path), out=buf)
    assert code == 1
    assert "threshold_exceeded:equilibrium" in buf.getvalue()


def test_cmd_solve_solver_error_exit_3(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, ZERO_CONFIG)
    import biharm.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "solve_pipeline", boom)
    assert cmd_solve(str(path)) == 3
    assert "solver failed" in capsys.readouterr().err


def test_cmd_solve_nan_input_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, ZERO_CONFIG + "g1.a0 = nan\n")
    assert cmd_solve(str(path), out=io.StringIO()) == 2
    assert "g1.a0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nan_residual_is_a_breach():
    residuals = dict.fromkeys(DEFAULT_THRESHOLDS, 0.0)
    residuals["boundary"] = float("nan")
    report = RunReport(residuals=residuals, kernel_note="", timings={},
                       thresholds=dict(DEFAULT_THRESHOLDS))
    assert report.breaches() == ["boundary"]
    assert report.render().startswith("status = threshold_exceeded:boundary")


@pytest.mark.parametrize("via_env", [False, True])
def test_cmd_solve_unwritable_output_dir_exit_2(tmp_path, monkeypatch, capsys,
                                                via_env):
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory\n")
    target = blocker / "out"
    text = ZERO_CONFIG.replace("output_dir = {out}", f"output_dir = {target}")
    if via_env:
        monkeypatch.setenv("BIHARM_OUTPUT_DIR", str(target))
        text = ZERO_CONFIG
    path = write_config(tmp_path, text)
    assert cmd_solve(str(path), out=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert ("BIHARM_OUTPUT_DIR" if via_env else "output_dir") in err
    assert str(target) in err
    assert "Traceback" not in err


def test_cmd_verify_passes():
    buf = io.StringIO()
    assert cmd_verify(seed=42, degree=4, out=buf) == 0
    text = buf.getvalue()
    assert "all invariants passed" in text
    assert text.count("PASS") == 7


def test_cmd_verify_degree_zero_cr_exact():
    buf = io.StringIO()
    assert cmd_verify(seed=7, degree=0, out=buf) == 0
    cr_line = next(line for line in buf.getvalue().splitlines()
                   if " cr " in line)
    assert "worst=0.000e+00" in cr_line


def test_cmd_verify_fault_injection_names_cr():
    buf = io.StringIO()
    assert cmd_verify(seed=42, degree=4, inject_fault="u3y", out=buf) == 1
    text = buf.getvalue()
    assert "failed invariants: cr" in text


def test_main_entrypoint(tmp_path, capsys):
    path = write_config(tmp_path, ZERO_CONFIG)
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--seed", "3", "--degree", "2"]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--inject-fault", "bogus"])


@pytest.mark.parametrize("edit", [("grid.n_r = 12", "grid.n_r = 2"),
                                  ("grid.n_theta = 24",
                                   "grid.n_theta = 24\ngrid.r_max = 0.04")])
def test_cmd_solve_grids_without_interior_radii_exit_0(tmp_path, edit):
    # no grid radius in (0.05, 0.9]: the residual checks still get points
    path = write_config(tmp_path, GOOD_CONFIG.replace(*edit))
    buf = io.StringIO()
    assert cmd_solve(str(path), out=buf) == 0
    assert buf.getvalue().startswith("status = ok")


@pytest.mark.parametrize("flag", ["--degree", "--seed"])
def test_verify_rejects_negative_values(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "-1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# values build_config accepts, including the grid and r_max edges
COEFFICIENTS = st.lists(st.floats(-2.0, 2.0), max_size=8).map(
    lambda values: ", ".join(map(repr, values)))
VALID_VALUES = {
    "lambda": st.sampled_from(["1.0", "0", "2", "0.5", "1e3"]),
    "mu": st.sampled_from(["1.0", "1.5", "0.3", "1e-3"]),
    "g1.a0": st.floats(-2.0, 2.0).map(repr),
    "g1.cos": COEFFICIENTS,
    "g1.sin": COEFFICIENTS,
    "g2.a0": st.floats(-2.0, 2.0).map(repr),
    "g2.cos": COEFFICIENTS,
    "g2.sin": COEFFICIENTS,
    "grid.n_r": st.sampled_from(["8", "2", "3", "16"]),
    "grid.n_theta": st.sampled_from(["16", "4", "5", "32"]),
    "grid.r_max": st.sampled_from(["1", "0.999999", "0.5", "0.05", "0.04", "1e-9"]),
    "basepoint.x": st.sampled_from(["0", "0.3", "-0.6"]),
    "basepoint.y": st.sampled_from(["0", "-0.2", "0.5"]),
    "threshold.lame": st.sampled_from(["1e-3", "1", "1e-30"]),
}
# always set, so that no example falls back to the default 64 x 256 grid
REQUIRED = ("lambda", "mu", "grid.n_r", "grid.n_theta")
HOSTILE_VALUES = ["nan", "inf", "-inf", "NaN", "1e400", "abc", "", ",", "1,,2",
                  "0x10", "-1", "0", "1.5", "2.5", "1e-320", "nan, 1"]
UNKNOWN_KEYS = ["truncation", "nonsense", "grid.nr", "g3.cos", "threshold.bogus"]


@st.composite
def flat_configs(draw):
    """(config text, whether every entry came from VALID_VALUES)."""
    lines = [f"{key} = {draw(values)}" for key, values in VALID_VALUES.items()
             if key in REQUIRED or draw(st.booleans())]
    valid = not draw(st.booleans())
    if not valid:
        for _ in range(draw(st.integers(1, 3))):
            action = draw(st.sampled_from(["value", "unknown", "duplicate",
                                           "drop", "garbage"]))
            index = draw(st.integers(0, len(lines) - 1))
            if action == "unknown":
                lines.append(f"{draw(st.sampled_from(UNKNOWN_KEYS))} = 1")
            elif action == "garbage":
                lines.append("no key value pair here")
            elif action == "value":
                key = lines[index].split(" = ")[0]
                lines[index] = f"{key} = {draw(st.sampled_from(HOSTILE_VALUES))}"
            elif action == "duplicate":
                lines.append(lines[index])
            else:  # drop lambda or mu
                del lines[index % 2]
    return "\n".join(lines) + "\n", valid


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on extreme moduli
@settings(max_examples=60, deadline=None, derandomize=True)
@given(flat_configs())
def test_cmd_solve_exit_code_contract(case):
    # every config ends in one of the documented exit codes, with no
    # traceback; a config drawn only from accepted values must solve
    # (exit 0, or 1 when a residual breaches its threshold)
    text, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(text)
        err = io.StringIO()
        with mock.patch.dict(os.environ, {ENV_OUTPUT_DIR: str(Path(tmp) / "out")}), \
                contextlib.redirect_stderr(err):
            code = cmd_solve(str(config), out=io.StringIO())
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if valid:
        assert code in (0, 1), err.getvalue()
