"""Per-job output checks.  Each returns a list of problems; empty means the
job is correct.

Tolerances are fixed in advance, not fitted to what the program achieves:
field values may drift by rounding (1e-9 of the field's scale, about seven
orders above double-precision noise on these inputs), and the spectral
round trip uses the program's own default boundary threshold.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs

FIELDS = ("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4",
          "sigma_x", "sigma_y", "tau_xy", "u", "v")
GAUGE_FREE = ("u1", "u2", "u3", "u4", "v1", "v2", "sigma_x", "sigma_y")
HEADER = "r,theta,x,y,value"
FIELD_TOL = 1e-9
SPECTRAL_TOL = 1e-8
REFERENCE_SAMPLES = 32
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(f"{path.name}: header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def check_report(code: int, report: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not report.startswith("status = ok\n"):
        problems.append("report: " + report.split("\n", 1)[0])
    return problems


def load_fields(out_dir: Path, grid) -> tuple[dict[str, np.ndarray], list[str]]:
    """Value columns of all 13 CSVs, after checking the coordinate columns."""
    coords = np.column_stack(inputs.grid_points(grid))
    values, problems = {}, []
    for name in FIELDS:
        try:
            data = read_csv(out_dir / f"{name}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if data.shape != (len(coords), 5):
            problems.append(f"{name}: shape {data.shape}, want {(len(coords), 5)}")
            continue
        if _scaled_error(data[:, :4], coords) > FIELD_TOL:
            problems.append(f"{name}: coordinates differ from the grid")
        values[name] = data[:, 4]
    return values, problems


def check_manufactured(case: inputs.SolveCase, values: dict[str, np.ndarray]) -> list[str]:
    """Every field against the closed-form manufactured solution."""
    _, _, x, y = inputs.grid_points(case.grid)
    exact = inputs.exact_fields(case, x, y)
    problems = []
    for name, got in values.items():
        err = _scaled_error(got, exact[name])
        if not err <= FIELD_TOL:
            kind = "gauge-free" if name in GAUGE_FREE else "gauged"
            problems.append(f"{name} ({kind}): scaled error {err:.3e} > {FIELD_TOL:g}")
    return problems


def reference_digest(values: dict[str, np.ndarray]) -> dict:
    """Sampled values and full sums of every field, for reference.json."""
    out = {}
    for name in FIELDS:
        v = values[name]
        idx = np.linspace(0, len(v) - 1, REFERENCE_SAMPLES).astype(int)
        out[name] = {"rows": len(v), "index": idx.tolist(),
                     "values": v[idx].tolist(), "sum": float(v.sum())}
    return out


def check_reference(workload: str, values: dict[str, np.ndarray],
                    path: Path = REFERENCE_PATH) -> list[str]:
    """The anchor job's fields against the digest stored at the seed commit."""
    ref = json.loads(path.read_text())[workload]["fields"]
    problems = []
    for name in FIELDS:
        if name not in values:
            continue
        want, got = ref[name], values[name]
        if len(got) != want["rows"]:
            problems.append(f"{name}: {len(got)} rows, reference has {want['rows']}")
            continue
        sample = np.array(want["values"])
        scale = max(1.0, float(np.max(np.abs(sample))))
        err = np.max(np.abs(got[want["index"]] - sample)) / scale
        sum_err = abs(float(got.sum()) - want["sum"]) / (scale * len(got))
        if not max(err, sum_err) <= FIELD_TOL:
            problems.append(f"{name}: differs from the stored reference "
                            f"by {max(err, sum_err):.3e}")
    return problems


def check_spectral(result: dict) -> list[str]:
    problems = []
    for n, r in result.items():
        for key in ("f_err", "g_err", "residual"):
            if not r[key] <= SPECTRAL_TOL:
                problems.append(f"n={n}: {key} {r[key]:.3e} > {SPECTRAL_TOL:g}")
    return problems


def check_verify(code: int, text: str, fault: str | None) -> list[str]:
    if fault is None:
        return [] if code == 0 else [f"exit code {code}: {text.strip().splitlines()[-1]}"]
    if code != 1:
        return [f"injected fault {fault}: exit code {code}, want 1"]
    failed = [line for line in text.splitlines() if line.startswith("failed invariants:")]
    names = failed[-1].split(":", 1)[1].replace(",", " ").split() if failed else []
    return [] if "cr" in names else [f"injected fault {fault}: 'cr' not named ({names})"]
