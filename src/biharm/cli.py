"""Batch front end: `solve` runs the reconstruction pipeline from a config
file and writes field grids plus a residual report; `verify` runs the
pseudo-random invariant battery.

Config files are flat `key = value` text (comments with '#'); boundary
data enters only as Fourier coefficients so the exactness class of the
solver stays explicit.  CSV cells use repr(), the shortest decimal that
round-trips, so outputs are deterministic and diffable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .balgebra import BElement, E1, E2, RHO, invert, multiply, to_nilpotent
from .elasticity import (FIELD_NAMES, FieldEvaluator, LameConstants,
                         PolarGrid, V2_U4_COEFFICIENT, lame_pairs,
                         lame_residual, solve_pipeline)
from .holomorphic import BoundaryFunction
from .monogenic import biharmonic_residual, cr_residual, random_b_polynomial
from .schwarz import (DEFAULT_MODE_CAP, Problem14, boundary_residual,
                      kernel_basis, solve_14)

ENV_OUTPUT_DIR = "BIHARM_OUTPUT_DIR"

DEFAULT_THRESHOLDS = {
    "boundary": 1e-8,
    "equilibrium": 1e-6,
    "hooke": 1e-9,
    "lame": 1e-3,   # h = 1e-3 checker truncation grows with boundary degree
    "loop": 1e-10,
}


class ConfigError(ValueError):
    """Invalid or missing config entry; the message names the field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


@dataclass
class RunConfig:
    lam: float
    mu: float
    g1: BoundaryFunction
    g2: BoundaryFunction
    n_r: int = 64
    n_theta: int = 256
    r_max: float = 1.0 - 1e-6
    basepoint: tuple[float, float] = (0.0, 0.0)
    output_dir: Path = Path("biharm_out")
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def lame(self) -> LameConstants:
        return LameConstants(self.lam, self.mu)

    def grid(self) -> PolarGrid:
        return PolarGrid(self.n_r, self.n_theta, self.r_max)


@dataclass
class RunReport:
    residuals: dict
    kernel_note: str
    timings: dict
    thresholds: dict
    v2_u4_coefficient: str = V2_U4_COEFFICIENT

    def breaches(self) -> list[str]:
        out = []
        for name, limit in self.thresholds.items():
            # written so that a NaN residual counts as a breach
            if not self.residuals[name] <= limit:
                out.append(name)
        return out

    def render(self) -> str:
        lines = ["status = " + ("ok" if not self.breaches() else
                                "threshold_exceeded:" + ",".join(self.breaches()))]
        for name in DEFAULT_THRESHOLDS:
            lines.append(f"{name}_residual = {self.residuals[name]!r}")
        for name, limit in sorted(self.thresholds.items()):
            lines.append(f"threshold.{name} = {limit!r}")
        lines.append(f"v2_u4_coefficient = {self.v2_u4_coefficient}")
        lines.append(f"kernel_note = {self.kernel_note}")
        for stage, secs in self.timings.items():
            lines.append(f"timing.{stage} = {secs:.6f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing


def parse_flat_config(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in entries:
            raise ConfigError(key, "duplicate key")
        entries[key] = value
    return entries


def _take_float(raw: dict, key: str, default=None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigError(key, "required")
        return default
    value = raw.pop(key)
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(key, f"not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(key, f"must be finite, got {value!r}")
    return number


def _take_int(raw: dict, key: str, default: int) -> int:
    if key not in raw:
        return default
    value = raw.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(key, f"not an integer: {value!r}") from None


def _take_floats(raw: dict, key: str) -> tuple[float, ...]:
    if key not in raw:
        return ()
    value = raw.pop(key).strip()
    if not value:
        return ()
    try:
        numbers = tuple(float(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(key, f"not a comma-separated number list: {value!r}") from None
    if not all(math.isfinite(number) for number in numbers):
        raise ConfigError(key, f"every entry must be finite, got {value!r}")
    if len(numbers) > DEFAULT_MODE_CAP:
        raise ConfigError(key, f"{len(numbers)} coefficients exceed the mode "
                               f"cap {DEFAULT_MODE_CAP}")
    return numbers


def _take_boundary(raw: dict, prefix: str) -> BoundaryFunction:
    return BoundaryFunction(_take_float(raw, f"{prefix}.a0", 0.0),
                            _take_floats(raw, f"{prefix}.cos"),
                            _take_floats(raw, f"{prefix}.sin"))


def build_config(raw: dict[str, str]) -> RunConfig:
    raw = dict(raw)
    lam = _take_float(raw, "lambda")
    mu = _take_float(raw, "mu")
    g1 = _take_boundary(raw, "g1")
    g2 = _take_boundary(raw, "g2")
    n_r = _take_int(raw, "grid.n_r", 64)
    n_theta = _take_int(raw, "grid.n_theta", 256)
    r_max = _take_float(raw, "grid.r_max", 1.0 - 1e-6)
    bx = _take_float(raw, "basepoint.x", 0.0)
    by = _take_float(raw, "basepoint.y", 0.0)
    output_dir = raw.pop("output_dir", "biharm_out")
    if not output_dir:
        raise ConfigError("output_dir", "must not be empty")
    thresholds = {}
    for name, default in DEFAULT_THRESHOLDS.items():
        key = f"threshold.{name}"
        thresholds[name] = _take_float(raw, key, default)
        if thresholds[name] < 0:
            raise ConfigError(key, f"must be >= 0, got {thresholds[name]!r}")
    if raw:
        raise ConfigError(sorted(raw)[0], "unknown key")

    if not mu > 0:
        raise ConfigError("mu", f"must be positive, got {mu!r}")
    if not lam + mu > 0:
        raise ConfigError("lambda", f"lambda + mu must be positive, got {lam + mu!r}")
    if not 0 < r_max <= 1.0:
        raise ConfigError("grid.r_max", f"must lie in (0, 1], got {r_max!r}")
    if n_r < 2 or n_theta < 4:
        raise ConfigError("grid.n_r", "grid must be at least 2 x 4")
    if np.hypot(bx, by) >= 1.0:
        raise ConfigError("basepoint.x", "basepoint must lie strictly inside the disk")
    return RunConfig(lam, mu, g1, g2, n_r, n_theta, r_max, (bx, by),
                     Path(output_dir), thresholds)


def load_config(path: Path) -> RunConfig:
    try:
        text = path.read_bytes().decode("utf-8-sig")  # a leading BOM is allowed
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from None
    return build_config(parse_flat_config(text))


# ---------------------------------------------------------------------------
# solve subcommand


def csv_row_prefixes(grid: PolarGrid) -> list[str]:
    """The "r,theta,x,y," start of every CSV row, shared by all fields."""
    cols = [col.ravel().tolist() for col in grid.mesh]
    return [f"{r!r},{th!r},{x!r},{y!r}," for r, th, x, y in zip(*cols)]


def write_field_csv(path: Path, grid: PolarGrid, values: np.ndarray,
                    prefixes: list[str]) -> None:
    """One field on `grid` as r,theta,x,y,value rows; `prefixes` comes from
    csv_row_prefixes(grid)."""
    rows = map(str.__add__, prefixes, map(repr, values.ravel().tolist()))
    path.write_text("r,theta,x,y,value\n" + "\n".join(rows) + "\n")


def read_field_csv(path: Path):
    rows = path.read_text().splitlines()
    data = np.array([[float(cell) for cell in line.split(",")]
                     for line in rows[1:]])
    return data


def cmd_solve(config_path: str, out=sys.stdout) -> int:
    try:
        config = load_config(Path(config_path))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    override = os.environ.get(ENV_OUTPUT_DIR)
    out_dir = Path(override) if override else config.output_dir
    out_source = ENV_OUTPUT_DIR if override else "output_dir"

    try:
        state = solve_pipeline(config.g1, config.g2, config.lame(),
                               config.grid(), config.basepoint)
    except Exception as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 3

    report = RunReport(residuals=state.residuals, kernel_note=state.kernel_note,
                       timings=state.timings, thresholds=config.thresholds)
    prefixes = csv_row_prefixes(state.grid)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in FIELD_NAMES:
            write_field_csv(out_dir / f"{name}.csv", state.grid,
                            state.fields[name], prefixes)
        (out_dir / "report.txt").write_text(report.render())
    except OSError as exc:
        print(f"error: {out_source} {str(out_dir)!r}: cannot write outputs: "
              f"{exc}", file=sys.stderr)
        return 2
    print(report.render(), end="", file=out)
    return 0 if not report.breaches() else 1


# ---------------------------------------------------------------------------
# verify subcommand: the invariant battery


def _interior_points(rng, count, radius=0.6):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2 * np.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _random_element(rng, nondegenerate=False) -> BElement:
    while True:
        a = BElement(*rng.uniform(-2.0, 2.0, 4))
        if not nondegenerate:
            return a
        if abs(to_nilpotent(a).c) > 0.3:
            return a


def _check_algebra(rng, degree):
    tol = 1e-12
    worst = 0.0
    worst = max(worst, (multiply(E2, E2) - BElement(1, 0, 0, 2)).norm())
    square_sum = multiply(E1, E1) + multiply(E2, E2)
    worst = max(worst, multiply(square_sum, square_sum).norm())
    if square_sum.norm() == 0.0:
        return False, 1.0, tol
    worst = max(worst, multiply(RHO, RHO).norm())
    for _ in range(1000):
        a = _random_element(rng, nondegenerate=True)
        worst = max(worst, (multiply(a, invert(a)) - E1).norm())
    for _ in range(300):
        a, b, c = (_random_element(rng) for _ in range(3))
        worst = max(worst, (multiply(a, b) - multiply(b, a)).norm())
        worst = max(worst, (multiply(multiply(a, b), c)
                            - multiply(a, multiply(b, c))).norm())
        worst = max(worst, (multiply(a, b + c)
                            - (multiply(a, b) + multiply(a, c))).norm())
    return worst < tol, worst, tol


def _battery_polys(rng, degree, count=8):
    return [random_b_polynomial(rng, int(rng.integers(0, degree + 1)))
            for _ in range(count)]


def _check_cr(rng, degree, flip=None):
    tol = 1e-7
    pts = _interior_points(rng, 50)
    worst = max(cr_residual(phi, pts, flip=flip)
                for phi in _battery_polys(rng, degree))
    return worst < tol, worst, tol


def _check_biharmonic(rng, degree):
    tol = 1e-5
    pts = _interior_points(rng, 40)
    worst = max(biharmonic_residual(phi, pts)
                for phi in _battery_polys(rng, degree))
    return worst < tol, worst, tol


def _check_second_derivatives(rng, degree):
    # second x- and y-differences of the first component against the
    # component formulas evaluated on the second algebra derivative
    tol = 1e-6
    h = 1e-4
    worst = 0.0
    pts = _interior_points(rng, 100)
    x, y = pts[:, 0], pts[:, 1]
    for phi_star in _battery_polys(rng, degree, count=5):
        phi = phi_star.derivative().derivative()
        u1 = lambda a, b: phi_star.components(a, b)[0]
        wxx = (u1(x + h, y) - 2 * u1(x, y) + u1(x - h, y)) / h ** 2
        wyy = (u1(x, y + h) - 2 * u1(x, y) + u1(x, y - h)) / h ** 2
        c = phi.components(x, y)
        worst = max(worst, float(np.max(np.abs(wxx - c[0]))))
        worst = max(worst, float(np.max(np.abs(wyy - (c[0] - 2 * c[3])))))
    return worst < tol, worst, tol


def _trace_problem(phi, degree):
    m = 4 * degree + 9
    th = 2.0 * np.pi * np.arange(m) / m
    u1, _, _, u4 = phi.components(np.cos(th), np.sin(th))
    return Problem14(BoundaryFunction.from_samples(u1, degree),
                     BoundaryFunction.from_samples(u4, degree),
                     degree)


def _check_solver_roundtrip(rng, degree):
    tol = 1e-10
    worst = 0.0
    pts = _interior_points(rng, 60)
    for phi0 in _battery_polys(rng, degree, count=6):
        problem = _trace_problem(phi0, max(phi0.degree, 1))
        sol = solve_14(problem)
        a = phi0.components(pts[:, 0], pts[:, 1])
        b = sol.components(pts[:, 0], pts[:, 1])
        worst = max(worst, float(np.max(np.abs(a[0] - b[0]))))
        worst = max(worst, float(np.max(np.abs(a[3] - b[3]))))
        # difference must be the two imaginary constants (kernel +
        # normalization); all other coefficients agree
        df = (sol.f + phi0.f.scaled(-1)).coeffs
        dg = (sol.g + phi0.g.scaled(-1)).coeffs
        worst = max(worst, abs(df[0].real), abs(dg[0].real))
        worst = max(worst, max((abs(c) for c in df[1:]), default=0.0))
        worst = max(worst, max((abs(c) for c in dg[1:]), default=0.0))
    return worst < tol, worst, tol


def _check_lame_pairs(rng, degree):
    # decay 0.2: the h = 1e-3 second-difference truncation must stay
    # inside the 1e-6 budget for degree-6 fourth derivatives
    tol = 1e-6
    worst = 0.0
    pts = _interior_points(rng, 40)
    for lam, mu in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        lame = LameConstants(lam, mu)
        for _ in range(4):
            phi = random_b_polynomial(rng, int(rng.integers(0, min(degree, 6) + 1)),
                                      decay=0.2)
            for u, v in lame_pairs(phi, lame):
                worst = max(worst, lame_residual(u, v, lame.gamma, pts))
    return worst < tol, worst, tol


def _check_kernel(rng, degree):
    tol = 1e-12
    pts = _interior_points(rng, 50)
    phi0 = random_b_polynomial(rng, max(degree, 1))
    problem = _trace_problem(phi0, max(phi0.degree, 1))
    sol = solve_14(problem)
    lame = LameConstants(1.0, 1.0)
    worst = abs(boundary_residual(sol, problem))
    shifted = sol
    for coef, basis in zip((0.7, -1.3), kernel_basis()):
        shifted = shifted + basis.scaled(coef)
    a = FieldEvaluator(sol, lame)(pts[:, 0], pts[:, 1])
    b = FieldEvaluator(shifted, lame)(pts[:, 0], pts[:, 1])
    worst = max(worst, *(float(np.max(np.abs(a[name] - b[name])))
                         for name in ("v1", "v2")))
    worst = max(worst, abs(boundary_residual(shifted, problem)))
    return worst < tol, worst, tol


BATTERY = (
    ("algebra", _check_algebra),
    ("cr", _check_cr),
    ("biharmonic", _check_biharmonic),
    ("second_derivatives", _check_second_derivatives),
    ("solver_roundtrip", _check_solver_roundtrip),
    ("lame_pairs", _check_lame_pairs),
    ("kernel", _check_kernel),
)


def cmd_verify(seed: int, degree: int, inject_fault: str | None = None,
               out=sys.stdout) -> int:
    failures = []
    print(f"invariant battery: seed={seed} degree={degree}"
          + (f" inject_fault={inject_fault}" if inject_fault else ""), file=out)
    for index, (name, check) in enumerate(BATTERY):
        rng = np.random.default_rng((seed, index))
        t0 = time.perf_counter()
        if name == "cr":
            passed, worst, tol = check(rng, degree, flip=inject_fault)
        else:
            passed, worst, tol = check(rng, degree)
        dt = time.perf_counter() - t0
        status = "PASS" if passed else "FAIL"
        print(f"{status:4s}  {name:20s} worst={worst:.3e}  tol={tol:.1e}  "
              f"({dt:.2f}s)", file=out)
        if not passed:
            failures.append(name)
    if failures:
        print("failed invariants: " + ", ".join(failures), file=out)
        return 1
    print("all invariants passed", file=out)
    return 0


# ---------------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Plane-strain elastic fields on the unit disk from "
                    "boundary values of du/dx and dv/dy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the pipeline from a config file")
    p_solve.add_argument("config", help="path to a flat key = value config file")

    p_verify = sub.add_parser("verify", help="run the pseudo-random invariant battery")
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    p_verify.add_argument("--degree", type=_non_negative_int, default=6)
    p_verify.add_argument("--inject-fault", default=None,
                          choices=("u1y", "u2y", "u3y", "u4y"),
                          help="flip the named compatibility equation inside "
                               "the checker (the battery must then fail)")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args.config)
    return cmd_verify(args.seed, args.degree, args.inject_fault)


if __name__ == "__main__":
    sys.exit(main())
