"""Run the closed-form demonstration case end to end and print the
reconstructed fields against their analytic values.

With lam = mu = 1 and both boundary gradients tracing cos(theta)/4, the
exact fields are

    u = x^2/8 - 5y^2/8,  v = xy/4,
    sigma_x = sigma_y = x,  tau_xy = -y,

so every printed error should sit at rounding level.
"""

import numpy as np

from biharm.elasticity import LameConstants, PolarGrid, solve_pipeline
from biharm.holomorphic import BoundaryFunction


def main():
    lame = LameConstants(1.0, 1.0)
    grid = PolarGrid(48, 128)
    g = BoundaryFunction(0.0, (0.25,), ())
    state = solve_pipeline(g, g, lame, grid)

    _, _, x, y = grid.mesh
    exact = {
        "u": x ** 2 / 8 - 5 * y ** 2 / 8,
        "v": x * y / 4,
        "sigma_x": x,
        "sigma_y": x,
        "tau_xy": -y,
        "v1": x / 4,
        "v2": x / 4,
        "v3": -5 * y / 4,
        "v4": y / 4,
    }
    print(f"{'field':10s} {'max |error|':>14s}")
    for name, target in exact.items():
        err = np.max(np.abs(state.fields[name] - target))
        print(f"{name:10s} {err:14.3e}")

    print("\nresiduals:")
    for name, value in state.residuals.items():
        print(f"  {name:12s} {value:.3e}")
    print("\ntimings [s]:")
    for stage, secs in state.timings.items():
        print(f"  {stage:14s} {secs:.3f}")


if __name__ == "__main__":
    main()
