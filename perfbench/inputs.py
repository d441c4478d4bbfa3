"""Seeded inputs and their manufactured exact solutions.

Every input is built from a monogenic pair (F, G) chosen first.  The
boundary traces of the first and fourth components are computed in
coefficient space (the product with sin(theta) is the exact index shift
sin*cos(n) = [sin(n+1) - sin(n-1)]/2, sin*sin(n) = [cos(n-1) - cos(n+1)]/2),
and the gradient data g1 = du/dx, g2 = dv/dy follow by inverting
u1 = lam*g1 + (lam+2mu)*g2, u4 = mu*(g2 - g1).  Nothing here imports the
library under test, so the exact fields below are an independent reference.

F and G have Im F(0) = Im G(0) = 0, which is the solver's normalization, so
the solver must return exactly this pair up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

WORKLOADS = ("solve_high", "solve_low", "spectral", "verify")

LAM, MU = 2.0, 1.5
BASEPOINT = (0.3, -0.2)
DECAY = 0.75
SPECTRAL_MODES = (512, 1024, 2048)
VERIFY_DEGREE = 8
FAULT_EVERY = 10
FAULT_EQUATION = "u3y"
# Library defaults that a config without grid keys gets.
DEFAULT_GRID = (64, 256, 1.0 - 1e-6)

SOLVE_SHAPES = {
    "solve_high": {"degree": 48, "grid": (48, 128, 1.0 - 1e-6), "grid_keys": True},
    "solve_low": {"degree": 2, "grid": DEFAULT_GRID, "grid_keys": False},
}

# Input seed reserved for the anchor job, whose outputs are stored in
# reference.json; measured jobs use (seed, workload, job) streams.
ANCHOR_SEED = 20160107


def job_rng(seed: int, workload: str, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), job])


@dataclass(frozen=True)
class Trig:
    """Real trigonometric polynomial a0 + sum a[n-1] cos(n th) + b[n-1] sin(n th)."""

    a0: float
    a: np.ndarray
    b: np.ndarray

    def __add__(self, other: "Trig") -> "Trig":
        n = max(len(self.a), len(other.a))
        return Trig(self.a0 + other.a0, _pad(self.a, n) + _pad(other.a, n),
                    _pad(self.b, n) + _pad(other.b, n))

    def scaled(self, s: float) -> "Trig":
        return Trig(s * self.a0, s * self.a, s * self.b)


def _pad(v: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([v, np.zeros(n - len(v))])


def re_trace(h: np.ndarray) -> Trig:
    """Fourier coefficients of Re H(e^{i th}) for H = sum h_k z^k."""
    return Trig(float(h[0].real), h[1:].real.copy(), -h[1:].imag)


def sin_times_im_trace(h: np.ndarray) -> Trig:
    """Coefficients of sin(th) * Im H(e^{i th}), by exact index shifting."""
    n = len(h)
    a = np.zeros(n + 1)  # a[m] is the cos(m th) coefficient, a[0] the mean
    b = np.zeros(n + 1)
    cos_m = h.imag       # Im(h_m e^{im th}) = Im h_m cos + Re h_m sin
    sin_m = h.real
    b[1] += cos_m[0]
    for m in range(1, n):
        b[m + 1] += 0.5 * cos_m[m]
        b[m - 1] -= 0.5 * cos_m[m]
        a[m - 1] += 0.5 * sin_m[m]
        a[m + 1] -= 0.5 * sin_m[m]
    return Trig(float(a[0]), a[1:], b[1:])


def component_traces(f: np.ndarray, g: np.ndarray) -> tuple[Trig, Trig]:
    """Boundary traces of U1 = Re(F+G) + y Im F' and U4 = Re G + y Im F'."""
    n = max(len(f), len(g))
    f, g = _pad_c(f, n), _pad_c(g, n)
    y_dim = sin_times_im_trace(npoly.polyder(f) if n > 1 else np.zeros(1, complex))
    return re_trace(f + g) + y_dim, re_trace(g) + y_dim


def _pad_c(v: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([v, np.zeros(n - len(v), complex)])


def gradients_from_traces(u1: Trig, u4: Trig, lam: float, mu: float) -> tuple[Trig, Trig]:
    """Invert u1 = lam*g1 + (lam+2mu)*g2 and u4 = mu*(g2 - g1)."""
    g1 = (u1 + u4.scaled(-(lam + 2 * mu) / mu)).scaled(1.0 / (2 * (lam + mu)))
    g2 = g1 + u4.scaled(1.0 / mu)
    return g1, g2


def random_pair(rng: np.random.Generator, degree: int, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex coefficients of F and G with |c_k| ~ decay**k and real constants."""
    damp = decay ** np.arange(degree + 1)
    f = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * damp
    g = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * damp
    f[0], g[0] = f[0].real, g[0].real
    return f, g


def spectral_pair(rng: np.random.Generator, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair whose boundary data have unit-order coefficients at every mode.

    The y*Im F' term multiplies mode k of F by k, so F is damped by 1/k.
    """
    k = np.maximum(1, np.arange(modes + 1))
    f, g = random_pair(rng, modes, 1.0)
    return f / k, g


# ---------------------------------------------------------------------------
# solve workloads


@dataclass(frozen=True)
class SolveCase:
    f: np.ndarray
    g: np.ndarray
    g1: Trig
    g2: Trig
    grid: tuple[int, int, float]
    grid_keys: bool
    lam: float = LAM
    mu: float = MU
    basepoint: tuple[float, float] = BASEPOINT

    def config_text(self, output_dir: str) -> str:
        lines = [f"lambda = {self.lam!r}", f"mu = {self.mu!r}"]
        for name, h in (("g1", self.g1), ("g2", self.g2)):
            lines.append(f"{name}.a0 = {h.a0!r}")
            lines.append(f"{name}.cos = " + ", ".join(repr(float(v)) for v in h.a))
            lines.append(f"{name}.sin = " + ", ".join(repr(float(v)) for v in h.b))
        if self.grid_keys:
            n_r, n_theta, r_max = self.grid
            lines += [f"grid.n_r = {n_r}", f"grid.n_theta = {n_theta}",
                      f"grid.r_max = {r_max!r}"]
        lines += [f"basepoint.x = {self.basepoint[0]!r}",
                  f"basepoint.y = {self.basepoint[1]!r}",
                  f"output_dir = {output_dir}"]
        return "\n".join(lines) + "\n"


def solve_case(workload: str, rng: np.random.Generator) -> SolveCase:
    shape = SOLVE_SHAPES[workload]
    f, g = random_pair(rng, shape["degree"], DECAY)
    u1, u4 = component_traces(f, g)
    g1, g2 = gradients_from_traces(u1, u4, LAM, MU)
    return SolveCase(f, g, g1, g2, shape["grid"], shape["grid_keys"])


def grid_points(grid: tuple[int, int, float]):
    """(r, theta, x, y) flattened in the CSV row order (radius-major)."""
    n_r, n_theta, r_max = grid
    r, th = np.meshgrid(np.linspace(0.0, r_max, n_r),
                        2.0 * np.pi * np.arange(n_theta) / n_theta, indexing="ij")
    r, th = r.ravel(), th.ravel()
    return r, th, r * np.cos(th), r * np.sin(th)


def exact_fields(case: SolveCase, x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """All 13 output fields of the manufactured solution, in closed form.

    Gauges follow the program's conventions: W_xy and the displacements
    vanish at the basepoint.  The displacements use the antiderivative pair
    P = (int F, int G): u = P1/(2(lam+mu)) - (lam+2mu) P4/(2mu(lam+mu))
    + w0*y/(2mu) and v = (lam+2mu) P2/(2mu(lam+mu)) + P3/(2(lam+mu))
    + w0*x/(2mu), less their basepoint values, where w0 is the value of
    -Im G + y Re F' at the basepoint.
    """
    lam, mu = case.lam, case.mu
    xb, yb = case.basepoint

    def parts(xs, ys):
        z = xs + 1j * ys
        fv, gv = npoly.polyval(z, case.f), npoly.polyval(z, case.g)
        dfv = npoly.polyval(z, npoly.polyder(case.f)) if len(case.f) > 1 else 0 * z
        af = npoly.polyval(z, npoly.polyint(case.f))
        ag = npoly.polyval(z, npoly.polyint(case.g))
        comps = ((fv + gv).real + ys * dfv.imag, (fv + gv).imag - ys * dfv.real,
                 -gv.imag + ys * dfv.real, gv.real + ys * dfv.imag)
        pots = ((af + ag).real + ys * fv.imag, (af + ag).imag - ys * fv.real,
                -ag.imag + ys * fv.real, ag.real + ys * fv.imag)
        return comps, pots, fv

    (u1, u2, u3, u4), (p1, p2, p3, p4), fv = parts(x, y)
    (_, _, u3b, _), (p1b, p2b, p3b, p4b), _ = parts(np.array([xb]), np.array([yb]))
    w0 = float(u3b[0])
    w_xy = u3 - w0
    k0 = (lam + 2 * mu) / (2 * (lam + mu))
    v1 = (mu * u1 - (lam + 2 * mu) * u4) / (2 * mu * (lam + mu))
    v2 = (mu * u1 + lam * u4) / (2 * mu * (lam + mu))

    def u_disp(p1, p4, ys):
        return p1 / (2 * (lam + mu)) - (lam + 2 * mu) * p4 / (2 * mu * (lam + mu)) + w0 * ys / (2 * mu)

    def v_disp(p2, p3, xs):
        return (lam + 2 * mu) * p2 / (2 * mu * (lam + mu)) + p3 / (2 * (lam + mu)) + w0 * xs / (2 * mu)

    return {
        "u1": u1, "u2": u2, "u3": u3, "u4": u4, "v1": v1, "v2": v2,
        "v3": (-w_xy - 2 * k0 * fv.imag) / (2 * mu),
        "v4": (-w_xy + 2 * k0 * fv.imag) / (2 * mu),
        "sigma_x": (lam + 2 * mu) * v1 + lam * v2,
        "sigma_y": lam * v1 + (lam + 2 * mu) * v2,
        "tau_xy": -w_xy,
        "u": u_disp(p1, p4, y) - u_disp(p1b, p4b, yb)[0],
        "v": v_disp(p2, p3, x) - v_disp(p2b, p3b, xb)[0],
    }


# ---------------------------------------------------------------------------
# spectral workload


def spectral_case(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Arrays for one spectral job: for each mode count n, F, G, g1, g2."""
    out = {}
    for n in SPECTRAL_MODES:
        f, g = spectral_pair(rng, n)
        g1, g2 = gradients_from_traces(*component_traces(f, g), LAM, MU)
        out[f"f{n}"], out[f"g{n}"] = f, g
        for name, h in (("g1", g1), ("g2", g2)):
            out[f"{name}_{n}"] = np.concatenate([[h.a0], h.a, h.b])
    return out


# ---------------------------------------------------------------------------
# verify workload


def verify_job(seed: int, job: int) -> tuple[int, str | None]:
    """Battery seed and injected fault for one verify job: consecutive seeds
    from a seed-dependent start, and every tenth job with a flipped sign."""
    start = int(job_rng(seed, "verify", 0).integers(0, 2 ** 31))
    fault = FAULT_EQUATION if job % FAULT_EVERY == FAULT_EVERY - 1 else None
    return start + job, fault
