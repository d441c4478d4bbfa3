"""Workload process: one client running one job at a time for run.py.

It imports biharm, announces that it is ready (the end of set-up), then
reads one JSON command per line from stdin and answers each with one JSON
line on its stdout.  Each answer carries the speed probes (calib.py) taken
during and right after the job, the announcement those taken right after
set-up.  Library output goes to stderr.  With --setup-only it exits right
after announcing readiness.
"""

import sys
import time

import biharm  # noqa: F401  (the set-up being measured)

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from biharm import cli, elasticity, holomorphic, schwarz  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402


def solve_job(msg):
    out = io.StringIO()
    code = cli.cmd_solve(msg["config"], out=out)
    return {"code": code, "report": out.getvalue()}


def load_spectral(msg):
    data = np.load(msg["npz"])
    lame = elasticity.LameConstants(msg["lam"], msg["mu"])
    cases = []
    for n in msg["modes"]:
        def trig(v):
            return holomorphic.BoundaryFunction(v[0], tuple(v[1:n + 1]), tuple(v[n + 1:]))
        cases.append((n, trig(data[f"g1_{n}"]), trig(data[f"g2_{n}"]),
                      data[f"f{n}"], data[f"g{n}"]))
    return lame, cases


def spectral_job(lame, cases):
    solved = []
    for n, g1, g2, _, _ in cases:
        problem = elasticity.boundary_map(g1, g2, lame)
        phi = schwarz.solve_14(problem)
        solved.append((phi, schwarz.boundary_residual(phi, problem)))
    return solved


def spectral_errors(cases, solved):
    out = {}
    for (n, _, _, f, g), (phi, residual) in zip(cases, solved):
        scale = max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(g))))
        out[str(n)] = {
            "f_err": float(np.max(np.abs(np.asarray(phi.f.coeffs) - f))) / scale,
            "g_err": float(np.max(np.abs(np.asarray(phi.g.coeffs) - g))) / scale,
            "residual": float(residual)}
    return out


def verify_job(msg):
    out = io.StringIO()
    code = cli.cmd_verify(msg["seed"], msg["degree"], msg["fault"], out=out)
    return {"code": code, "report": out.getvalue()}


def run(msg, rec):
    """Run one job under the speed sampler; returns the reply fields."""
    if msg["kind"] == "spectral":
        lame, cases = load_spectral(msg)
        fn, args = spectral_job, (lame, cases)
    else:
        fn, args = (solve_job if msg["kind"] == "solve" else verify_job), (msg,)
    if msg["trace"]:
        rec.install()
    try:
        with calib.Sampler(active=msg["sample"]) as sampler:
            t0 = time.perf_counter()
            result = rec.run_job(msg["job"], fn, *args) if msg["trace"] else fn(*args)
            latency = time.perf_counter() - t0 - sampler.spent
    finally:
        rec.uninstall()
    if msg["kind"] == "spectral":
        result = {"spectral": spectral_errors(cases, result)}
    return {"latency": latency, "probes": sampler.samples, "edge": calib.edge_probes(),
            **result}


def main() -> int:
    proto, sys.stdout = sys.stdout, sys.stderr

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": READY, "biharm": biharm.__file__, "edge": calib.edge_probes()})
    if "--setup-only" in sys.argv:
        return 0
    rec = spans.Recorder()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "quit":
            summary = spans.summarize(rec) if len(rec.start) else None
            if summary and msg.get("trace_path"):
                rec.save(msg["trace_path"])
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "trace": summary})
            return 0
        try:
            reply = run(msg, rec)
        except Exception as exc:  # a failed job is counted, not fatal
            reply = {"error": f"{type(exc).__name__}: {exc}", "edge": calib.edge_probes()}
        send({"job": msg["job"], **reply})
    return 1


if __name__ == "__main__":
    sys.exit(main())
