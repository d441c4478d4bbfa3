"""biharm benchmark: one seeded workload, timed from outside the library.

    python3 perfbench/run.py --workload solve_high --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src in a
fresh workload process; nothing is installed.  Workloads (see BENCHMARK.json
and perfbench/record.json):

  solve_high  in-process `biharm solve`, boundary degree 48, 48x128 grid
  solve_low   in-process `biharm solve`, boundary degree 2, 64x256 grid
  spectral    boundary_map -> solve_14 -> boundary_residual at 512/1024/2048 modes
  verify      `biharm verify --degree 8` over consecutive seeds, every
              tenth with the u3y fault injected

Each workload is a closed loop with one client: the next job is sent only
after the previous one has completed and been checked.  One untimed warm-up
precedes the timed jobs; timing stops once the jobs have been busy for
--seconds.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 every other timed job runs with span tracing (spans.py) and the
per-layer metrics are printed, with the tracing overhead measured against
the untraced jobs of the same run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calib
import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
VERIFY_WARMUP_S = 1.5
WALL_LIMIT_S = 140.0
ACCOUNTING_SLACK = 0.05  # job-to-job variation between traced and untraced inputs
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
INPUT_SIZE = {
    **{wl: f"boundary degree {shape['degree']}, {shape['grid'][0]}x{shape['grid'][1]} grid"
       for wl, shape in inputs.SOLVE_SHAPES.items()},
    "spectral": "modes " + "+".join(map(str, inputs.SPECTRAL_MODES)) + " per job",
    "verify": f"one degree-{inputs.VERIFY_DEGREE} battery per job",
}
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "peak_rss_mb": "MB"}


class Worker:
    """The workload process and its line-based JSON channel."""

    def __init__(self, root: Path, env: dict, setup_only: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--setup-only"] if setup_only else [])
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        hello = self.receive()
        self.setup_s = hello["ready"] - self.started
        self.edge = hello["edge"]  # speed probes right after the last job
        expected = root / "src" / "biharm"
        if Path(hello["biharm"]).resolve().parent != expected.resolve():
            raise RuntimeError(f"imported biharm from {hello['biharm']}, not {expected}")

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def request(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("BIHARM_OUTPUT_DIR", None)  # outputs must land in the run directory
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


class Jobs:
    """Builds each job's inputs (excluded from all timings) and its check."""

    def __init__(self, workload: str, seed: int, run_dir: Path, root: Path):
        self.workload, self.seed = workload, seed
        self.run_dir, self.root = run_dir, root

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def make(self, job: int, anchor: bool = False):
        wl = self.workload
        if wl in inputs.SOLVE_SHAPES:
            rng = inputs.job_rng(inputs.ANCHOR_SEED if anchor else self.seed, wl, job)
            case = inputs.solve_case(wl, rng)
            out_dir = self.run_dir / "out"
            shutil.rmtree(out_dir, ignore_errors=True)
            cfg = self.run_dir / "job.cfg"
            cfg.write_text(case.config_text(self.rel(out_dir)))

            def check(reply):
                problems = checks.check_report(reply["code"], reply["report"])
                values, bad = checks.load_fields(out_dir, case.grid)
                problems += bad + checks.check_manufactured(case, values)
                if anchor:
                    problems += checks.check_reference(wl, values)
                return problems

            return {"kind": "solve", "config": self.rel(cfg)}, check
        if wl == "spectral":
            path = self.run_dir / "job.npz"
            np.savez(path, **inputs.spectral_case(inputs.job_rng(self.seed, wl, job)))
            msg = {"kind": "spectral", "npz": self.rel(path), "lam": inputs.LAM,
                   "mu": inputs.MU, "modes": list(inputs.SPECTRAL_MODES)}
            return msg, lambda reply: checks.check_spectral(reply["spectral"])
        battery_seed, fault = inputs.verify_job(self.seed, job)
        msg = {"kind": "verify", "seed": battery_seed, "degree": inputs.VERIFY_DEGREE,
               "fault": fault}
        return msg, lambda reply: checks.check_verify(reply["code"], reply["report"], fault)


def tail(latencies: list[float]):
    """Highest listed percentile with at least ten samples above it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(latencies, p))
    return None, None


@dataclass(frozen=True)
class Timed:
    """One timed job: wall latency and its reference-speed scale factor."""

    job: int
    latency: float
    scale: float
    traced: bool

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def per_layer(summary: dict, timed: list[Timed]) -> dict:
    """Per-traced-job layer figures plus the tracing overhead, which compares
    the traced and untraced jobs of the same run in reference-speed seconds."""
    jobs = max(1, summary["jobs"])
    out = {}
    for name in spans.TIMED:
        out[name] = (summary["timed_s"].get(name, 0.0) / jobs, "s")
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (summary["self_s"].get(layer, 0.0) / jobs, "s")
    for name in spans.COUNTED:
        unit = "s" if name.endswith("_s") else "B" if "bytes" in name else "count"
        out[name] = (summary["counts"].get(name, 0.0) / jobs, unit)
    out["schwarz.boundary_residual_max"] = (summary["residual_max"], "1")
    traced = [t for t in timed if t.traced]
    base = statistics.median(t.scaled for t in timed if not t.traced)
    traced_p50 = statistics.median(t.scaled for t in traced)
    accounted = statistics.median(summary["accounted_s"][str(t.job)] * t.scale for t in traced)
    out["trace.spans_per_job"] = (summary["spans"] / jobs, "count")
    out["trace.job_s_p50_traced"] = (traced_p50, "s")
    out["trace.job_s_p50_untraced"] = (base, "s")
    out["trace.overhead_share"] = (traced_p50 / base - 1.0, "ratio")
    out["trace.accounted_share"] = (accounted / base, "ratio")
    return out


class Run:
    """The closed loop: sends jobs one at a time, checks and counts them."""

    def __init__(self, worker: Worker, jobs: Jobs, sample: bool):
        self.worker, self.jobs, self.sample = worker, jobs, sample
        self.attempted = self.failed = 0

    def do(self, job: int, trace: bool = False, anchor: bool = False) -> Timed | None:
        msg, check = self.jobs.make(job, anchor)
        msg.update(op="job", job=job, trace=int(trace), sample=self.sample)
        before = self.worker.edge
        reply = self.worker.request(msg)
        self.worker.edge = reply["edge"]
        self.attempted += 1
        problems = [reply["error"]] if "error" in reply else check(reply)
        if problems:
            self.failed += 1
            print(f"job {job} failed: " + "; ".join(problems[:4]), file=sys.stderr)
        if "latency" not in reply:
            return None
        scale = calib.scale(before + reply["probes"] + reply["edge"])
        return Timed(job, reply["latency"], scale, trace)

    def warm_up(self, workload: str) -> int:
        """Untimed warm-up; returns the first timed job's index.  The solve
        workloads run the anchor input, checked against reference.json."""
        if workload in inputs.SOLVE_SHAPES:
            self.do(0, anchor=True)
            return 0
        if workload == "spectral":
            self.do(0)
            return 1
        job, warm = 0, 0.0
        while warm < VERIFY_WARMUP_S:
            done = self.do(job)
            warm += done.latency if done else 0.0
            job += 1
        return job

    def measure(self, first_job: int, seconds: float, trace: bool) -> list[Timed]:
        """Timed jobs until they have been busy for `seconds` (every other
        one traced when `trace`, with at least one of each kind)."""
        timed: list[Timed] = []
        t_start, job = time.monotonic(), first_job
        while time.monotonic() - t_start < WALL_LIMIT_S:
            busy = sum(t.latency for t in timed)
            kinds = {t.traced for t in timed}
            if busy >= seconds and (not trace or len(kinds) == 2):
                break
            done = self.do(job, trace=trace and len(timed) % 2 == 1)
            if done is not None:
                timed.append(done)
            job += 1
        return timed


def end_to_end(workload: str, setups: list[tuple[float, float]],
               timed: list[Timed], maxrss_kb: int) -> dict:
    n = len(timed)
    scaled = [t.scaled for t in timed]
    raw = [t.latency for t in timed]
    metrics = {
        "setup_s": statistics.median(s * c for s, c in setups),
        "jobs_per_s": n / sum(scaled),
        "job_s_p50": statistics.median(scaled),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes, import biharm included; "
                   f"wall {statistics.median(s for s, _ in setups):.4f} s",
        "jobs_per_s": f"{n} jobs, {sum(scaled):.3f} s busy; {INPUT_SIZE[workload]}; "
                      f"wall {n / sum(raw):.4g} 1/s",
        "job_s_p50": f"median of {n} jobs; wall {statistics.median(raw):.4f} s",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    print("times are reference-speed seconds (calib.py); wall figures in parentheses")
    for name, value in metrics.items():
        print(f"{name:12s} = {value:.6g} {END_TO_END_UNITS[name]}  ({notes[name]})")
    p, value = tail(scaled)
    if p is None:
        print(f"job_s_tail   = not reported: {n} jobs leave fewer than ten "
              f"above p{TAIL_PERCENTILES[-1]:g}")
    else:
        print(f"job_s_tail   = {value:.6g} s  (p{p:g} of {n} jobs)")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "biharm" / "__init__.py").is_file():
        print(f"error: no biharm sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    run_dir = root / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = worker_env(root)
    jobs = Jobs(args.workload, args.seed, run_dir, root)
    trace_path = root / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.npz"
    worker = None
    try:
        # (wall seconds, reference-speed factor) of each fresh process
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(root, env, setup_only=True)
            setups.append((probe.setup_s, calib.scale(probe.edge)))
            probe.close()
        worker = Worker(root, env)
        setups.append((worker.setup_s, calib.scale(worker.edge)))

        run = Run(worker, jobs, sample=not args.trace)
        timed = run.measure(run.warm_up(args.workload), args.seconds, bool(args.trace))
        if args.trace:
            trace_path.parent.mkdir(exist_ok=True)
        final = worker.request({"op": "quit",
                                "trace_path": jobs.rel(trace_path) if args.trace else None})
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    if not timed:
        print("error: no job completed", file=sys.stderr)
        return 1

    print(f"biharm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()} "
          f"numpy={np.__version__} blas_threads={BLAS_THREADS}")
    if args.trace:
        summary = final["trace"]
        metrics = per_layer(summary, timed)
        print(f"traced jobs: {sum(t.traced for t in timed)}, untraced jobs: "
              f"{sum(not t.traced for t in timed)}, spans: {summary['spans']} "
              f"(written to {jobs.rel(trace_path)})")
        print("per-layer values are per traced job, in wall seconds; *_s of a "
              "function is its outermost inclusive time, <layer>.self_s the "
              "layer's self time")
        for name, (value, unit) in metrics.items():
            print(f"{name:34s} = {value:.6g} {unit}")
        share, overhead = metrics["trace.accounted_share"][0], metrics["trace.overhead_share"][0]
        within = 1 - ACCOUNTING_SLACK <= share <= 1 + max(overhead, 0.0) + ACCOUNTING_SLACK
        print(f"accounting: layer self times per traced job = {share:.3f} x untraced "
              f"job_s_p50; tracing overhead {overhead:+.3f}; "
              f"{'within' if within else 'NOT within'} overhead +- {ACCOUNTING_SLACK}")
    else:
        metrics = end_to_end(args.workload, setups, timed, final["maxrss_kb"])
    print(f"error_rate   = {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g} "
          "(failed/attempted jobs, warm-up included)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
