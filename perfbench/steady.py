"""Steadiness check: run workloads repeatedly with different seeds and
report each end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads verify ...]
                                [--compare earlier.json] [--out now.json]

With --runs 1 it is the one command that reports every end-to-end metric
of every workload.  Run from the repository root; runs are sequential.
The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median; it should stay below a third of the bound, and within the bound
for every metric except setup_s.  With --compare, each median is also checked against the same
metric's median in an earlier --out file: it may be worse by at most the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run.py run; echoes its report (every metric with unit, sample
    count and error_rate) and returns its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *report, result = proc.stdout.strip().splitlines()
    print("\n".join("    " + line for line in report), flush=True)
    return json.loads(result)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        print("error: run from the repository root (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results, ok = {}, True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, spec["run_seconds"]))
            print(f"{workload} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: error_rate {failed}/{attempted}")
        ok &= failed == 0
        results[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = statistics.median(values), spread(values)
            results[workload]["metrics"][name] = {"median": med, "spread": spr, "values": values}
            verdict, failures = [], []
            if name != "setup_s" and spr > metric["bound"]:
                failures.append("spread over bound")
            elif spr > metric["bound"] / 3:
                verdict.append("spread over bound/3")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                change = sign * (med - before["median"]) / before["median"]
                verdict.append(f"vs earlier {change:+.3f}")
                if change > metric["bound"]:
                    failures.append("worse than bound")
            ok &= not failures
            print(f"  {name:12s} median {med:.5g} {metric['unit']:4s} spread {spr:.3f} "
                  f"(bound {metric['bound']}) {'; '.join(verdict + [f.upper() for f in failures])}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
