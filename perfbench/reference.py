"""Write reference.json: digests of the 13 output fields of each solve
workload's anchor job, as produced by the library in ./src.

    python3 perfbench/reference.py

Run it from the repository root only when an output change is intended;
run.py checks every anchor job against the stored digest.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import inputs

sys.path.insert(0, str(Path.cwd() / "src"))

from biharm import cli  # noqa: E402


def main() -> int:
    out = {}
    for workload in inputs.SOLVE_SHAPES:
        case = inputs.solve_case(workload, inputs.job_rng(inputs.ANCHOR_SEED, workload, 0))
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            cfg = Path(tmp) / "anchor.cfg"
            cfg.write_text(case.config_text(str(Path(tmp) / "out")))
            code = cli.cmd_solve(str(cfg), out=io.StringIO())
            values, problems = checks.load_fields(Path(tmp) / "out", case.grid)
        problems += checks.check_manufactured(case, values)
        if code != 0 or problems:
            print(f"{workload}: anchor job is not correct: exit {code}; {problems}",
                  file=sys.stderr)
            return 1
        out[workload] = {"anchor_seed": inputs.ANCHOR_SEED,
                         "fields": checks.reference_digest(values)}
    checks.REFERENCE_PATH.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
