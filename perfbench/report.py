"""Print every end-to-end metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--trace]

Runs perfbench/run.py once per workload, each in a fresh process, and prints
one table: the metrics of BENCHMARK.json plus failed_frac and
residual_miss_frac (the complements of ok_frac and residual_ok_frac), the
job and round counts behind the percentiles, and the run environment.
With --trace it also prints the per-layer metrics of a traced run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    passes = [(0, spec["end_to_end"])] + ([(1, spec["per_layer"])] if args.trace else [])
    for trace, metrics in passes:
        runs = {w: run_workload(w, args.seed, args.seconds, trace) for w in workloads}
        rows = [(m["name"], m["unit"], [runs[w][1]["metrics"][m["name"]]["value"] for w in workloads])
                for m in metrics]
        rows += [
            (key, unit, [runs[w][0]["counts"][key] for w in workloads])
            for key, unit in (("failed_frac", "frac"), ("residual_miss_frac", "frac"),
                              ("jobs", "count"), ("jobs_above_p90", "count"), ("rounds", "count"),
                              ("speed_factor", "1"))
        ]
        rows.append(("correct", "bool", [runs[w][1]["correct"] for w in workloads]))
        width = max(len(r[0]) for r in rows)
        print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>14}" for w in workloads))
        for name, unit, vals in rows:
            cells = "".join(f"{v:>14.6g}" if not isinstance(v, bool) else f"{v!s:>14}" for v in vals)
            print(f"{name:<{width}}  {unit:<6}{cells}")
        env = runs[workloads[0]][0]["environment"]
        print("environment:", json.dumps({k: v for k, v in env.items()
                                          if k not in ("workload", "jobs_by_kind")}))
        for w in workloads:
            print(f"jobs by kind, {w}:", json.dumps(runs[w][0]["environment"]["jobs_by_kind"]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
