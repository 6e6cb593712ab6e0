"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) for each workload,
one run at a time, and prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median, which is what each metric's bound
in BENCHMARK.json is compared with.  --out writes the runs and the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _host() -> dict:
    cpu = platform.processor()
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    report: dict = {"host": _host(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
            ok = ok and result["correct"]
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"],
            }
            print(f"  {workload:15s} {metric['name']:12s} median {statistics.median(values):10.4f}"
                  f"  spread {spread:.3f}  bound {metric['bound']}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
