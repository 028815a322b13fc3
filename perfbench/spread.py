"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload fine-grid-output --seeds 10
    python3 perfbench/spread.py --workload all --seeds 10 --out perfbench/BASELINE.json

Runs ``run.py`` once per seed, each in a fresh process, and prints for
every metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``, whose
``run_seconds`` is the default run length.  ``--out``
writes the per-seed values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return {}


def run_seed(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=0)
    spec = load_spec()
    parser.add_argument("--seconds", type=int, default=spec.get("run_seconds", 12))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    limits = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    doc = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_seed(name, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **res})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()), flush=True)
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            summary[metric] = dict(summarize([r["metrics"][metric]["value"] for r in runs]),
                                   unit=first["unit"])
            s = summary[metric]
            bound = limits.get(metric)
            iqr = "n/a" if s["iqr_frac"] is None else f"{s['iqr_frac']:.4f}"
            print(f"  {metric:40s} median {s['median']:.6g} {s['unit']}  "
                  f"iqr/median {iqr}" + ("" if bound is None else f"  (bound {bound})"))
        doc[name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
