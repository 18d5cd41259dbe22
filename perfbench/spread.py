"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads trajectories cli --seeds 1-10 --seconds 10

For each workload and metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
flagging a spread wider than a third of the metric's bound.  With
``--out FILE`` it stores each workload's summary in FILE under the key
"untraced" or "traced", keeping everything else in the file;
perfbench/baseline.json is kept this way.  Runs are made one at a time, each in its own process, from the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        per_metric = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "attempted": attempted, "failed": failed, "metrics": per_metric}
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} ops failed")
        for name, s in per_metric.items():
            line = f"  {name:<26} median {s['median']:12.6g}"
            if s.get("spread") is not None:
                line += f"  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
                bound = bounds.get(name)
                if bound is not None:
                    line += f"  bound {bound}" + ("  WIDE" if s["spread"] > bound / 3 else "")
            print(line)
        sys.stdout.flush()
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.setdefault("traced" if args.trace else "untraced", {}).update(summary)
        text = json.dumps(doc, indent=1)
        # one line per list of plain values
        text = re.sub(r"\[\s*([^\[\]{}]*?)\s*\]",
                      lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
