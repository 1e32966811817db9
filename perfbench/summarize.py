"""Summarize benchmark result files: medians, quartiles and spreads.

    python3 perfbench/summarize.py [--results DIR] [--write FILE]

Reads the result files run.py leaves in .perfbench/results/, groups them
by workload, and prints for every end-to-end metric of the untraced runs
its median, quartiles and spread (quartile distance over the median,
against the metric's bound in BENCHMARK.json), and for the traced runs
whether every count repeated exactly between runs of one seed.  --write
stores the summary, with the environment of the runs, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median(values) -> float:
    return float(statistics.median(list(values)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results")
    ap.add_argument("--write", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    runs = defaultdict(list)
    for path in sorted(args.results.glob("*.json")):
        doc = json.loads(path.read_text())
        env = doc["env"]
        runs[(env["workload"], env["N"], bool(env["trace"]))].append(doc)

    summary = {"environment": None, "end_to_end": {}, "traced": {}}
    # untraced groups sort first, so a traced group can refer to them
    for (workload, N, traced), docs in sorted(runs.items(), key=lambda kv: kv[0][2]):
        summary["environment"] = {k: v for k, v in docs[-1]["env"].items() if k not in (
            "workload", "seed", "start_amplitude", "trace", "N", "depth", "set_ups",
            "iterations")}
        label = f"{workload} (N={N})"
        correct = sum(d["correct"] for d in docs)
        if not traced:
            print(f"{label}: {len(docs)} runs, {correct} correct")
            rows = {}
            for name, bound in bounds.items():
                values = [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("nan")
                rows[name] = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": bound}
                flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound
                                                         else "OVER BOUND")
                print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                      f"  spread {spread:6.3f}  bound {bound}  {flag}")
            checks = {c["name"]: c for c in docs[-1]["checks"]}
            summary["end_to_end"][workload] = {"runs": len(docs), "correct": correct,
                                               "metrics": rows, "checks": checks}
        else:
            by_seed = defaultdict(list)
            for d in docs:
                by_seed[d["env"]["seed"]].append(d["metrics"])
            repeated = {
                seed: all(len({m[k]["value"] for m in ms}) == 1 for k in counts)
                for seed, ms in by_seed.items() if len(ms) > 1
            }
            print(f"{label} traced: {len(docs)} runs; counts repeat exactly per seed: "
                  f"{repeated or 'no seed run twice'}")
            last = docs[-1]["metrics"]
            traced_wall = median(d["metrics"]["trace.wall_s"]["value"] for d in docs)
            untraced = summary["end_to_end"].get(workload, {}).get("metrics", {})
            overhead = traced_wall - untraced["wall_s"]["median"] if untraced else None
            if overhead is not None:
                print(f"  tracing overhead: traced wall_s {traced_wall:.3f} minus untraced "
                      f"median {untraced['wall_s']['median']:.3f} = {overhead:+.3f} s; "
                      f"estimated {last['trace.overhead_est_s']['value']:.3f} s")
            summary["traced"][workload] = {
                "runs": len(docs), "counts_repeat_exactly": repeated,
                "seed": docs[-1]["env"]["seed"], "overhead_s": overhead,
                "metrics": {k: v["value"] for k, v in last.items()},
            }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
