"""Run the benchmark over several seeds and summarize every workload.

Run from the root of a checkout:

    python3 bench/report.py --seeds 0-9 --out bench/results/BENCH_1.json

Each (workload, seed) is one ``bench/run.py`` run in its own process,
one after another. For every workload the table gives each end-to-end
metric by name with its unit: the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, their distance as a
share of the median, and the bound from BENCHMARK.json; ``error_rate``
is failed over attempted repetitions. The results file keeps the
provenance and every raw repetition of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import git_sha  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    root = Path.cwd().resolve()
    bench_def = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help='"a-b" or "a,b,c"')
    ap.add_argument("--workloads", help="comma-separated names (default: all)")
    ap.add_argument("--seconds", type=int, default=bench_def["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the results file here")
    args = ap.parse_args(argv)

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench_def["workloads"]]
    metrics = bench_def["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for name in names:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            record_path = root / ".bench_results" / f"{name}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_path.read_text()) if record_path.is_file() else None
            runs[name].append({"seed": seed, "exit": p.returncode, "wall_s": wall,
                               "result": result, "record": record})
            brief = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{name} seed {seed} exit {p.returncode} wall {wall:.1f}s "
                  f"attempted {result and result['attempted']} failed {result and result['failed']} "
                  f"{brief if not args.trace else ''}", flush=True)
            if p.returncode != 0 or (result and result["failed"]):
                print(p.stderr.strip()[-3000:], flush=True)

    print()
    for name in names:
        done = [r["result"] for r in runs[name] if r["result"]]
        records = [r["record"] for r in runs[name] if r["record"]]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        print(f"{name}: {len(done)} runs with a result, error_rate {failed / max(1, attempted):.4f} ratio "
              f"({failed} of {attempted} repetitions failed)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in done]
            if not values:
                continue
            line = f"  {m['name']:32s} {statistics.median(values):12.5g} {m['unit']:6s}"
            if len(values) >= 2 and statistics.median(values):
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / statistics.median(values)
                line += f" q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f}"
                if "bound" in m:
                    line += f" bound {m['bound']} {'ok' if spread <= m['bound'] / 3 else 'WIDE'}"
            print(line)
    if args.out:
        out = {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(root), "seconds": args.seconds, "trace": args.trace,
            "seeds": seed_list(args.seeds), "runs": runs,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
