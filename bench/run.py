"""Seeded benchmark of the valsel pipeline, end to end and per layer.

Run from the root of a checkout (valsel is imported from its ``src``):

    python3 bench/run.py --workload exp-tree-B --seed 0 --trace 0

The workloads, shapes and configs are defined in bench/definitions.json;
the metric names and units in BENCHMARK.json. The seed drives the input
generator only; valsel's own seed stays 0. The run repeats the workload,
each time in fresh processes, until ``--seconds`` are used up (by
default BENCHMARK.json's ``run_seconds``), checks
every repetition's outputs, and prints medians of the repetitions that
passed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: each repetition then also runs the workload's call
in one process untraced and once more traced (bench/tracer.py), both
at jobs=1, and the difference of their medians is ``trace.overhead_s``.

Every repetition's raw values and the run's provenance (nproc, Python
version, git sha, seed) are written to
``.bench_results/<workload>-seed<seed>-trace<t>.json``; the spans of
the last traced repetition go next to it as ``.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
CLI_MAIN = "import sys; from valsel.cli import main; sys.exit(main())"
E2E = ("run_s", "cpu_s", "peak_rss_mb", "setup_s")


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" when it has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, root: Path, name: str, seed: int, work: Path):
        defs = json.loads((HERE / "definitions.json").read_text())
        self.root, self.work = root, work
        self.wl = defs["workloads"][name]
        self.shape = defs["shapes"][self.wl["shape"]]
        self.expected = self.wl["digests_seed0"] if seed == 0 else None
        self.env = {k: v for k, v in os.environ.items() if k != "VALSEL_OUTDIR"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.tokens = work / "tokens.pkl"
        rows = gen.generate(seed, self.shape["rows"], self.shape["features"], self.shape["missing"])
        with open(self.tokens, "wb") as fh:
            pickle.dump(rows, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def spawn(self, argv: list[str], tag: str):
        """Run argv to completion; return (exit code, rusage, stdout, stderr)."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out, "wb") as o, open(err, "wb") as e:
            p = subprocess.Popen(argv, stdout=o, stderr=e, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, usage, out.read_text(), err.read_text()

    def worker(self, mode: str, spans_out: Path | None = None) -> dict:
        spec = {
            "mode": mode, "workload": self.wl, "name": f"gen-{self.wl['shape']}",
            "root": str(self.root), "tokens": str(self.tokens), "work": str(self.work),
            "expected": self.expected, "spans_out": str(spans_out) if spans_out else None,
        }
        spec["t_spawn"] = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
        rc, usage, out, err = self.spawn(argv, f"worker-{mode}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"failures": []}
        if rc != 0:
            result["failures"] = [f"{mode} worker exited {rc}: {err.strip()[-2000:]}"]
        result["peak_rss_mb"] = usage.ru_maxrss / 1024
        return result

    def cli_e2e(self) -> dict:
        setup = self.worker("setup")
        rec = {"setup_s": setup.get("setup_s"), "failures": setup["failures"], "cpu_s": 0.0}
        if rec["failures"]:
            return rec
        paths, argvs = checks.cli_commands(self.wl["commands"], self.work)
        peak = 0
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            rc, usage, _, err = self.spawn([sys.executable, "-c", CLI_MAIN, *argv], f"cli{i}")
            rec["cpu_s"] += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss)
            if rc != 0 or err:
                rec["failures"].append(f"command {i} exited {rc}: {err.strip()[-2000:]}")
                return rec
        rec["run_s"] = time.perf_counter() - t0
        rec["peak_rss_mb"] = peak / 1024
        more, rec["kept_ratio"], rec["digests"] = checks.cli_failures(
            paths, self.shape["rows"], self.wl["guard"]["rows_kept_ratio"], self.expected
        )
        rec["failures"] += more
        return rec

    def repetition(self, trace: bool, spans_out: Path) -> dict:
        rec = self.cli_e2e() if self.wl["kind"] == "cli" else self.worker("e2e")
        rec = {k: rec[k] for k in (*E2E, "digests", "kept_ratio", "failures") if k in rec}
        if not trace or rec["failures"]:
            return rec
        same = self.wl["kind"] == "experiment" and self.wl["config"]["jobs"] == 1
        base = rec if same else self.worker("inproc")
        traced = self.worker("traced", spans_out)
        rec["failures"] += base["failures"] + traced["failures"]
        if not rec["failures"]:
            rec["untraced_run_s"] = base["run_s"]
            rec["layer"] = dict(traced["layer"], **{"evaluate.cpu_util": rec["cpu_s"] / rec["run_s"]})
            for other in (base, traced):
                if other.get("digests") != rec.get("digests"):
                    rec["failures"].append("in-process outputs differ from the fresh-process run")
        return rec


def consistency_failures(reps: list[dict]) -> None:
    """Outputs and counts must repeat exactly across repetitions of one seed."""
    ref = None
    for rep in reps:
        if rep["failures"]:
            continue
        key = (
            rep.get("digests"),
            {k: v for k, v in rep.get("layer", {}).items()
             if not k.endswith("_s") and k != "evaluate.cpu_util"},
        )
        if ref is None:
            ref = key
        elif key != ref:
            rep["failures"].append("outputs or counts differ from the first repetition")


def summarize(reps: list[dict], trace: bool) -> dict:
    ok = [r for r in reps if not r["failures"]]
    if not trace:
        return {k: statistics.median(r[k] for r in ok) for k in E2E}
    layer = {}
    for k in ok[0]["layer"]:
        layer[k] = statistics.median(r["layer"][k] for r in ok)
    layer["trace.overhead_s"] = layer["trace.run_s"] - statistics.median(
        r["untraced_run_s"] for r in ok
    )
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "valsel" / "__init__.py").is_file():
        print(f"no valsel source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    bench_def = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench_def["per_layer" if args.trace else "end_to_end"]
    seconds = bench_def["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in {w["name"] for w in bench_def["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    work = root / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        bench = Bench(root, args.workload, args.seed, work)
        # compile valsel's bytecode before timing anything, as an install would
        bench.spawn([sys.executable, "-c", "import valsel"], "warmup")
        reps, took = [], []
        begin = time.monotonic()
        while True:
            t = time.monotonic()
            reps.append(bench.repetition(bool(args.trace), results / f"{stem}.jsonl"))
            took.append(time.monotonic() - t)
            if time.monotonic() - begin + statistics.mean(took) > seconds:
                break
        consistency_failures(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reps if r["failures"])
    for i, r in enumerate(reps):
        for msg in r["failures"]:
            print(f"repetition {i}: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(root), "attempted": len(reps), "failed": failed,
        "repetitions": reps,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if failed == len(reps):
        print("every repetition failed; no result", file=sys.stderr)
        return 1
    values = summarize(reps, bool(args.trace))
    if args.trace and bench.wl["kind"] == "experiment" and bench.wl["config"]["jobs"] != 1:
        print(f"note: traced at jobs=1; the workload runs at jobs={bench.wl['config']['jobs']} "
              "(evaluate.cpu_util is from that untraced run)")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']!r} in BENCHMARK.json is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
