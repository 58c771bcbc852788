"""One fresh-process step of a benchmark workload.

Run by bench/run.py as ``python3 bench/worker.py '<spec json>'``; prints
one JSON line. The spec's mode is one of:

* ``setup``   build the input (the CLI workload's CSV) and stop;
* ``e2e``     set up, then time ``run_experiment`` untraced;
* ``inproc``  set up, then time the workload's call in this process
              (``run_experiment``, or ``valsel.cli.main`` per command)
              untraced, at jobs=1;
* ``traced``  the same as ``inproc`` with every layer wrapped.

Traced runs use jobs=1 because the tracer keeps one span stack per
thread: a span opened in a pool thread has no parent, so its time
would fall outside the traced run's subtree.

Set-up time runs from the parent's spawn stamp (``time.monotonic``,
one clock for every process on the host) to the end of building the
input, minus the time spent loading the benchmark's own tokens.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import pickle
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
from tracer import Tracer

LAYERS = ("data", "discretize", "metrics", "selection", "classifiers", "evaluate", "cli", "trace")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class WarningLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(f"{record.name}: {record.getMessage()}")


class Guard:
    """Rows in and out of every filter call and rows of every fit, traced or not.

    The non-degeneracy guard is checked from these on every in-process
    run, and the traced run reports them as selection.rows_kept_ratio and
    classifiers.train_rows. The wrappers only take lengths, and
    list.append is safe from pool threads.
    """

    def __init__(self):
        self.filtered: list[tuple[int, int]] = []
        self.train_sizes: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import valsel.classifiers as cls
        import valsel.evaluate as ev
        import valsel.selection as sel

        def filtered(args, out):
            self.filtered.append((len(args[0].instances), len(out.filtered.instances)))

        def trained(args, out):
            self.train_sizes.append(len(args[0].instances))

        for owner, attr, note in (
            (ev, "pvs", filtered), (ev, "pvs_plus", filtered),
            (sel, "pvs", filtered), (sel, "pvs_plus", filtered),
            (cls, "train_tree", trained), (cls, "train_rules", trained),
        ):
            fn = getattr(owner, attr)

            def counted(*args, _fn=fn, _note=note, **kwargs):
                out = _fn(*args, **kwargs)
                _note(args, out)
                return out

            self._undo.append((owner, attr, fn))
            setattr(owner, attr, functools.wraps(fn)(counted))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def kept_ratio(self) -> float:
        rows_in = sum(n for n, _ in self.filtered)
        return sum(k for _, k in self.filtered) / rows_in if rows_in else 0.0

    def failures(self, guard: dict) -> list[str]:
        out = checks.kept_ratio_failures(self.kept_ratio(), guard["rows_kept_ratio"])
        need = guard.get("min_train_rows")
        fewest = min(self.train_sizes, default=0)
        if need is not None and fewest < need:
            out.append(f"a learner trained on {fewest} rows, guard is {need}")
        return out


def observed_slots(d) -> int:
    from valsel import MISSING

    return sum(len(inst.slots) - inst.slots.count(MISSING) for inst in d.instances)


def install(tracer: Tracer) -> None:
    """Wrap valsel's public functions where the workloads' callers look them up.

    A name that no longer exists raises AttributeError, so a refactor
    that moves a call site shows up as a failed traced run instead of a
    silently missing layer.
    """
    import valsel.classifiers as cls
    import valsel.cli as cli
    import valsel.discretize as disc
    import valsel.evaluate as ev
    import valsel.selection as sel
    from valsel import Dataset, RuleModel, TreeModel

    def filtered(name):
        def count(args, kwargs, out):
            slots_in = observed_slots(args[0])
            if name == "pvs_plus":
                cleared = sum(row.count(True) for row in out.removed_value_mask)
            else:
                cleared = slots_in - observed_slots(out.filtered)
            return {"selection.slots_in": slots_in, "selection.slots_cleared": cleared}

        return count

    def audit_bytes(args, kwargs, out):
        argv = args[0]
        if "--audit-out" not in argv:
            return {}
        return {"cli.audit_bytes": os.path.getsize(argv[argv.index("--audit-out") + 1])}

    def scored(args, kwargs, out):
        return {"metrics.values_scored": sum(len(group) for group in out.per_feature)}

    tracer.wrap(cli, "main", "cli.main", audit_bytes)
    tracer.wrap(
        cli, "load_dataset", "data.load", lambda a, k, o: {"data.load_bytes": os.path.getsize(a[0])}
    )
    tracer.wrap(
        cli, "save_dataset", "data.save", lambda a, k, o: {"data.save_bytes": os.path.getsize(a[1])}
    )
    tracer.wrap(cli, "compute_stats", "metrics.compute_stats", scored)
    tracer.wrap(ev, "run_experiment", "evaluate.run_experiment")
    tracer.wrap(ev, "stratified_fold_assignment", "evaluate.fold_assign")
    tracer.wrap(ev, "compute_stats", "metrics.compute_stats", scored)
    for owner in (ev, sel):
        tracer.wrap(owner, "pvs", "selection.pvs", filtered("pvs"))
        tracer.wrap(owner, "pvs_plus", "selection.pvs_plus", filtered("pvs_plus"))
    tracer.wrap(
        disc, "fit", "discretize.fit",
        lambda a, k, o: {"discretize.cuts": sum(len(c) for c in o.cuts.values())},
    )
    tracer.wrap(disc, "apply", "discretize.apply")
    tracer.wrap(cls, "train_tree", "classifiers.train_tree")
    tracer.wrap(cls, "train_rules", "classifiers.train_rules")
    tracer.wrap_each(TreeModel, "predict", "classifiers.predict")
    tracer.wrap_each(RuleModel, "predict", "classifiers.predict")
    tracer.wrap(Dataset, "with_instances", "data.with_instances")


def layer_metrics(
    tracer: Tracer, guard: Guard, root: int, from_rows_s: float, jobs: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, plus self-time identity failures."""
    s = tracer.summary(root)
    calls, seconds, layers, counters = s["calls"], s["seconds"], s["layers"], tracer.counters
    m = {}
    for name in set(calls) | {
        "data.with_instances", "data.load", "data.save", "discretize.fit", "discretize.apply",
        "metrics.compute_stats", "selection.pvs", "selection.pvs_plus", "classifiers.train_tree",
        "classifiers.train_rules", "classifiers.predict", "evaluate.run_experiment",
        "evaluate.fold_assign", "cli.main",
    }:
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_s"] = seconds[name]
    for name in (
        "data.load_bytes", "data.save_bytes", "discretize.cuts", "metrics.values_scored",
        "selection.slots_in", "selection.slots_cleared", "cli.audit_bytes",
    ):
        m[name] = counters[name]
    m["selection.rows_kept_ratio"] = guard.kept_ratio()
    m["classifiers.train_rows"] = sum(guard.train_sizes)
    m["evaluate.fits"] = calls["classifiers.train_tree"] + calls["classifiers.train_rules"]
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = layers[layer]
    m["trace.bookkeeping_s"] = layers["trace"]
    m["trace.root_self_s"] = s["root_self"]
    m["trace.run_s"] = s["run"]
    m["trace.jobs"] = jobs
    m["data.from_rows_s"] = from_rows_s
    unknown = set(layers) - set(LAYERS)
    failures = [f"spans outside the known layers: {sorted(unknown)}"] if unknown else []
    total = sum(layers.values()) + s["root_self"]
    if abs(total - s["run"]) > 1e-6 * max(1.0, s["run"]):
        failures.append(f"layer self times sum to {total}, traced run_s is {s['run']}")
    return m, failures


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"]).resolve()
    import valsel

    if not Path(valsel.__file__).resolve().is_relative_to(root / "src"):
        print(f"valsel imported from {valsel.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    with open(spec["tokens"], "rb") as fh:
        names, rows, labels = pickle.load(fh)
    token_s = time.monotonic() - t0

    mode, wl, work = spec["mode"], spec["workload"], Path(spec["work"])
    tracer = Tracer() if mode == "traced" else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("bench.setup"):
        t1 = time.perf_counter()
        with span("data.from_rows"):
            d = valsel.dataset_from_rows(spec["name"], names, rows, labels)
        from_rows_s = time.perf_counter() - t1
        if wl["kind"] == "cli":
            valsel.save_dataset(d, work / "input.csv", "csv")
    out = {"setup_s": time.monotonic() - spec["t_spawn"] - token_s, "failures": []}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    del names, rows, labels

    warnings = WarningLog()
    logging.getLogger("valsel").addHandler(warnings)
    jobs = wl["config"]["jobs"] if wl["kind"] == "experiment" and mode == "e2e" else 1
    guard = Guard()
    guard.install()
    if tracer:
        install(tracer)
    failures: list[str] = []
    try:
        if wl["kind"] == "experiment":
            from valsel import ExperimentConfig, LearnerSpec
            import valsel.evaluate

            c = dict(wl["config"], jobs=jobs)
            cfg = ExperimentConfig(**{**c, "learner": LearnerSpec(c["learner"])})
            c0, t0 = cpu_seconds(), time.perf_counter()
            with span("bench.run") as root_span:
                report = valsel.evaluate.run_experiment(d, cfg)
            out["run_s"] = time.perf_counter() - t0
            out["cpu_s"] = cpu_seconds() - c0
            failures += checks.report_failures(report, cfg.folds, cfg.repeats)
            out["digests"] = {"report": checks.sha256_bytes(report.to_json().encode())}
        else:
            import valsel.cli

            paths, argvs = checks.cli_commands(wl["commands"], work)
            c0, t0 = cpu_seconds(), time.perf_counter()
            with span("bench.run") as root_span:
                codes = [valsel.cli.main(argv) for argv in argvs]
            out["run_s"] = time.perf_counter() - t0
            out["cpu_s"] = cpu_seconds() - c0
            failures += [f"command {i} exited {rc}" for i, rc in enumerate(codes) if rc != 0]
            if not failures:
                more, _, out["digests"] = checks.cli_failures(
                    paths, len(d.instances), wl["guard"]["rows_kept_ratio"], None
                )
                failures += more
    finally:
        if tracer:
            tracer.restore()
        guard.restore()
    failures += warnings.messages
    out["kept_ratio"] = guard.kept_ratio()
    failures += guard.failures(wl["guard"])
    if "digests" in out:
        failures += checks.digest_failures(out["digests"], spec.get("expected"))
    if tracer:
        out["layer"], more = layer_metrics(tracer, guard, root_span, from_rows_s, jobs)
        failures += more
        if spec.get("spans_out"):
            tracer.write_jsonl(spec["spans_out"])
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
