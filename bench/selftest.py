"""Self-test of the benchmark's own machinery, on a tiny shape.

Run from the root of a checkout:

    python3 bench/selftest.py

Checks the self-time arithmetic on nested spans, the failure when a
wrapped name no longer exists, the digest check rejecting a perturbed
report, that the non-degeneracy guard rejects a kept share outside its
range on an untraced run, and that a tiny traced run satisfies the
self-time identity with counts that repeat exactly. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import sys
import types
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def expect(cond, msg: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def nested_self_times() -> None:
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("bench.run") as root:  # 0 .. 10
        with t.span("evaluate.run_experiment"):  # 1 .. 4
            with t.span("classifiers.train_tree"):  # 2 .. 3
                pass
            t.charge("classifiers.predict", 0.5)
        with t.span("data.with_instances"):  # 5 .. 9
            pass
    expect(t.self_times() == [10 - 3 - 4, 3 - 1 - 0.5, 1.0, 4.0], f"self times {t.self_times()}")
    s = t.summary(root)
    expect(s["layers"] == {"evaluate": 1.5, "classifiers": 1.5, "data": 4.0}, f"layers {s['layers']}")
    expect(sum(s["layers"].values()) + s["root_self"] == s["run"] == 10.0, "identity on nested spans")
    expect(s["calls"]["classifiers.predict"] == 1 and s["seconds"]["classifiers.predict"] == 0.5,
           "per-row calls are a count plus summed time")


def missing_name_fails() -> None:
    t = Tracer()
    owner = types.SimpleNamespace(present=lambda: 1)
    try:
        t.wrap(owner, "absent", "data.absent")
    except AttributeError as exc:
        expect("absent" in str(exc), f"error names the missing function: {exc}")
    else:
        expect(False, "wrapping a missing name did not fail")
    t.wrap(owner, "present", "data.present")
    expect(owner.present() == 1 and len(t.spans) == 1, "wrapped call is recorded")
    t.restore()
    expect(owner.present.__name__ == "<lambda>", "restore puts the original back")


def tiny_experiment(tracer: Tracer | None = None, guard: worker.Guard | None = None):
    import valsel.evaluate
    from valsel import ExperimentConfig, LearnerSpec, dataset_from_rows

    names, rows, labels = gen.generate(7, 300, 4, 0.02)
    d = dataset_from_rows("tiny", names, rows, labels)
    cfg = ExperimentConfig(disc_method="frequency", bins=10, method="pvs", epsilon=1.0,
                           learner=LearnerSpec("tree"), repeats=2, folds=3)
    if guard:
        guard.install()
    if tracer:
        worker.install(tracer)
    try:
        with tracer.span("bench.run") if tracer else nullcontext() as root:
            report = valsel.evaluate.run_experiment(d, cfg)
    finally:
        if tracer:
            tracer.restore()
        if guard:
            guard.restore()
    return report, root


def digest_rejects_perturbed_report() -> None:
    report, _ = tiny_experiment()
    text = report.to_json()
    stored = {"report": checks.sha256_bytes(text.encode())}
    expect(checks.report_failures(report, 3, 2) == [], "tiny report has folds x repeats runs")
    expect(checks.digest_failures({"report": checks.sha256_bytes(text.encode())}, stored) == [],
           "identical report passes")
    perturbed = text.replace('"accuracy": 0.', '"accuracy": 1.', 1)
    expect(perturbed != text, "perturbation changed the report")
    expect(checks.digest_failures({"report": checks.sha256_bytes(perturbed.encode())}, stored),
           "perturbed report is rejected")


def guard_on_untraced_run() -> None:
    import valsel.evaluate

    guard = worker.Guard()
    tiny_experiment(guard=guard)
    expect(valsel.evaluate.pvs.__module__ == "valsel.selection", "restore puts pvs back")
    # without fold_safe the filter runs once per repeat, on the whole input
    expect(len(guard.filtered) == 2 and len(guard.train_sizes) == 3 + 2 * 3,
           f"guard saw {len(guard.filtered)} filter calls and {len(guard.train_sizes)} fits")
    ratio = guard.kept_ratio()
    expect(0 < ratio < 1, f"kept ratio {ratio}")
    expect(guard.failures({"rows_kept_ratio": [0.0, 1.0], "min_train_rows": 1}) == [],
           "a kept share inside the guard passes")
    expect(guard.failures({"rows_kept_ratio": [ratio + 0.01, 1.0]}), "a kept share below the guard fails")
    expect(guard.failures({"rows_kept_ratio": [0.0, 1.0], "min_train_rows": 10**6}),
           "a fit below min_train_rows fails")


def traced_identity_and_counts() -> None:
    runs = []
    for _ in range(2):
        t, g = Tracer(), worker.Guard()
        report, root = tiny_experiment(t, g)
        m, failures = worker.layer_metrics(t, g, root, 0.0, 1)
        expect(failures == [], f"identity failures {failures}")
        runs.append({k: v for k, v in m.items() if not k.endswith("_s")})
        expect(m["evaluate.fits"] == 3 + 2 * 3, f"fits {m['evaluate.fits']}")
        expect(0 < m["selection.rows_kept_ratio"] <= 1, "kept ratio in (0, 1]")
    expect(runs[0] == runs[1], "counts repeat exactly across traced runs")


def main() -> int:
    if not (Path.cwd() / "src" / "valsel" / "__init__.py").is_file():
        print("run from a checkout root (no src/valsel here)", file=sys.stderr)
        return 2
    for check in (nested_self_times, missing_name_fails, digest_rejects_perturbed_report,
                  guard_on_untraced_run, traced_identity_and_counts):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
