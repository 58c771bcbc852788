"""Command line front end: discretize, filter, experiment.

Settings resolve in order: built-in defaults (entropy metric, frequency
discretization, epsilon 0.5, 10 folds, 5 repeats), then a flat
key=value config file given with
--config, then explicit flags. Exit codes: 0 success, 1 data error
(unreadable or malformed input), 2 config error (bad parameter values,
including argparse rejections). All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import discretize as _disc
from .baselines import BaselineConfig, apply_baseline
from .classifiers import LearnerSpec
from .data import load_dataset, save_dataset
from .errors import ConfigError, DataError
from .evaluate import ExperimentConfig, format_report_table, run_experiment
from .metrics import compute_stats
from .selection import VSConfig, apply_selection


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation."""

    input: str | None = None
    format: str | None = None
    class_index: str = "last"
    missing_token: str = "?"
    header: bool = True
    disc_method: str = "frequency"
    bins: int = 10
    method: str = "pvs_plus"
    iota: str = "entropy"
    epsilon: float = 0.5
    seed: int = 0
    repeats: int = 5
    folds: int = 10
    fold_safe: bool = False
    jobs: int = 1
    learner: str = "tree"
    min_leaf: int = 2
    cf: float = 0.25
    prune_fraction: float = 1.0 / 3.0
    fraction: float = 0.05
    columns: tuple[str, ...] = ()
    rate: float = 0.0
    dataset_entropy: str = "value-sum"
    output: str | None = None

    def learner_spec(self) -> LearnerSpec:
        return LearnerSpec(self.learner, self.min_leaf, self.cf, self.prune_fraction)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, kind, raw):
    if not isinstance(raw, str):
        return raw
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(t for t in (s.strip() for s in raw.split(",")) if t)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value {raw!r} for config key {name!r}") from None
    return raw


_FIELD_KIND = {
    "header": bool,
    "fold_safe": bool,
    "bins": int,
    "seed": int,
    "repeats": int,
    "folds": int,
    "jobs": int,
    "min_leaf": int,
    "epsilon": float,
    "cf": float,
    "prune_fraction": float,
    "fraction": float,
    "rate": float,
    "columns": tuple,
}


def load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; # and ; start comments; blank lines ignored."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key in out:
        if key not in known:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return out


def resolve_config(cli: dict, file_values: dict[str, str]) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    kwargs = {}
    for f in dataclasses.fields(RunConfig):
        kind = _FIELD_KIND.get(f.name, str)
        value = cli.get(f.name)
        if value is None and f.name in file_values:
            value = _coerce(f.name, kind, file_values[f.name])
        if value is None:
            continue
        if f.name == "columns" and isinstance(value, str):
            value = _coerce(f.name, tuple, value)
        kwargs[f.name] = value
    return RunConfig(**kwargs)


def _load_input(cfg: RunConfig):
    if not cfg.input:
        raise ConfigError("no input file given (use --input or input= in the config)")
    kwargs = {}
    fmt = cfg.format
    if fmt is None:
        fmt = "arff" if Path(cfg.input).suffix.lower() == ".arff" else "csv"
    if fmt == "csv":
        class_index = cfg.class_index
        if class_index != "last":
            try:
                class_index = int(class_index)
            except ValueError:
                raise ConfigError(
                    f"bad class index {class_index!r}: expected a 0-based column or 'last'"
                ) from None
        kwargs = {
            "class_index": class_index,
            "missing_token": cfg.missing_token,
            "header": cfg.header,
        }
    return load_dataset(cfg.input, fmt, **kwargs)


def _out_path(text: str | None) -> Path | None:
    """Resolve an output path; VALSEL_OUTDIR re-roots relative paths."""
    if text is None:
        return None
    p = Path(text)
    base = os.environ.get("VALSEL_OUTDIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _parse_epsilon(text: str, step: float) -> list[float]:
    """A float, or an inclusive range "a..b" stepped by --epsilon-step."""
    if ".." not in text:
        try:
            return [float(text)]
        except ValueError:
            raise ConfigError(f"bad epsilon {text!r}") from None
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ConfigError(f"bad epsilon range {text!r}") from None
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad epsilon range {text!r} with step {step}")
    if hi > 1.0:
        raise ConfigError(f"bad epsilon range {text!r}: epsilon lies in (0, 1]")
    values = []
    k = 0
    while True:
        v = round(lo + k * step, 10)
        if v > hi + 1e-9:
            break
        values.append(min(v, 1.0))
        k += 1
    return values


def _experiment_config(cfg: RunConfig, epsilon: float) -> ExperimentConfig:
    return ExperimentConfig(
        disc_method=cfg.disc_method,
        bins=cfg.bins,
        method=cfg.method,
        iota=cfg.iota,
        epsilon=epsilon,
        seed=cfg.seed,
        repeats=cfg.repeats,
        folds=cfg.folds,
        fold_safe=cfg.fold_safe,
        jobs=cfg.jobs,
        learner=cfg.learner_spec(),
        fraction=cfg.fraction,
        columns=cfg.columns,
        rate=cfg.rate,
        dataset_entropy=cfg.dataset_entropy,
    )


def cmd_discretize(cfg: RunConfig, args) -> None:
    d = _load_input(cfg)
    if not cfg.output:
        raise ConfigError("discretize needs --output")
    spec = _disc.fit(d, cfg.disc_method, cfg.bins)
    out = _disc.apply(spec, d)
    save_dataset(out, _out_path(cfg.output), args.output_format, cfg.missing_token)
    if args.spec_out:
        spec.save(_out_path(args.spec_out))


def cmd_filter(cfg: RunConfig, args) -> None:
    d = _load_input(cfg)
    if not cfg.output:
        raise ConfigError("filter needs --output")
    if cfg.disc_method != "none":
        d = _disc.apply(_disc.fit(d, cfg.disc_method, cfg.bins), d)

    audit_lines = None
    if cfg.method in ("pvs", "pvs_plus"):
        stats = compute_stats(d, cfg.dataset_entropy)
        vs = VSConfig(cfg.method, cfg.iota, cfg.epsilon, cfg.seed, cfg.repeats)
        outcome = apply_selection(d, vs, stats)
        filtered = outcome.filtered
        audit_lines = outcome.audit_text(d)
        if args.stats_out:
            _out_path(args.stats_out).write_text(
                stats.format_table(cfg.iota, cfg.epsilon), encoding="utf-8"
            )
    elif cfg.method == "none":
        filtered = d
    else:
        bl = BaselineConfig(
            cfg.method,
            fraction=cfg.fraction,
            folds=min(cfg.folds, max(2, len(d.instances))),
            seed=cfg.seed,
            columns=cfg.columns,
            rate=cfg.rate,
        )
        filtered = apply_baseline(d, bl, cfg.learner_spec())
        audit_lines = (
            f"mode: {cfg.method}\n"
            f"instances: {len(d.instances)} -> {len(filtered.instances)}\n"
            f"features: {len(d.features)} -> {len(filtered.features)}\n"
        )
        if args.stats_out:
            _out_path(args.stats_out).write_text(
                compute_stats(d, cfg.dataset_entropy).format_table(cfg.iota, cfg.epsilon),
                encoding="utf-8",
            )
    save_dataset(filtered, _out_path(cfg.output), args.output_format, cfg.missing_token)
    if args.audit_out:
        if audit_lines is None:
            audit_lines = f"mode: {cfg.method}\n"
        _out_path(args.audit_out).write_text(audit_lines, encoding="utf-8")


def cmd_experiment(cfg: RunConfig, args) -> None:
    d = _load_input(cfg)
    eps_text = args.epsilon if args.epsilon is not None else None
    if eps_text is None:
        eps_values = [cfg.epsilon]
    else:
        eps_values = _parse_epsilon(eps_text, args.epsilon_step)
    reports = []
    for eps in eps_values:
        report = run_experiment(d, _experiment_config(cfg, eps))
        reports.append(report)
        if args.report:
            path = _out_path(args.report)
            if len(eps_values) > 1:
                path = path.with_name(
                    f"{path.stem}-eps{format(eps, 'g')}{path.suffix}"
                )
            report.save(path, include_timings=args.timings)
    sys.stdout.write(format_report_table(reports))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valsel",
        description="Value-selection preprocessing and compact-model evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", help="flat key=value settings file")
    io.add_argument("--input", help="dataset path (csv or arff)")
    io.add_argument("--format", choices=["csv", "arff"], help="input format (default: by suffix)")
    io.add_argument("--class-index", dest="class_index", help='0-based column or "last"')
    io.add_argument("--missing-token", dest="missing_token", help="CSV missing marker (default ?)")
    io.add_argument(
        "--header",
        dest="header",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="first CSV row is a header (default: yes)",
    )
    io.add_argument("--seed", type=int, help="root random seed (default 0)")
    io.add_argument("--verbose", action="store_true", help="log at INFO level")

    disc = argparse.ArgumentParser(add_help=False)
    disc.add_argument(
        "--disc-method",
        dest="disc_method",
        choices=["binning", "frequency", "mdl", "none"],
        help="discretization of numeric features (default frequency)",
    )
    disc.add_argument("--bins", type=int, help="bin count for binning/frequency (default 10)")

    p_disc = sub.add_parser("discretize", parents=[io, disc], help="rewrite numeric features into intervals")
    p_disc.add_argument("--output", help="where to write the discretized dataset")
    p_disc.add_argument("--output-format", choices=["csv", "arff"], default="arff")
    p_disc.add_argument("--spec-out", dest="spec_out", help="write the fitted cut lists here")

    filt = argparse.ArgumentParser(add_help=False)
    filt.add_argument(
        "--method",
        choices=[
            "none",
            "pvs",
            "pvs_plus",
            "reservoir",
            "misclassified",
            "drop_columns",
            "random_value",
        ],
        help="filter to apply (default pvs_plus)",
    )
    filt.add_argument("--iota", choices=["entropy", "infogain"], help="selection metric (default entropy)")
    filt.add_argument("--fraction", type=float, help="reservoir keep fraction (default 0.05)")
    filt.add_argument("--drop", dest="columns", help="comma-separated feature names for drop_columns")
    filt.add_argument("--rate", type=float, help="removal rate for random_value")
    filt.add_argument(
        "--dataset-entropy",
        dest="dataset_entropy",
        choices=["value-sum", "class"],
        help="how H(D) is read (default value-sum)",
    )

    learn = argparse.ArgumentParser(add_help=False)
    learn.add_argument("--learner", choices=["tree", "rules"], help="classifier (default tree)")
    learn.add_argument("--min-leaf", dest="min_leaf", type=int, help="tree leaf minimum (default 2)")
    learn.add_argument("--cf", type=float, help="tree pruning confidence, 1 disables (default 0.25)")
    learn.add_argument(
        "--prune-fraction",
        dest="prune_fraction",
        type=float,
        help="rule prune-split share (default 1/3)",
    )

    p_filt = sub.add_parser("filter", parents=[io, disc, filt, learn], help="write a filtered dataset")
    p_filt.add_argument("--epsilon", type=float, help="removal amplifier in (0, 1] (default 0.5)")
    p_filt.add_argument("--output", help="where to write the filtered dataset")
    p_filt.add_argument("--output-format", choices=["csv", "arff"], default="arff")
    p_filt.add_argument("--audit-out", dest="audit_out", help="write the removal audit here")
    p_filt.add_argument("--stats-out", dest="stats_out", help="write the per-value metric table here")

    p_exp = sub.add_parser(
        "experiment", parents=[io, disc, filt, learn], help="run the full evaluation pipeline"
    )
    p_exp.add_argument(
        "--epsilon",
        help='amplifier, a float or an inclusive sweep "0.1..1.0" (default 0.5)',
    )
    p_exp.add_argument(
        "--epsilon-step",
        dest="epsilon_step",
        type=float,
        default=0.1,
        help="sweep step (default 0.1)",
    )
    p_exp.add_argument("--repeats", type=int, help="filter repetitions averaged (default 5)")
    p_exp.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
    p_exp.add_argument(
        "--fold-safe",
        dest="fold_safe",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="refit preprocessing inside each training fold",
    )
    p_exp.add_argument("--jobs", type=int, help="concurrent filter repetitions (default 1)")
    p_exp.add_argument("--report", help="write the JSON report here")
    p_exp.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cli_values = {
            k: v for k, v in vars(args).items() if k in {f.name for f in dataclasses.fields(RunConfig)}
        }
        if args.command == "experiment":
            cli_values.pop("epsilon", None)  # may be a sweep; handled per command
        cfg = resolve_config(cli_values, file_values)
        if args.command == "discretize":
            cmd_discretize(cfg, args)
        elif args.command == "filter":
            cmd_filter(cfg, args)
        else:
            cmd_experiment(cfg, args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
