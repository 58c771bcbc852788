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
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import discretize as _disc
from .classifiers import LEARNERS, LearnerSpec
from .data import load_dataset, save_dataset
from .errors import ConfigError, DataError
from .evaluate import FILTERS, ExperimentConfig, format_report_table, run_experiment
from .metrics import DATASET_ENTROPIES, IOTAS, compute_stats
from .selection import FilterOutcome


@dataclass(frozen=True)
class RunConfig:
    """Where one invocation reads and writes; every other knob is an ExperimentConfig field."""

    input: str | None = None
    format: str | None = None
    class_index: str = "last"
    missing_token: str = "?"
    header: bool = True
    output: str | None = None


def _defaults(cls) -> dict:
    """Field name -> default; ExperimentConfig.learner, built from the
    LearnerSpec keys, has a default factory instead and is left out."""
    return {
        f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }


def _learner_key(name: str) -> str:
    """Config key of a LearnerSpec field; kind is the one not named after its field."""
    return "learner" if name == "kind" else name


#: Every config-file key with its default; the type of the default (str
#: for None) is how a value given as text is read.
DEFAULTS = {
    **_defaults(RunConfig),
    **_defaults(ExperimentConfig),
    **{_learner_key(k): v for k, v in _defaults(LearnerSpec).items()},
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, raw):
    default = DEFAULTS[name]
    kind = str if default is None else type(default)
    if not isinstance(raw, str) or kind is str:
        return raw
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        if kind is tuple:
            return tuple(t for t in (s.strip() for s in raw.split(",")) if t)
        return kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value {raw!r} for config key {name!r}") from None


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
    for key in out:
        if key not in DEFAULTS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return out


def resolve_config(cli: dict, file_values: dict[str, str]) -> dict:
    """Every config key's value: defaults, overridden by the config file,
    overridden by flags."""
    values = dict(DEFAULTS)
    for key in DEFAULTS:
        value = cli.get(key)
        if value is None:
            value = file_values.get(key)
        if value is not None:
            values[key] = _coerce(key, value)
    return values


def _knobs(values: dict, **overrides) -> ExperimentConfig:
    learner = LearnerSpec(**{k: values[_learner_key(k)] for k in _defaults(LearnerSpec)})
    knobs = {k: values[k] for k in _defaults(ExperimentConfig)}
    return ExperimentConfig(**{**knobs, **overrides}, learner=learner)


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
    if not (math.isfinite(lo) and lo <= hi and step > 0):
        raise ConfigError(f"bad epsilon range {text!r} with step {step}")
    if hi > 1.0:
        raise ConfigError(f"bad epsilon range {text!r}: epsilon lies in (0, 1]")
    if step < 1e-10:
        raise ConfigError(f"epsilon step {step} is below the sweep's 1e-10 resolution")
    # Points are rounded to 1e-10 so float drift stays out of report names;
    # none repeats and none passes hi.
    values: list[float] = []
    for k in range(math.floor((hi - lo) / step + 1e-9) + 1):
        v = min(round(lo + k * step, 10), hi)
        if not values or v > values[-1]:
            values.append(v)
    return values


def cmd_discretize(io: RunConfig, values: dict, args) -> None:
    d = _load_input(io)
    if not io.output:
        raise ConfigError("discretize needs --output")
    spec = _disc.fit(d, values["disc_method"], values["bins"])
    out = _disc.apply(spec, d)
    save_dataset(out, _out_path(io.output), args.output_format, io.missing_token)
    if args.spec_out:
        spec.save(_out_path(args.spec_out))


def cmd_filter(io: RunConfig, values: dict, args) -> None:
    d = _load_input(io)
    if not io.output:
        raise ConfigError("filter needs --output")
    cfg = _knobs(values)
    d = _disc.apply(_disc.fit(d, cfg.disc_method, cfg.bins), d)

    stats = None
    if FILTERS[cfg.method].needs_stats or args.stats_out:
        stats = compute_stats(d, cfg.dataset_entropy)
    out = FILTERS[cfg.method].run(d, cfg, cfg.seed, stats)
    if isinstance(out, FilterOutcome):
        filtered, audit = out.filtered, out.audit_text(d)
    else:
        filtered, audit = out, f"mode: {cfg.method}\n"
        if cfg.method != "none":
            audit += (
                f"instances: {len(d.instances)} -> {len(filtered.instances)}\n"
                f"features: {len(d.features)} -> {len(filtered.features)}\n"
            )
    if args.stats_out:
        _out_path(args.stats_out).write_text(
            stats.format_table(cfg.iota, cfg.epsilon), encoding="utf-8"
        )
    save_dataset(filtered, _out_path(io.output), args.output_format, io.missing_token)
    if args.audit_out:
        _out_path(args.audit_out).write_text(audit, encoding="utf-8")


def cmd_experiment(io: RunConfig, values: dict, args) -> None:
    d = _load_input(io)
    if args.epsilon is None:
        eps_values = [values["epsilon"]]
    else:
        eps_values = _parse_epsilon(args.epsilon, args.epsilon_step)
    reports = []
    for eps in eps_values:
        report = run_experiment(d, _knobs(values, epsilon=eps))
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
        choices=_disc.METHODS,
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
        choices=list(FILTERS),
        help="filter to apply (default pvs_plus)",
    )
    filt.add_argument("--iota", choices=IOTAS, help="selection metric (default entropy)")
    filt.add_argument("--fraction", type=float, help="reservoir keep fraction (default 0.05)")
    filt.add_argument("--drop", dest="columns", help="comma-separated feature names for drop_columns")
    filt.add_argument("--rate", type=float, help="removal rate for random_value")
    filt.add_argument(
        "--dataset-entropy",
        dest="dataset_entropy",
        choices=DATASET_ENTROPIES,
        help="how H(D) is read (default value-sum)",
    )

    learn = argparse.ArgumentParser(add_help=False)
    learn.add_argument("--learner", choices=LEARNERS, help="classifier (default tree)")
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
        cli_values = {k: v for k, v in vars(args).items() if k in DEFAULTS}
        if args.command == "experiment":
            cli_values.pop("epsilon", None)  # may be a sweep; handled per command
        values = resolve_config(cli_values, file_values)
        io = RunConfig(**{k: values[k] for k in _defaults(RunConfig)})
        commands = {"discretize": cmd_discretize, "filter": cmd_filter, "experiment": cmd_experiment}
        commands[args.command](io, values, args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
