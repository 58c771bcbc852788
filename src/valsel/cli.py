"""Command line front end: discretize, filter, experiment.

Every setting is a key of DEFAULTS. Settings resolve in order: the
defaults, then a flat key=value config file given with --config, then
explicit flags. A key's flag is --key with - for _, and its text is read
as the config file's is. Every knob a command reads is checked before
its input is read. Exit codes: 0 success, 1 data error (unreadable or
malformed input), 2 config error (bad parameter values, including
argparse rejections). All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

from . import discretize as _disc
from .classifiers import LEARNERS, LearnerSpec
from .data import FORMATS, load_dataset, save_dataset
from .errors import ConfigError, DataError
from .evaluate import FILTERS, ExperimentConfig, epsilon_text, format_report_table, run_experiment
from .metrics import DATASET_ENTROPIES, IOTAS, compute_stats
from .selection import FilterOutcome


def _defaults(cls) -> dict:
    """Field name -> default; ExperimentConfig.learner, built from the
    LearnerSpec keys, has a default factory instead and is left out."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _learner_key(name: str) -> str:
    """Config key of a LearnerSpec field; kind is the one not named after its field."""
    return "learner" if name == "kind" else name


#: Every config key with its default: first where one invocation reads and
#: writes, then the knobs. The type of the default (str for None) is how a
#: value given as text, in the config file or a flag, is read.
DEFAULTS = {
    "input": None, "format": None, "class_index": "last", "missing_token": "?", "header": True,
    "output": None,
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
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
        value = file_values.get(key) if cli.get(key) is None else cli[key]
        if value is not None:
            values[key] = _coerce(key, value)
    return values


def _knobs(values: dict, **overrides) -> ExperimentConfig:
    learner = LearnerSpec(**{k: values[_learner_key(k)] for k in _defaults(LearnerSpec)})
    knobs = {k: values[k] for k in _defaults(ExperimentConfig)}
    return ExperimentConfig(**{**knobs, **overrides}, learner=learner)


def _load_input(values: dict):
    if not values["input"]:
        raise ConfigError("no input file given (use --input or input= in the config)")
    return load_dataset(values["input"], values["format"], class_index=values["class_index"],
                        missing_token=values["missing_token"], header=values["header"])


def _out_path(text: str) -> Path:
    """Resolve an output path; VALSEL_OUTDIR re-roots relative paths."""
    p = Path(text)
    base = os.environ.get("VALSEL_OUTDIR")
    return Path(base) / p if base and not p.is_absolute() else p


def _parse_epsilon(text: str, step: float) -> list[float]:
    """A float, or an inclusive range "a..b" stepped by --epsilon-step; each
    number is read as the config file reads one."""
    if ".." not in text:
        return [_coerce("epsilon", text)]
    lo, hi = (_coerce("epsilon", end) for end in text.split("..", 1))
    if not (math.isfinite(lo) and lo <= hi and step > 0):
        raise ConfigError(f"bad epsilon range {text!r} with step {step}")
    if lo <= 0.0 or hi > 1.0:
        raise ConfigError(f"bad epsilon range {text!r}: epsilon lies in (0, 1]")
    if step < 1e-10:
        raise ConfigError(f"epsilon step {step} is below the sweep's 1e-10 resolution")
    count = math.floor((hi - lo) / step + 1e-9) + 1
    if count > 10_000:
        raise ConfigError(f"epsilon range {text!r} with step {step} has {count} points, over 10000")
    # Points are rounded to 1e-10 so float drift stays out of report names;
    # none repeats and none passes hi.
    values: list[float] = []
    for k in range(count):
        v = min(round(lo + k * step, 10), hi)
        if not values or v > values[-1]:
            values.append(v)
    return values


def cmd_discretize(values: dict, args) -> None:
    if not values["output"]:
        raise ConfigError("discretize needs --output")
    _disc.check_knobs(values["disc_method"], values["bins"])
    d = _load_input(values)
    spec = _disc.fit(d, values["disc_method"], values["bins"])
    out = _disc.apply(spec, d)
    del d  # the raw rows need not stay in memory while the output is written
    save_dataset(out, _out_path(values["output"]), missing_token=values["missing_token"])
    if args.spec_out:
        spec.save(_out_path(args.spec_out))


def cmd_filter(values: dict, args) -> None:
    if not values["output"]:
        raise ConfigError("filter needs --output")
    cfg = _knobs(values)
    if args.stats_out:
        cfg.check_stats_knobs()
    d = _load_input(values)
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
            audit += (f"instances: {len(d.instances)} -> {len(filtered.instances)}\n"
                      f"features: {len(d.features)} -> {len(filtered.features)}\n")
    if args.stats_out:
        table = stats.format_table(cfg.iota, cfg.epsilon)
        _out_path(args.stats_out).write_text(table, encoding="utf-8")
    save_dataset(filtered, _out_path(values["output"]), missing_token=values["missing_token"])
    if args.audit_out:
        _out_path(args.audit_out).write_text(audit, encoding="utf-8")


def cmd_experiment(values: dict, args) -> None:
    sweep = [values["epsilon"]]
    if args.sweep is not None:
        sweep = _parse_epsilon(args.sweep, args.epsilon_step)
    cfgs = [_knobs(values, epsilon=eps) for eps in sweep]
    method = cfgs[0].method
    if len(cfgs) > 1 and not FILTERS[method].needs_stats:
        raise ConfigError(f"method {method!r} reads no epsilon, so a sweep repeats one report")
    cfgs[0].learner.check()
    d = _load_input(values)
    reports = []
    for cfg in cfgs:
        report = run_experiment(d, cfg)
        reports.append(report)
        if args.report:
            path = _out_path(args.report)
            if len(cfgs) > 1:
                path = path.with_name(f"{path.stem}-eps{epsilon_text(cfg.epsilon)}{path.suffix}")
            report.save(path, include_timings=args.timings)
    sys.stdout.write(format_report_table(reports))


#: The help line of each config key given as a flag; _settings adds its default.
_HELP = {
    "input": "dataset path (csv or arff)",
    "format": "input format, by file suffix when unset",
    "class_index": '0-based class column or "last"',
    "missing_token": "CSV missing marker",
    "header": "first CSV row is a header",
    "seed": "root random seed",
    "disc_method": "discretization of numeric features",
    "bins": "bin count for binning/frequency",
    "output": "where to write the output dataset, as ARFF for .arff and CSV otherwise",
    "method": "filter to apply",
    "iota": "selection metric",
    "fraction": "reservoir keep fraction",
    "rate": "removal rate for random_value",
    "dataset_entropy": "how H(D) is read",
    "learner": "classifier",
    "min_leaf": "tree leaf minimum",
    "cf": "tree pruning confidence, 1 disables",
    "prune_fraction": "rule prune-split share",
    "epsilon": "removal amplifier in (0, 1]",
    "repeats": "filter repetitions averaged",
    "folds": "cross-validation folds",
    "fold_safe": "refit preprocessing inside each training fold",
    "jobs": "kept for old configs; repetitions run one at a time",
}
_CHOICES = {"format": FORMATS, "disc_method": _disc.METHODS, "method": tuple(FILTERS),
            "iota": IOTAS, "dataset_entropy": DATASET_ENTROPIES, "learner": LEARNERS}


def _shown(default) -> str:
    """A default as a config file writes it."""
    if isinstance(default, bool):
        return "yes" if default else "no"
    return format(default, "g") if isinstance(default, float) else str(default)


def _settings(parser, *keys) -> None:
    """Add each config key's flag: --key with - for _, a --no- twin for a
    yes/no key, and no default of its own, so an absent flag leaves the
    config file's value or the default in place."""
    for key in keys:
        default, help = DEFAULTS[key], _HELP[key]
        if default is not None:
            help += f" (default {_shown(default)})"
        kind = ({"action": argparse.BooleanOptionalAction} if isinstance(default, bool)
                else {"choices": _CHOICES.get(key)})
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help, **kind)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valsel", description="Value-selection preprocessing and compact-model evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value settings file")
    _settings(shared, "input", "format", "class_index", "missing_token", "header", "seed")
    shared.add_argument("--verbose", action="store_true", help="log at INFO level")
    _settings(shared, "disc_method", "bins")

    writes = argparse.ArgumentParser(add_help=False)
    _settings(writes, "output")

    learning = argparse.ArgumentParser(add_help=False)
    _settings(learning, "method", "iota", "fraction")
    learning.add_argument("--drop", dest="columns",
                          help="comma-separated feature names for drop_columns")
    _settings(learning, "rate", "dataset_entropy", "learner", "min_leaf", "cf", "prune_fraction")

    p = sub.add_parser("discretize", parents=[shared, writes],
                       help="rewrite numeric features into intervals")
    p.add_argument("--spec-out", help="write the fitted cut lists here")
    p.set_defaults(run=cmd_discretize)

    p = sub.add_parser("filter", parents=[shared, learning, writes],
                       help="write a filtered dataset")
    _settings(p, "epsilon")
    p.add_argument("--audit-out", help="write the removal audit here")
    p.add_argument("--stats-out", help="write the per-value metric table here")
    p.set_defaults(run=cmd_filter)

    p = sub.add_parser("experiment", parents=[shared, learning],
                       help="run the full evaluation pipeline")
    p.add_argument("--epsilon", dest="sweep", metavar="EPSILON",
                   help=f'{_HELP["epsilon"]}, or an inclusive sweep "0.1..1.0" '
                   f'(default {_shown(DEFAULTS["epsilon"])})')
    p.add_argument("--epsilon-step", type=float, default=0.1,
                   help="sweep step (default %(default)s)")
    _settings(p, "repeats", "folds", "fold_safe", "jobs")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--timings", action="store_true", help="add wall-clock timings to the report")
    p.set_defaults(run=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        file_values = load_config_file(args.config) if args.config else {}
        args.run(resolve_config(vars(args), file_values), args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
