"""Output files and checks shared by the benchmark's parent and worker processes.

A workload run that fails any check counts as failed and none of its
timings are reported.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

CLI_OUTPUTS = ("disc.arff", "filtered.arff", "audit.txt", "stats.txt")


def cli_commands(commands, work: Path) -> tuple[dict, list[list[str]]]:
    """Output paths by name, and the CLI workload's argv lists with paths filled in."""
    paths = {k: str(work / k) for k in CLI_OUTPUTS}
    fill = dict(
        input=str(work / "input.csv"), cuts=str(work / "cuts.json"),
        disc=paths["disc.arff"], filtered=paths["filtered.arff"],
        audit=paths["audit.txt"], stats=paths["stats.txt"],
    )
    return paths, [[a.format(**fill) for a in cmd] for cmd in commands]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_failures(actual: dict, expected: dict | None) -> list[str]:
    """Compare digests by name; expected None means no stored digests apply."""
    if expected is None:
        return []
    return [
        f"{name}: sha256 {actual.get(name)} != stored {want}"
        for name, want in sorted(expected.items())
        if actual.get(name) != want
    ]


def report_failures(report, folds: int, repeats: int) -> list[str]:
    """Run records match folds x repeats (no clamped arm); MR and AR finite."""
    out = []
    if len(report.original_runs) != folds:
        out.append(f"original arm has {len(report.original_runs)} runs, expected {folds}")
    if len(report.filtered_runs) != folds * repeats:
        out.append(
            f"filtered arm has {len(report.filtered_runs)} runs, expected {folds * repeats}"
        )
    for name in ("mr", "ar"):
        value = getattr(report, name)
        if not math.isfinite(value):
            out.append(f"{name} is not finite: {value}")
    return out


def kept_ratio_failures(ratio: float, bounds) -> list[str]:
    lo, hi = bounds
    if not lo <= ratio <= hi:
        return [f"filter kept {ratio:.5f} of the rows, outside the guard [{lo}, {hi}]"]
    return []


def cli_failures(paths: dict, n_rows: int, guard, expected: dict | None):
    """Check the CLI workload's files; return (failures, kept_ratio, digests).

    paths maps each name in CLI_OUTPUTS to its file. filtered.arff must
    reload with as many instances as the audit says survived.
    """
    from valsel import load_dataset
    from valsel.errors import DataError

    failures = []
    digests = {}
    for name in CLI_OUTPUTS:
        p = Path(paths[name])
        if not p.is_file():
            return [f"{name} was not written"], 0.0, digests
        digests[name] = sha256_bytes(p.read_bytes())
    removed = None
    for line in Path(paths["audit.txt"]).read_text(encoding="utf-8").splitlines():
        if line.startswith("removed instances:"):
            removed = len(line.split(":", 1)[1].split())
    if removed is None:
        return ["audit has no 'removed instances' line"], 0.0, digests
    try:
        kept = len(load_dataset(paths["filtered.arff"]).instances)
    except DataError as exc:
        return [f"filtered.arff does not reload: {exc}"], 0.0, digests
    if kept != n_rows - removed:
        failures.append(f"filtered.arff has {kept} rows, audit says {n_rows - removed}")
    ratio = kept / n_rows
    failures += kept_ratio_failures(ratio, guard)
    failures += digest_failures(digests, expected)
    return failures, ratio, digests
