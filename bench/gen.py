"""Seeded synthetic inputs for the benchmark workloads.

Features x0..x{F-1} are standard Gaussians written as decimal tokens.
The 3-class label thresholds a noisy linear score of x0, x1 and x2, so
every other feature is pure noise. Slots go missing independently at
the shape's missing rate; labels are never missing. The same seed
always gives the same tokens.
"""

from __future__ import annotations

import random

LABELS = ("c0", "c1", "c2")
WEIGHTS = (1.0, 0.7, -0.5)
NOISE_SD = 0.4
CUTS = (-0.5, 0.5)


def generate(seed: int, rows: int, features: int, missing: float):
    """Return (feature_names, token_rows, labels); None marks a missing slot."""
    rng = random.Random(seed)
    names = [f"x{k}" for k in range(features)]
    token_rows = []
    labels = []
    for _ in range(rows):
        xs = [rng.gauss(0.0, 1.0) for _ in range(features)]
        score = sum(w * v for w, v in zip(WEIGHTS, xs)) + rng.gauss(0.0, NOISE_SD)
        labels.append(LABELS[sum(score > c for c in CUTS)])
        token_rows.append(
            [None if missing and rng.random() < missing else f"{v:.3f}" for v in xs]
        )
    return names, token_rows, labels
