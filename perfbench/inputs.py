"""Seeded inputs for the benchmark workloads.

The program under test receives only what this module writes: experiment
configs derived from the repository's own ``configs/*.json``, and matrix
files (SSMX binary or CSV) for the denoise requests.  The same seed always
gives the same files.  Matrices are built here with NumPy alone, so a change
to the package's own signal generators cannot change the inputs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The repository configs use root_seed 20240811 (fig2) and 20240812 (fig5);
# the default seed reproduces both.
DEFAULT_SEED = 20240811

# Replications per sweep pass: about half a second of work per pass, so a
# run times dozens of passes and reports their median.
SWEEP_REPLICATIONS = {"fig2-sweep": 4, "fig5-rankcap": 10}
SWEEP_CONFIGS = {"fig2-sweep": "fig2.json", "fig5-rankcap": "fig5.json"}

CLAMP_FLOOR = 1e-6  # the CLI's default --epsilon, applied to Gamma/Poisson outputs


def sweep_config(root: Path, workload: str, seed: int) -> dict:
    """The repository config for ``workload`` at a reduced replication count,
    with ``root_seed`` shifted by the seed's offset from the default."""
    config = json.loads((root / "configs" / SWEEP_CONFIGS[workload]).read_text(encoding="utf-8"))
    config["root_seed"] = int(config["root_seed"]) - DEFAULT_SEED + seed
    config["replications"] = SWEEP_REPLICATIONS[workload]
    return config


def expected_sweep_shape(config: dict) -> tuple[int, int, int]:
    """(tasks per pass, records per pass, summary cells) for a sweep config."""
    points = len(config["sweep"]["values"])
    per_rep = len(config["estimators"]) * len(config.get("metrics", ["nmse"]))
    reps = config["replications"]
    if config["sweep"]["parameter"] == "rank_cap":
        return reps, reps * per_rep * points, per_rep * points
    return reps * points, reps * per_rep * points, per_rep * points


# ---------------------------------------------------------------------------
# denoise-mix


@dataclass(frozen=True)
class Matrix:
    """Noisy observations of rank-2 quadratic-profile spikes; ``draws``
    independent noise draws are written, each one request input."""

    name: str
    family: str  # gaussian | gamma | poisson
    shape: tuple[int, int]
    spikes: tuple[float, float]
    noise: float  # tau for Gaussian, L for Gamma, unused for Poisson
    draws: int = 1


@dataclass(frozen=True)
class Request:
    """One `svshrink denoise` request class of the denoise-mix cycle."""

    name: str
    matrix: str
    fmt: str  # ssmx | csv
    args: tuple[str, ...]


# The Poisson weight fit does data-dependent work (solver steps per
# coordinate change with the noise draw); four draws per run average it out
# and put the median request inside that class.  The other requests cost
# about the same on every draw.
MATRICES = (
    Matrix("gauss500", "gaussian", (500, 500), (3000.0, 1500.0), 1.0),
    Matrix("gamma60", "gamma", (60, 60), (600.0, 200.0), 4.0),
    Matrix("pois100x120", "poisson", (100, 120), (1000.0, 300.0), 0.0, draws=4),
    Matrix("pois40", "poisson", (40, 40), (300.0, 100.0), 0.0),
)

REQUESTS = (
    Request("gaussian-weights", "gauss500", "ssmx",
            ("--family", "gaussian", "--tau", "1", "--method", "weights")),
    Request("gaussian-soft", "gauss500", "csv",
            ("--family", "gaussian", "--tau", "1", "--method", "soft")),
    # Fixed ranks for the weight fits: the one-shot greedy set keeps 41 to 49
    # of 60 indices (Gamma) or 12 to 19 (Poisson) depending on the draw, and
    # with it the fit's cost varies up to fivefold, mostly by whether trial
    # estimates reach the clamp floor.  The greedy set still runs in the soft
    # requests of both families.
    Request("gamma-sukls-weights", "gamma60", "csv",
            ("--family", "gamma", "--L", "4", "--method", "weights", "--objective", "sukls",
             "--rank", "4")),
    Request("gamma-gsure-soft", "gamma60", "ssmx",
            ("--family", "gamma", "--L", "4", "--method", "soft", "--objective", "gsure")),
    Request("poisson-pukla-weights", "pois100x120", "ssmx",
            ("--family", "poisson", "--method", "weights", "--objective", "pukla", "--rank", "2")),
    Request("poisson-pure-soft", "pois40", "csv",
            ("--family", "poisson", "--method", "soft", "--objective", "pure")),
)


def _profile_vectors(n: int, r: int) -> np.ndarray:
    """Orthonormal columns: the positive profile ``1 - (t - 1/2)^2`` modulated
    by low-frequency cosines, signs fixed so each column sums positive."""
    t = np.arange(1, n + 1) / n
    profile = 1.0 - (t - 0.5) ** 2
    raw = np.stack([profile * np.cos(np.pi * k * (t - 0.5 / n)) for k in range(r)], axis=1)
    q, _ = np.linalg.qr(raw)
    return q * np.sign(q.sum(axis=0))


def observation(spec: Matrix, rng: np.random.Generator) -> np.ndarray:
    n, m = spec.shape
    signal = (_profile_vectors(n, 2) * np.asarray(spec.spikes)) @ _profile_vectors(m, 2).T
    if spec.family == "gaussian":
        return signal + spec.noise * rng.standard_normal(signal.shape)
    if spec.family == "gamma":
        return rng.gamma(shape=spec.noise, scale=signal / spec.noise)
    return rng.poisson(signal).astype(float)


def write_ssmx(path: Path, matrix: np.ndarray) -> None:
    n, m = matrix.shape
    path.write_bytes(struct.pack("<4sQQ", b"SSMX", n, m) + np.ascontiguousarray(matrix, "<f8").tobytes())


def write_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, matrix, delimiter=",", fmt="%.17g")


def denoise_inputs(work: Path, seed: int) -> list[tuple[str, Path, np.ndarray, Request]]:
    """Write every denoise-mix input file.  Returns the cycle: one (label,
    input path, observed matrix, request) per request, draws interleaved."""
    specs = {spec.name: spec for spec in MATRICES}
    observed = {}
    for idx, spec in enumerate(MATRICES):
        for draw in range(spec.draws):
            observed[spec.name, draw] = observation(spec, np.random.default_rng([seed, idx, draw]))
    cycle = []
    for draw in range(max(spec.draws for spec in MATRICES)):
        for req in REQUESTS:
            if draw >= specs[req.matrix].draws:
                continue
            y = observed[req.matrix, draw]
            path = work / f"{req.matrix}-{draw}.{req.fmt}"
            if not path.exists():
                (write_ssmx if req.fmt == "ssmx" else write_csv)(path, y)
            cycle.append((f"{req.name}-{draw}", path, y, req))
    return cycle
