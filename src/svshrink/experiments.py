"""Seeded replication sweeps: signal generation, estimator fitting by tag,
metric records, and quantile summaries.

A run is fully determined by its config (JSON-serializable): data seeds are
derived from the root seed, the sweep index, and the replication index, so
results are reproducible and independent of any thread schedule.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import activeset, linalg, metrics, risk, rmt, shrinkage
from .errors import DomainError, NumericalError, ParameterError, SvshrinkError
from .linalg import DEFAULT_CLAMP_FLOOR, SpectralFunction, SvdFactorization
from .models import Gaussian, NoiseModel, json_object, json_type, model_from_config

SWEEP_PARAMETERS = ("sigma1", "true_rank", "tau", "rsnr", "rank_cap")


def check_integer(value, what: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int, if it is an integer in [least, most] (``10.0`` counts,
    a bool does not); else a :class:`ParameterError` reading ``what``."""
    if not linalg.is_integer(value) or not least <= value <= most:
        raise ParameterError(f"{what}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# signal generation


def profile_vectors(n: int, r: int) -> np.ndarray:
    """Orthonormal columns built from the positive quadratic profile modulated
    by low-frequency cosines; the first column is the profile itself."""
    if r > n:
        raise DomainError(f"cannot build {r} orthonormal vectors of length {n}")
    t = np.arange(1, n + 1) / n
    profile = 1.0 - (t - 0.5) ** 2
    raw = np.stack([profile * np.cos(np.pi * k * (t - 0.5 / n)) for k in range(r)], axis=1)
    q, _ = np.linalg.qr(raw)
    return linalg._apply_sign_convention(q, q)[0]


def cosine_vectors(n: int, r: int) -> np.ndarray:
    """Orthonormal cosine (DCT-like) columns; the first one is constant."""
    if r > n:
        raise DomainError(f"cannot build {r} orthonormal vectors of length {n}")
    i = np.arange(n)
    raw = np.stack([np.cos(np.pi * k * (i + 0.5) / n) for k in range(r)], axis=1)
    norms = np.linalg.norm(raw, axis=0)
    return raw / norms


_RECIPES = {"quadratic_profile": profile_vectors, "cosine": cosine_vectors}
# The JSON keys of each signal type besides "type"; SignalSpec checks their values.
_SIGNAL_KEYS = {
    "spike": ("sigmas", "recipe"), "equal_spikes": ("gamma", "rank", "recipe"), "explicit": ("entries",),
}


@dataclass(frozen=True)
class SignalSpec:
    """Either an explicit matrix or a spiked low-rank construction."""

    kind: str
    sigmas: tuple[float, ...] = ()
    recipe: str = "quadratic_profile"
    gamma: Optional[float] = None
    rank: Optional[int] = None
    # An explicit matrix is kept as a tuple of rows, so specs compare by value.
    entries: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if self.kind not in tuple(_SIGNAL_KEYS):  # a tuple: an unhashable kind is compared, not hashed
            raise ParameterError(f"unknown signal type {self.kind!r}")
        if self.recipe not in tuple(_RECIPES):
            raise ParameterError(f"unknown signal recipe {self.recipe!r}; known: {sorted(_RECIPES)}")
        # An array of JSON numbers for every type; only a spike signal's is not empty.
        sigmas = json_type(self.sigmas, "$.signal.sigmas", "array")
        sigmas = tuple(json_type(v, f"$.signal.sigmas[{i}]", "number") for i, v in enumerate(sigmas))
        object.__setattr__(self, "sigmas", sigmas)
        if self.kind == "explicit":
            try:
                rows = np.asarray(self.entries, dtype=float)
            except OverflowError:  # an integer beyond the float range: json_type names its entry
                rows = np.asarray(self.entries, dtype=object)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"explicit signal entries must form a numeric matrix: {exc}") from exc
            if rows.ndim != 2:
                raise ParameterError(
                    f"explicit signal entries must form a numeric matrix, got {rows.ndim} dimensions"
                )
            # NumPy reads "1" and true as numbers; JSON does not.
            entries = tuple(
                tuple(json_type(v, f"$.signal.entries[{i}][{j}]", "number") for j, v in enumerate(row))
                for i, row in enumerate(self.entries)
            )
            object.__setattr__(self, "entries", entries)
        if self.kind == "spike":
            if not self.sigmas or not all(0 < s < np.inf for s in self.sigmas):
                raise ParameterError(f"spike signals need positive finite strengths, got {list(self.sigmas)}")
            if any(b >= a for a, b in zip(self.sigmas, self.sigmas[1:])):
                raise ParameterError(f"spike strengths must be strictly decreasing, got {list(self.sigmas)}")
        if self.kind == "equal_spikes":
            # A missing gamma reads as nan, which the range check rejects.
            gamma = math.nan if self.gamma is None else json_type(self.gamma, "$.signal.gamma", "number")
            if not 0 < gamma < np.inf:
                raise ParameterError(f"equal-spike signals need a positive finite gamma, got {self.gamma!r}")
            rank = check_integer(self.rank, "equal-spike signals need a positive integer rank", 1)
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "rank", rank)

    @classmethod
    def from_config(cls, config: dict) -> "SignalSpec":
        """Build a spec from its JSON form; a key the type does not read is rejected."""
        kind = json_object(config, "$.signal", ("type",), None)["type"]
        if kind in tuple(_SIGNAL_KEYS):  # else the constructor rejects the type
            json_object(config, "$.signal", ("type",), _SIGNAL_KEYS[kind])
        sigmas = config.get("sigmas", ())
        recipe = config.get("recipe", "cosine" if kind == "equal_spikes" else "quadratic_profile")
        return cls(kind, sigmas, recipe, config.get("gamma"), config.get("rank"), config.get("entries"))

    def spike_strengths(self, n: int, m: int) -> tuple[float, ...]:
        if self.kind == "spike":
            return self.sigmas
        if self.kind == "equal_spikes":
            return tuple([self.gamma * (n / m) ** 0.25] * self.rank)
        raise ParameterError("explicit signals have no spike parameterization")


def generate_signal(spec: SignalSpec, n: int, m: int, model: Optional[NoiseModel] = None) -> np.ndarray:
    """Assemble a new signal matrix (an explicit one is copied); positive-support
    families get a positivity check on the result."""
    if spec.kind == "explicit":
        x = np.array(spec.entries, dtype=float)
        if x.shape != (n, m):
            raise DomainError(f"explicit signal has shape {x.shape}, expected {(n, m)}")
        if not np.all(np.isfinite(x)):
            raise DomainError("explicit signal entries must be finite")
    else:
        sigmas = np.asarray(spec.spike_strengths(n, m), dtype=float)
        r = len(sigmas)
        build = _RECIPES[spec.recipe]
        u = build(n, r)
        v = build(m, r)
        x = (u * sigmas) @ v.T
    if model is not None and model.family in ("gamma", "poisson") and np.any(x <= 0):
        raise DomainError(
            "the generated signal must be strictly positive for Gamma/Poisson noise; "
            "use the quadratic_profile recipe with a dominant leading spike"
        )
    return x


def rsnr(signal: np.ndarray, tau: float) -> float:
    """Root signal-to-noise ratio of a square signal matrix:
    entrywise standard deviation about the grand mean, divided by ``tau``."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError("the RSNR convention is defined for square signal matrices")
    if not tau > 0:
        raise ParameterError("tau must be positive")
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)) / tau)


# ---------------------------------------------------------------------------
# estimator tags


@dataclass(frozen=True)
class FitMethod:
    """What to fit and how: a parsed estimator tag or ``svshrink denoise`` flags."""

    name: str  # pca | soft | weighted | shrinker | oracle-shrinker | oracle-weights | oracle-soft
    objective: Optional[str] = None
    active: str = "default"  # bulk | greedy | all | default
    rank: Union[int, str, None] = None  # an int once resolve_method has checked it
    loss: Optional[str] = None  # oracle-soft target, "se" once resolve_method has checked it

    @property
    def needs_signal(self) -> bool:
        return self.name.startswith("oracle-")

    @property
    def draws_probes(self) -> bool:
        """Whether the fit's objective can draw Monte-Carlo probes from an rng:
        every objective but SURE (GSURE, SUKLS, PURE, PUKLA)."""
        return self.objective not in (None, "sure")


ESTIMATOR_NAMES = (
    "pca", "soft", "weighted", "shrinker", "oracle-shrinker", "oracle-weights", "oracle-soft",
)


def resolve_method(method: FitMethod, model: NoiseModel) -> FitMethod:
    """Check a fit request against the noise model and fill the family
    defaults (the objective of soft and weighted fits, the active set, and the
    oracle-soft loss).  ``rank`` must be a nonnegative integer or its digits,
    and an option the fit would ignore (``rank`` of a soft or oracle fit,
    ``loss`` of any fit but oracle-soft) is rejected.  Estimator tags and
    ``svshrink denoise`` flags both pass through here."""
    if method.name not in ESTIMATOR_NAMES:
        raise ParameterError(f"unknown estimator {method.name!r}; known: {list(ESTIMATOR_NAMES)}")
    gaussian = isinstance(model, Gaussian)
    if method.name in ("shrinker", "oracle-shrinker") and not gaussian:
        raise ParameterError(f"{method.name!r} is defined for Gaussian noise only")
    objective = method.objective
    if objective is not None or method.name in ("soft", "weighted"):
        objective = risk.resolve_objective(model, objective)
    active = method.active
    if active == "default":
        active = "bulk" if gaussian else "greedy"
    if active not in ("bulk", "greedy", "all"):
        raise ParameterError(f"active must be bulk, greedy, or all, got {active!r}")
    if active == "bulk" and not gaussian:
        raise ParameterError("the bulk-edge active set needs Gaussian noise; use greedy")
    rank = method.rank
    if rank is not None:
        if method.name not in ("pca", "weighted", "shrinker"):
            raise ParameterError(f"rank applies to pca, weighted and shrinker fits, not to {method.name}")
        if not str(rank).isdecimal():
            raise ParameterError(f"rank must be a nonnegative integer, got {rank!r}")
        rank = int(rank)
    loss = method.loss
    if method.name == "oracle-soft":
        loss = loss or "se"
        metrics.check_metric(loss, model)
    elif loss is not None:
        raise ParameterError(f"loss applies to oracle-soft fits only, not to {method.name}")
    return replace(method, objective=objective, active=active, rank=rank, loss=loss)


def parse_estimator_tag(tag: str, model: NoiseModel) -> FitMethod:
    """Parse ``name[:key=value,...]`` tags, filling family defaults; every
    :class:`ParameterError` names the tag."""
    if not isinstance(tag, str):
        raise ParameterError(f"an estimator tag must be a string, got {tag!r}")
    name, _, opts = tag.partition(":")
    fields = {"objective": None, "active": "default", "rank": None, "loss": None}
    if opts:
        for item in opts.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in fields or not value:
                raise ParameterError(f"bad option {item!r} in estimator tag {tag!r}")
            fields[key] = value.strip()
    try:
        return resolve_method(FitMethod(name.strip(), **fields), model)
    except ParameterError as exc:
        raise ParameterError(f"estimator tag {tag!r}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Observation:
    """One observed matrix ``y`` and what every fit on it shares: its SVD
    ``fact``, the noise model, the clamp floor of Gamma and Poisson fits, the
    bulk and greedy active sets and the :class:`metrics.SpectralScore` of the
    true ``signal``, each computed on first use and kept.  The oracle
    shrinker alone reads ``signal_values``, the signal's singular values; the
    experiment runner computes them only for a config that lists it, and
    passes ``None`` otherwise."""

    y: np.ndarray
    fact: SvdFactorization
    model: NoiseModel
    clamp_floor: float = DEFAULT_CLAMP_FLOOR
    signal: Optional[np.ndarray] = None
    signal_values: Optional[np.ndarray] = None

    @property
    def floor(self) -> Optional[float]:
        """The clamp floor of every fit: ``None`` under Gaussian noise."""
        return None if isinstance(self.model, Gaussian) else self.clamp_floor

    @cached_property
    def bulk(self) -> activeset.ActiveSetReport:
        return activeset.active_set_gaussian(self.fact, self.model.tau)

    @cached_property
    def greedy(self) -> activeset.ActiveSetReport:
        return activeset.active_set_greedy(self.y, self.model, clamp_floor=self.clamp_floor, fact=self.fact)

    def selected(self, method: FitMethod) -> tuple[int, ...]:
        """The 1-based indices a resolved method keeps, capped at ``method.rank``."""
        if method.active == "all":
            selected = range(1, self.fact.rank_bound + 1)
        else:
            selected = (self.bulk if method.active == "bulk" else self.greedy).selected
        return tuple(k for k in selected if method.rank is None or k <= method.rank)

    @cached_property
    def spectral(self) -> metrics.SpectralScore:
        return metrics.SpectralScore(self.signal, self.fact)


def fit_estimator(
    method: FitMethod, obs: Observation, rng: Optional[np.random.Generator]
) -> tuple[SpectralFunction, dict]:
    """Fit one resolved method on one observation.

    Returns the fitted estimator and what the fit chose (active set, weights,
    threshold or scale).  This is the one place where fitted parameters
    become an estimator; ``svshrink denoise`` and the experiment runner both
    call it.  What the fits of one observation share, ``obs`` computes once.
    Soft and weighted fits wrap the map score of :func:`risk.make_risk_objective`
    per threshold or weight vector; soft SURE uses :func:`risk.soft_threshold_sure`.
    Only a fit whose method ``draws_probes`` reads ``rng``; others take ``None``.
    """
    y, fact, model, floor = obs.y, obs.fact, obs.model, obs.floor
    s = fact.singular_values

    if method.needs_signal and obs.signal is None:
        raise ParameterError(f"{method.name} needs the true signal")

    if method.name == "pca":
        active = obs.selected(method)
        keep = np.zeros(fact.rank_bound)
        keep[np.asarray(active, dtype=int) - 1] = 1.0
        return linalg.weights_function(keep, floor), {"active_set": list(active)}

    # The fits search a map score: a risk estimate, or the oracle's
    # realized loss.  Gaussian SURE scores a soft threshold from the
    # spectrum, with no map per trial.
    if method.name == "soft" and method.objective == "sure":
        lam = shrinkage.soft_threshold_fit(fact, risk.soft_threshold_sure(fact, model.tau))
        return linalg.soft_threshold_function(lam, floor), {"lambda": lam}
    if method.name in ("soft", "weighted"):
        evaluate = risk.make_risk_objective(y, fact, model, method.objective, rng=rng)
        score = lambda fn: evaluate(fn).value
    elif method.name == "oracle-soft":
        score = lambda fn: metrics.metric(method.loss, linalg.reconstruct(fact, fn), obs.signal, model)

    if method.name in ("soft", "oracle-soft"):
        threshold_score = lambda lam: score(linalg.soft_threshold_function(lam, floor))
        lam = shrinkage.soft_threshold_fit(fact, threshold_score)
        return linalg.soft_threshold_function(lam, floor), {"lambda": lam}

    if method.name == "weighted":
        active = obs.selected(method)
        weight_score = lambda w: score(linalg.weights_function(w, floor))
        w = _fit_weights(obs, method.objective, active, weight_score)
        info = {"active_set": list(active), "weights": {str(k): float(w[k - 1]) for k in active}}
        return linalg.weights_function(w, floor), info

    if method.name == "oracle-weights":
        values = obs.spectral.projections
        raw = np.divide(values, s, out=np.zeros_like(values), where=s != 0)
        return _fixed_values(values, floor), {"raw_weights": raw.tolist()}

    # A spectral map commutes with transposition, so a tall matrix is read as
    # its wide transpose.
    c = min(fact.n, fact.m) / max(fact.n, fact.m)
    scale = model.tau * np.sqrt(max(fact.n, fact.m)) if isinstance(model, Gaussian) else 1.0

    if method.name == "shrinker":
        values = scale * np.asarray(rmt.shrinker_gd(s / scale, c))
        if method.rank is not None:
            values[method.rank:] = 0.0
        return _fixed_values(values, floor), {"scale": scale}

    if method.name == "oracle-shrinker":
        if obs.signal_values is None:
            raise ParameterError("oracle-shrinker needs the true signal's singular values")
        true_s = obs.signal_values / scale
        values = np.zeros_like(s)
        r = int(np.sum(true_s > 1e-12 * max(true_s[0], 1.0)))
        for k in range(min(r, len(s))):
            # Undetectable spikes surface at the bulk edge, not at the
            # location map's algebraic value, so the oracle drops them.
            if true_s[k] > c**0.25:
                values[k] = scale * rmt.shrinker_gd(rmt.rho(true_s[k], c), c)
        return _fixed_values(values, floor), {"scale": scale}

    raise ParameterError(f"unhandled estimator {method.name!r}")


def _fit_weights(obs: Observation, objective, active, score) -> np.ndarray:
    """The weight vector of a weighted fit: the greedy search of ``score``, a
    map from a weight vector to a float, or a fast path: the Gaussian closed
    form, and the rank-one closed forms when the active set is exactly {1}."""
    if isinstance(obs.model, Gaussian) and objective == "sure":
        return shrinkage.weights_gaussian(obs.fact, obs.model.tau, active)
    if active == (1,) and objective in ("sukls", "pukla"):
        w = np.zeros(obs.fact.rank_bound)
        if objective == "sukls":
            w[0] = shrinkage.weight1_gamma_sukls(obs.y, obs.fact, obs.model.shape)
        else:
            w[0] = shrinkage.weight1_poisson_pukla(obs.y, obs.fact)
        return w
    return shrinkage.optimize_weights_greedy(obs.fact, score, active)


def _fixed_values(values: np.ndarray, clamp_floor: Optional[float]) -> SpectralFunction:
    """The oracle and asymptotic-shrinker estimators: values fixed at the
    observed spectrum, and no derivative, so no risk estimate applies."""

    def no_derivative(sigmas):
        raise ParameterError("oracle and asymptotic-shrinker estimators have no spectral derivative")

    return SpectralFunction(lambda sigmas: values, no_derivative, clamp_floor)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment: construction raises :class:`ParameterError` for
    invalid fields, resolves every tag into ``methods`` and builds ``points``,
    one ``(label, model, signal, signal's singular values)`` per data point,
    shared read-only by every task.  The singular values are computed only
    when a method reads them (``oracle-shrinker``), and are ``None`` otherwise."""

    n: int
    m: int
    model: NoiseModel
    signal: SignalSpec
    estimators: tuple[str, ...]
    replications: int
    root_seed: int
    metrics: tuple[str, ...] = ("nmse",)
    sweep_parameter: Optional[str] = None
    sweep_values: tuple[float, ...] = ()
    clamp_floor: float = DEFAULT_CLAMP_FLOOR
    methods: tuple[FitMethod, ...] = field(init=False)
    points: tuple[tuple, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bounds = {"n": (1, 500), "m": (1, 500), "replications": (1, 2000), "root_seed": (0, math.inf)}
        for name, (least, most) in bounds.items():
            what = f"{name} must be an integer in [{least}, {most}]"
            object.__setattr__(self, name, check_integer(getattr(self, name), what, least, most))
        object.__setattr__(self, "clamp_floor", json_type(self.clamp_floor, "$.clamp_floor", "number"))
        if not 0 < self.clamp_floor < np.inf:
            raise ParameterError(f"clamp_floor must be positive and finite, got {self.clamp_floor}")
        arrays = {"estimators": "$.estimators", "metrics": "$.metrics", "sweep_values": "$.sweep.values"}
        for name, where in arrays.items():
            object.__setattr__(self, name, tuple(json_type(getattr(self, name), where, "array")))
        values = tuple(
            json_type(v, f"$.sweep.values[{i}]", "number") for i, v in enumerate(self.sweep_values)
        )
        object.__setattr__(self, "sweep_values", values)
        parameter = self.sweep_parameter
        if parameter not in (None,) + SWEEP_PARAMETERS or parameter is None and self.sweep_values:
            raise ParameterError(f"unknown sweep parameter {parameter!r}; known: {list(SWEEP_PARAMETERS)}")
        # Both sweeps set the noise level by building a Gaussian model.
        if parameter in ("tau", "rsnr") and not isinstance(self.model, Gaussian):
            raise ParameterError(f"the {parameter} sweep needs Gaussian noise, not {self.model.family}")
        kind = {"sigma1": "spike", "true_rank": "equal_spikes"}.get(parameter, self.signal.kind)
        if self.signal.kind != kind:
            raise ParameterError(f"the {parameter} sweep needs a {kind!r} signal")
        least = {"rank_cap": 0, "true_rank": 1}.get(parameter)
        for value in self.sweep_values if least is not None else ():
            check_integer(value, f"{parameter} sweep values must be integers >= {least}", least)
        for name in self.metrics:
            metrics.check_metric(name, self.model)
        # No sweep changes the noise family, and a tag resolves against the
        # family alone, so one resolution serves every task.
        methods = tuple(parse_estimator_tag(tag, self.model) for tag in self.estimators)
        object.__setattr__(self, "methods", methods)
        # A repeated entry would give two summary cells one key.
        lists = {"estimators": self.estimators, "metrics": self.metrics}
        if parameter is not None:
            lists[f"{parameter} sweep values"] = self.sweep_values
        for what, items in lists.items():
            if not items:
                raise ParameterError(f"{what} must not be empty")
            repeated = sorted({v for v in items if items.count(v) > 1})
            if repeated:
                raise ParameterError(f"{what} must be distinct, got {repeated} more than once")
        # A rank_cap sweep has one data point, shared by its caps, as has no sweep.
        values = (None,) if parameter in (None, "rank_cap") else self.sweep_values
        object.__setattr__(self, "points", tuple(_data_point(self, value) for value in values))

    @classmethod
    def from_config(cls, config: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; the constructors check every value."""
        required = ("n", "m", "model", "signal", "estimators", "replications", "root_seed")
        json_object(config, "$", required, ("metrics", "clamp_floor", "sweep"))
        sweep = config.get("sweep", {"parameter": None, "values": []})
        json_object(sweep, "$.sweep", ("parameter", "values"))
        return cls(
            n=config["n"],
            m=config["m"],
            model=model_from_config(config["model"]),
            signal=SignalSpec.from_config(config["signal"]),
            estimators=config["estimators"],
            replications=config["replications"],
            root_seed=config["root_seed"],
            metrics=config.get("metrics", ("nmse",)),
            sweep_parameter=sweep["parameter"],
            sweep_values=sweep["values"],
            clamp_floor=config.get("clamp_floor", DEFAULT_CLAMP_FLOOR),
        )


@dataclass
class ExperimentResult:
    records: list[dict]
    summaries: list[dict]
    failures: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        """Write one line per record, as :class:`csv.writer` writes them.  Each
        distinct label, tag and metric name is rendered once by ``csv.writer``,
        so the quoting is csv's own; replications and values (``repr`` of a
        float) need none.  The text goes out in one write."""
        rendered = {}

        def quote(text: str) -> str:
            if text not in rendered:
                line = io.StringIO()
                # A second field: a lone empty field would be written quoted.
                csv.writer(line).writerow([text, ""])
                rendered[text] = line.getvalue()[: -len(",\r\n")]
            return rendered[text]

        lines = ["sweep_param,estimator,replication,metric_name,value\r\n"]
        for rec in self.records:
            point = rec["sweep_param"]
            label = quote("" if point is None else repr(point))
            tag, name = quote(rec["estimator"]), quote(rec["metric_name"])
            lines.append(f"{label},{tag},{rec['replication']},{name},{rec['value']!r}\r\n")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(lines))

    def write_summary(self, path) -> None:
        text = json.dumps({"cells": self.summaries, "failures": self.failures}, indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def median(self, sweep_value, estimator: str, metric_name: str) -> float:
        for cell in self.summaries:
            if (
                cell["sweep_param"] == sweep_value
                and cell["estimator"] == estimator
                and cell["metric_name"] == metric_name
            ):
                return cell["median"]
        raise KeyError((sweep_value, estimator, metric_name))


def _data_point(config: ExperimentConfig, value) -> tuple:
    """The (label, model, signal, signal's singular values) at sweep value
    ``value``, or the config's own at ``None``; any fault is a
    :class:`ParameterError` naming the point.  The singular values take an
    SVD of the signal, so they are computed only when one of
    ``config.methods`` reads them, and are ``None`` otherwise."""
    model, spec, parameter = config.model, config.signal, config.sweep_parameter
    try:
        if parameter == "sigma1":
            spec = replace(spec, sigmas=(float(value),) + spec.sigmas[1:])
        elif parameter == "true_rank":
            spec = replace(spec, rank=int(value))
        elif parameter == "tau":
            model = Gaussian(tau=float(value))
        elif parameter == "rsnr" and not 0 < value < np.inf:
            raise ParameterError("rsnr values must be positive and finite")
        x = generate_signal(spec, config.n, config.m, model)
        with np.errstate(over="ignore"):  # an overflow is the fault reported here
            energy = np.sum(x**2)
        if not np.isfinite(energy):
            raise DomainError(f"the signal's squared Frobenius norm is not finite ({energy})")
        if parameter == "rsnr":
            model = Gaussian(tau=rsnr(x, 1.0) / float(value))
        if isinstance(model, Gaussian):
            model.check_noise_energy(config.n, config.m)
    except SvshrinkError as exc:
        where = "the signal" if value is None else f"sweep value {parameter}={value!r}"
        raise ParameterError(f"{where}: {exc}") from exc
    signal_values = None
    if any(method.name == "oracle-shrinker" for method in config.methods):
        signal_values = np.linalg.svd(x, compute_uv=False)
        signal_values.flags.writeable = False
    x.flags.writeable = False  # read by every replication and thread
    return value, model, x, signal_values


def _replication_records(config: ExperimentConfig, point_idx: int, rep: int) -> np.ndarray:
    """The scores of one task, replication ``rep`` at data point
    ``point_idx``, as a (caps, estimators, metrics) array.  A rank_cap task
    has one row per cap; any other task has one row at the full rank."""
    _, model, x, x_values = config.points[point_idx]
    rng = np.random.default_rng(np.random.SeedSequence([config.root_seed, point_idx, rep]))
    y = model.sample(x, rng)
    fact = linalg.svd(y)
    obs = Observation(y, fact, model, config.clamp_floor, x, x_values)

    caps = [fact.rank_bound]
    if config.sweep_parameter == "rank_cap":
        caps = [int(cap) for cap in config.sweep_values]

    # Quadratic metrics of unclamped estimates are scored from the spectrum,
    # every cap of a fit in one stack; clamped estimates and the other
    # metrics need the n x m estimate of each cap.
    # kept[i, j]: cap i keeps index j.
    kept = np.array(caps)[:, None] > np.arange(fact.rank_bound)
    scores = np.empty((len(caps), len(config.methods), len(config.metrics)))
    for est_idx, (tag, method) in enumerate(zip(config.estimators, config.methods)):
        # Each fit that can draw probes has its own stream, so no fit's draws
        # depend on another's; the other fits get none.
        est_rng = None
        if method.draws_probes:
            seed = np.random.SeedSequence([config.root_seed, point_idx, rep, est_idx])
            est_rng = np.random.default_rng(seed)
        fn, _ = fit_estimator(method, obs, est_rng)
        capped = np.where(kept, fn.values(fact.singular_values), 0.0)
        stacked = {}  # metric name -> the scores of every cap, from the first cap that needs them
        # A score outside the float range fails the task by name, not with a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(caps)):
                xhat = None
                for j, metric_name in enumerate(config.metrics):
                    if fn.clamp_floor is None and metric_name in metrics.SPECTRAL_METRICS:
                        if metric_name not in stacked:
                            stacked[metric_name] = obs.spectral.metric(metric_name, capped)
                        score = stacked[metric_name][i]
                    else:
                        if xhat is None:
                            xhat = linalg.clamp(linalg.compose(fact, capped[i]), fn.clamp_floor)
                        score = metrics.metric(metric_name, xhat, x, model)
                    if not math.isfinite(score):
                        raise NumericalError(f"{tag}: the {metric_name} value is not finite ({score})")
                    scores[i, est_idx, j] = score
    return scores


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every (data point, replication) task and summarize each
    (sweep point, estimator, metric) cell by its 10%, 50% and 90% quantiles.

    The scores fill one (sweep rows, estimators, replications, metrics)
    array, whose rows are the sweep values (a point's own, or a cap of the
    single rank_cap point).  Records are read off it in that order.  Rows
    with the same finished replications are summarized together, by one
    ``np.quantile(..., axis=2)`` call over those replications: a run in
    which no task failed makes one call.

    Individual replication failures are recorded rather than fatal; the run
    aborts with :class:`NumericalError` only if more than 10% of the replication
    tasks fail.
    """
    tasks = [(idx, rep) for idx in range(len(config.points)) for rep in range(config.replications)]

    def run_task(task):
        idx, rep = task
        try:
            return _replication_records(config, idx, rep), None
        except (SvshrinkError, np.linalg.LinAlgError) as exc:
            return None, {"sweep_param": config.points[idx][0], "replication": rep, "error": str(exc)}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_task, tasks))
    else:
        outcomes = [run_task(t) for t in tasks]

    failures = [failure for _, failure in outcomes if failure is not None]
    if len(failures) > 0.1 * len(tasks):
        raise NumericalError(
            f"{len(failures)} of {len(tasks)} replication tasks failed; first: {failures[0]}"
        )

    # The rows of a run are its sweep values: a point's own, or a cap of the
    # single rank_cap point.  Point idx fills rows idx * caps to (idx + 1) * caps.
    labels = config.sweep_values or (None,)
    caps = len(labels) // len(config.points)
    scores = np.empty((len(labels), len(config.estimators), config.replications, len(config.metrics)))
    done = np.zeros((len(labels), config.replications), dtype=bool)
    for (idx, rep), (task_scores, _) in zip(tasks, outcomes):
        if task_scores is not None:
            rows = slice(idx * caps, (idx + 1) * caps)
            scores[rows, :, rep] = task_scores
            done[rows, rep] = True

    # Rows that finished the same replications share one quantile call.
    groups = {}
    for row, finished in enumerate(done):
        groups.setdefault(finished.tobytes(), []).append(row)
    quantiles = [None] * len(labels)  # per row: (estimators, metrics, 3) nested lists
    for rows in groups.values():
        finished = done[rows[0]]
        if finished.any():  # else every task of the point failed
            stacked = np.quantile(scores[rows][:, :, finished], [0.1, 0.5, 0.9], axis=2, method="linear")
            for row, by_tag in zip(rows, np.moveaxis(stacked, 0, -1).tolist()):
                quantiles[row] = by_tag

    records, summaries = [], []
    for label, cells, finished, by_tag in zip(labels, scores, done, quantiles):
        if by_tag is None:
            continue
        kept = np.flatnonzero(finished).tolist()
        # Python floats: repr(np.float64) is not repr(float).
        records += [
            {"sweep_param": label, "estimator": tag, "replication": rep, "metric_name": name, "value": value}
            for tag, by_rep in zip(config.estimators, cells[:, kept].tolist())
            for rep, values in zip(kept, by_rep)
            for name, value in zip(config.metrics, values)
        ]
        summaries += [
            {
                "sweep_param": label, "estimator": tag, "metric_name": name,
                "count": len(kept), "q10": q10, "median": med, "q90": q90,
            }
            for tag, by_metric in zip(config.estimators, by_tag)
            for name, (q10, med, q90) in zip(config.metrics, by_metric)
        ]
    return ExperimentResult(records, summaries, failures)
