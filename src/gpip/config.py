"""Experiment configuration: a JSON key-value tree, validated up front.

A run's manifest is the fully resolved configuration (defaults included)
written back to JSON; feeding a manifest back in reproduces the run byte for
byte.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .baselines import DEFAULT_SUS_ALPHA
from .channel import MIN_DISTANCE_KM
from .errors import ConfigInvalid
from .solver import DEFAULT_MAX_ITER, DEFAULT_SELECT_THRESHOLD, DEFAULT_TOL

KNOWN_ALGORITHMS = (
    "gpip",
    "gpip-covfree",
    "gpip-coop",
    "mrt",
    "zf",
    "rzf",
    "rrzf",
    "sus-zf",
    "zf-dpc",
    "rank-zf",
)
CSIT_MODELS = ("perfect", "additive", "tdd", "fdd")
COV_KNOWLEDGE = ("full", "scalar", "none")
NOISE_DENSITY_DBM_HZ = -174.0
_FLOAT_MAX = sys.float_info.max
# Decibel values (SNRs, powers in dBm, the noise figure) lie within +-DB_LIMIT
# and the bandwidth within [1 Hz, 1 THz]: a linear value far outside these
# overflows, or vanishes and is divided by, in the power and noise arithmetic.
DB_LIMIT = 100.0


class Rule(NamedTuple):
    """What one scalar field accepts.

    `accepts` is `numbers.Integral` for a count, `numbers.Real` for a quantity
    (never a bool, though Python counts it as an int), or the tuple of allowed
    choices. A count or quantity must fit a finite float and lie between `low`
    (excluded when `open_low`) and `high`, so NaN and +-Infinity, which
    Python's json reads, fail.
    """

    accepts: type | tuple
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False
    nullable: bool = False

    def check(self, name: str, value) -> None:
        if value is None and self.nullable:
            return
        if isinstance(self.accepts, tuple):
            if value not in self.accepts:
                raise ConfigInvalid(f"{name}: must be one of {self.accepts}, got {value!r}")
            return
        if not isinstance(value, self.accepts) or isinstance(value, bool):
            noun = "an integer" if self.accepts is numbers.Integral else "a number"
            raise ConfigInvalid(f"{name}: must be {noun}")
        above = value > self.low if self.open_low else value >= self.low
        if not (above and value <= self.high and abs(value) <= _FLOAT_MAX):
            bounds = f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"
            raise ConfigInvalid(f"{name}: must be finite and in {bounds}, got {value!r}")


# One rule per scalar field. The fields without one are the lists `algorithms`
# and `snr_db` and the path `output_dir`; validate() checks those itself.
FIELD_RULES = {
    "scenario": Rule(("link", "system")),
    "csit_model": Rule(CSIT_MODELS),
    "cov_knowledge": Rule(COV_KNOWLEDGE),
    "weights": Rule(("uniform", "pf")),
    **dict.fromkeys(("n_antennas", "n_users", "n_trials", "n_cells", "n_coop", "n_drops",
                     "n_blocks", "max_iter"), Rule(numbers.Integral, 1)),
    "seed": Rule(numbers.Integral, 0),
    "pilot_len": Rule(numbers.Integral, 1, nullable=True),
    **dict.fromkeys(("bs_power_dbm", "noise_figure_db", "pilot_power_dbm"),
                    Rule(numbers.Real, -DB_LIMIT, DB_LIMIT)),
    **dict.fromkeys(("bandwidth_hz", "carrier_hz"), Rule(numbers.Real, 1.0, 1e12)),
    **dict.fromkeys(("inter_site_m", "angular_spread", "tol"),
                    Rule(numbers.Real, 0.0, open_low=True)),
    **dict.fromkeys(("min_distance_m", "shadowing_db", "csit_error_var", "sel_threshold",
                     "sus_alpha"), Rule(numbers.Real, 0.0)),
    # within DB_LIMIT in linear units, like the decibel fields: far above it
    # training leaves every estimate zero, far below it the error covariances
    # round to indefinite
    "tdd_noise_over_pilot": Rule(numbers.Real, 10.0 ** (-DB_LIMIT / 10.0),
                                 10.0 ** (DB_LIMIT / 10.0)),
    "fdd_kappa": Rule(numbers.Real, 0.0, 1.0),
    "pf_smoothing": Rule(numbers.Real, 0.0, 1.0, open_low=True),
}


@dataclass
class ExperimentConfig:
    scenario: str  # "link" or "system"
    n_antennas: int
    n_users: int
    algorithms: list[str]
    seed: int
    # link level
    snr_db: list[float] = field(default_factory=lambda: [10.0])
    n_trials: int = 500
    # system level
    n_cells: int = 1
    n_coop: int = 1
    n_drops: int = 100
    n_blocks: int = 10
    bs_power_dbm: float = 40.0
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    carrier_hz: float = 2e9
    inter_site_m: float = 1000.0
    min_distance_m: float = 40.0
    shadowing_db: float = 8.0
    pilot_power_dbm: float = 20.0
    pilot_len: int | None = None  # defaults to n_coop * n_users
    # channel model
    angular_spread: float = math.pi / 6.0
    # CSIT
    csit_model: str = "perfect"
    csit_error_var: float = 0.1  # additive model
    fdd_kappa: float = 0.5
    tdd_noise_over_pilot: float = 0.1  # link-level tdd quality knob
    cov_knowledge: str = "full"
    # weights and solver knobs
    weights: str = "uniform"  # "uniform" or "pf"
    pf_smoothing: float = 0.1
    tol: float = DEFAULT_TOL
    sel_threshold: float = DEFAULT_SELECT_THRESHOLD
    max_iter: int = DEFAULT_MAX_ITER
    sus_alpha: float = DEFAULT_SUS_ALPHA
    output_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        """Check every field against its rule, then the rules that tie fields together."""
        for name, rule in FIELD_RULES.items():
            rule.check(name, getattr(self, name))
        for name in ("algorithms", "snr_db"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigInvalid(f"{name}: must be a list")
        if not all(isinstance(s, numbers.Real) and not isinstance(s, bool) for s in self.snr_db):
            raise ConfigInvalid("snr_db: every entry must be a number")
        if not all(abs(s) <= DB_LIMIT for s in self.snr_db):
            raise ConfigInvalid(f"snr_db: every entry must be finite and in "
                                f"[{-DB_LIMIT:g}, {DB_LIMIT:g}]")
        for i, snr in enumerate(self.snr_db):
            if snr in self.snr_db[:i]:
                raise ConfigInvalid(f"snr_db: {snr} is listed twice")
        if not isinstance(self.output_dir, str):
            raise ConfigInvalid("output_dir: must be a string")
        if not self.algorithms:
            raise ConfigInvalid("algorithms: list must be nonempty")
        for i, alg in enumerate(self.algorithms):
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigInvalid(f"algorithms: unknown algorithm {alg!r}")
            if alg in self.algorithms[:i]:
                raise ConfigInvalid(f"algorithms: {alg!r} is listed twice")
        if self.scenario == "link":
            if not self.snr_db:
                raise ConfigInvalid("snr_db: list must be nonempty")
            if "gpip-coop" in self.algorithms:
                raise ConfigInvalid("algorithms: 'gpip-coop' needs the system scenario")
            if self.weights == "pf":
                raise ConfigInvalid(
                    "weights: pf weighting tracks served rates across fading blocks "
                    "and needs the system scenario"
                )
        else:
            if self.n_coop > self.n_cells:
                raise ConfigInvalid("n_coop: must satisfy 1 <= n_coop <= n_cells")
            if self.pilot_len is not None and self.pilot_len < self.n_coop * self.n_users:
                raise ConfigInvalid(f"pilot_len: orthogonal in-cluster pilots need at least "
                                    f"n_coop * n_users = {self.n_coop * self.n_users} symbols")
            if self.csit_model not in ("perfect", "tdd"):
                raise ConfigInvalid(
                    "csit_model: the system scenario trains over the uplink; use "
                    "'tdd' or 'perfect'"
                )
            if self.min_distance_m / 1000.0 < MIN_DISTANCE_KM:
                raise ConfigInvalid(
                    f"min_distance_m: must be >= {MIN_DISTANCE_KM * 1000.0:g} m, "
                    "the path-loss model's range"
                )
            if self.min_distance_m > self.inter_site_m / 2.0:
                raise ConfigInvalid(
                    "min_distance_m: must be at most the hexagon inradius "
                    f"inter_site_m / 2 = {self.inter_site_m / 2.0:g} m"
                )
        if "zf" in self.algorithms and self.n_users > self.n_antennas:
            raise ConfigInvalid(
                "algorithms: 'zf' serves every user and needs n_users <= n_antennas, "
                f"got {self.n_users} users and {self.n_antennas} antennas"
            )
        return self

    # -- derived quantities -------------------------------------------------

    def resolved_pilot_len(self) -> int:
        return self.pilot_len if self.pilot_len is not None else self.n_coop * self.n_users

    def noise_power_dbm(self) -> float:
        return NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def noise_power_mw(self) -> float:
        return 10.0 ** (self.noise_power_dbm() / 10.0)

    def bs_power_mw(self) -> float:
        return 10.0 ** (self.bs_power_dbm / 10.0)

    def pilot_power_mw(self) -> float:
        return 10.0 ** (self.pilot_power_dbm / 10.0)

    def uplink_noise_over_pilot(self) -> float:
        if self.scenario == "link":
            return self.tdd_noise_over_pilot
        return self.noise_power_mw() / (self.resolved_pilot_len() * self.pilot_power_mw())

    def wavelength_m(self) -> float:
        return 299792458.0 / self.carrier_hz

    def resolved(self) -> dict:
        out = asdict(self)
        return {k: out[k] for k in sorted(out)}


def config_from_dict(data: dict) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigInvalid(f"{unknown[0]}: unknown configuration key")
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in data]
    if missing:
        raise ConfigInvalid(f"{missing[0]}: required key is missing")
    cfg = ExperimentConfig(**data)
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{path}: cannot read ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: top level must be an object")
    return config_from_dict(data)


def write_manifest(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config.resolved(), indent=2, sort_keys=True) + "\n")
