"""Experiment configuration: a JSON key-value tree, validated up front.

A run's manifest is the fully resolved configuration (defaults included)
written back to JSON; feeding a manifest back in reproduces the run byte for
byte.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .channel import MIN_DISTANCE_KM
from .errors import ConfigInvalid

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
# field types; bool is an int to Python but never a count or a quantity here
_INTEGER_FIELDS = ("n_antennas", "n_users", "seed", "n_trials", "n_cells", "n_coop",
                  "n_drops", "n_blocks", "max_iter")
_NUMBER_FIELDS = ("bs_power_dbm", "bandwidth_hz", "noise_figure_db", "carrier_hz",
                 "inter_site_m", "min_distance_m", "shadowing_db", "pilot_power_dbm",
                 "angular_spread", "csit_error_var", "fdd_kappa", "tdd_noise_over_pilot",
                 "pf_smoothing", "tol", "sel_threshold", "sus_alpha")
_LIST_FIELDS = ("algorithms", "snr_db")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    tol: float = 0.01
    sel_threshold: float = 0.01
    max_iter: int = 100
    sus_alpha: float = 0.3
    output_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        self._check_types()
        if self.scenario not in ("link", "system"):
            raise ConfigInvalid(f"scenario: must be 'link' or 'system', got {self.scenario!r}")
        if self.n_antennas < 1:
            raise ConfigInvalid("n_antennas: must be >= 1")
        if self.n_users < 1:
            raise ConfigInvalid("n_users: must be >= 1")
        if not self.algorithms:
            raise ConfigInvalid("algorithms: list must be nonempty")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigInvalid(f"algorithms: unknown algorithm {alg!r}")
        if self.scenario == "link":
            if not self.snr_db:
                raise ConfigInvalid("snr_db: list must be nonempty")
            if self.n_trials < 1:
                raise ConfigInvalid("n_trials: must be >= 1")
            if "gpip-coop" in self.algorithms:
                raise ConfigInvalid("algorithms: 'gpip-coop' needs the system scenario")
            if self.weights == "pf":
                raise ConfigInvalid(
                    "weights: pf weighting tracks served rates across fading blocks "
                    "and needs the system scenario"
                )
        else:
            if self.n_cells < 1:
                raise ConfigInvalid("n_cells: must be >= 1")
            if self.n_coop < 1 or self.n_coop > self.n_cells:
                raise ConfigInvalid("n_coop: must satisfy 1 <= n_coop <= n_cells")
            if self.n_drops < 1 or self.n_blocks < 1:
                raise ConfigInvalid("n_drops/n_blocks: must be >= 1")
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
            if self.min_distance_m >= self.inter_site_m / math.sqrt(3.0):
                raise ConfigInvalid(
                    "min_distance_m: must be below the hexagon circumradius "
                    f"inter_site_m / sqrt(3) = {self.inter_site_m / math.sqrt(3.0):g} m"
                )
        if "zf" in self.algorithms and self.n_users > self.n_antennas:
            raise ConfigInvalid(
                "algorithms: 'zf' serves every user and needs n_users <= n_antennas, "
                f"got {self.n_users} users and {self.n_antennas} antennas"
            )
        # physical quantities: NaN fails every comparison, so it is rejected too
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigInvalid("snr_db: every entry must be finite")
        for name in ("bandwidth_hz", "carrier_hz"):
            if not getattr(self, name) > 0:
                raise ConfigInvalid(f"{name}: must be positive")
        if self.pilot_len is not None and not self.pilot_len > 0:
            raise ConfigInvalid("pilot_len: must be positive")
        for name in ("tdd_noise_over_pilot", "csit_error_var", "sel_threshold", "sus_alpha"):
            if not getattr(self, name) >= 0:
                raise ConfigInvalid(f"{name}: must be >= 0")
        if not 0.0 < self.pf_smoothing <= 1.0:
            raise ConfigInvalid("pf_smoothing: must lie in (0, 1]")
        if self.csit_model not in CSIT_MODELS:
            raise ConfigInvalid(f"csit_model: must be one of {CSIT_MODELS}")
        if self.cov_knowledge not in COV_KNOWLEDGE:
            raise ConfigInvalid(f"cov_knowledge: must be one of {COV_KNOWLEDGE}")
        if not 0.0 <= self.fdd_kappa <= 1.0:
            raise ConfigInvalid("fdd_kappa: must lie in [0, 1]")
        if self.weights not in ("uniform", "pf"):
            raise ConfigInvalid("weights: must be 'uniform' or 'pf'")
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigInvalid("tol/max_iter: tol must be > 0 and max_iter >= 1")
        if not 0 < self.angular_spread < math.inf:
            raise ConfigInvalid("angular_spread: must be positive and finite")
        return self

    def _check_types(self) -> None:
        """Reject a field of the wrong JSON type before any comparison reads it."""
        for name in _INTEGER_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ConfigInvalid(f"{name}: must be an integer")
        if self.pilot_len is not None and not _is_integer(self.pilot_len):
            raise ConfigInvalid("pilot_len: must be an integer")
        for name in _NUMBER_FIELDS:
            if not _is_number(getattr(self, name)):
                raise ConfigInvalid(f"{name}: must be a number")
        for name in _LIST_FIELDS:
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigInvalid(f"{name}: must be a list")
        if not all(_is_number(s) for s in self.snr_db):
            raise ConfigInvalid("snr_db: every entry must be a number")
        if not isinstance(self.output_dir, str):
            raise ConfigInvalid("output_dir: must be a string")

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
    missing = [k for k in ("scenario", "n_antennas", "n_users", "algorithms", "seed") if k not in data]
    if missing:
        raise ConfigInvalid(f"{missing[0]}: required key is missing")
    cfg = ExperimentConfig(**data)
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: top level must be an object")
    return config_from_dict(data)


def write_manifest(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config.resolved(), indent=2, sort_keys=True) + "\n")
