"""Configuration: nested dict with presets, deep-merge of user files, hashing.

The full key set is documented in the README. The ``denoiser`` and ``train``
sections are the fields of ``DenoiserConfig`` and ``TrainConfig``, and take
their defaults from those dataclasses; the hand is the fixed recipe
``HandModelConfig()``, and the state annotator has no settings. ``desk`` is
the small CPU preset every default test runs on; ``paper`` mirrors the
published model scale (4 layers, 8 heads, 512-wide, mesh widths
[32,64,64,64]). ``check_config`` is the one check of every config the program
reads, a user's merged file and a checkpoint's stored config alike: a key that
is not in the defaults, a missing key, a value not of its default's JSON kind,
or an integer setting that holds a non-integer or a value below its
``INT_LEAST``, is rejected.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .datagen import PerturbSpec
from .denoiser import DenoiserConfig
from .errors import ConfigError
from .hand import HandModelConfig


@dataclass
class TrainConfig:
    lambda_geo: float = 1.0         # the other terms enter with weight 1, switched by use_*
    epochs: int = 30
    batch_size: int = 8
    lr: float = 1e-4
    lr_decay_epochs: int = 5        # AdamW's defaults: lr x0.8 per this many epochs, weight decay 1e-2
    self_condition_start_epoch: int = 8  # second decode pass fed by own predictions; off if >= epochs
    probabilistic: bool = True
    use_state: bool = True
    use_kin: bool = True
    use_sta: bool = True
    constant_accel_baseline: bool = False
    divergence_threshold: float = 1e6
    eval_subset: int = 6
    perturb: PerturbSpec = field(default_factory=lambda: PerturbSpec(
        noise_std=0.06, mask_prob=0.35, burst_mean=3.0, mask_noise_std=1.8))

    def validate(self):
        if self.lambda_geo < 0:
            raise ConfigError("lambda_geo must be >= 0")
        if self.constant_accel_baseline and (self.use_state or self.use_kin or self.use_sta):
            raise ConfigError("constant_accel_baseline replaces the physics losses; "
                              "disable use_state/use_kin/use_sta")


SECTIONS = {
    "denoiser": DenoiserConfig,
    "train": TrainConfig,
}

DEFAULTS: dict = {
    "preset": "desk",
    "seed": 0,
    "frames": 16,
    # JSON round trip: tuple fields become lists, as in a user file
    **{name: json.loads(json.dumps(asdict(cls()))) for name, cls in SECTIONS.items()},
    "schedule": {"steps": 8},  # eta_1, eta_N and kappa are constants of diffusion.py
}
HAND_RECIPE = json.loads(json.dumps(asdict(HandModelConfig())))  # generate's manifest records the hand as this

# The least value of each integer setting the program can run with; an integer
# setting not listed takes any integer (``schedule.steps`` is checked by
# ``make_schedule``). ``denoiser.mesh_widths`` holds one or more positive integers.
INT_LEAST = {
    "frames": 1,
    "denoiser.layers": 0, "denoiser.heads": 1, "denoiser.width": 1,
    "denoiser.ffn_multiplier": 1, "denoiser.step_features": 1,
    "train.epochs": 0, "train.batch_size": 1, "train.eval_subset": 0,
}
_INT_KIND = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}

PRESET_OVERRIDES: dict = {
    "desk": {},
    "paper": {
        "denoiser": {"layers": 4, "heads": 8, "width": 512, "mesh_widths": [32, 64, 64, 64]},
    },
}


def _deep_merge(base: dict, upd: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in upd.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "null")


def check_config(cfg, what: str = "config", defaults: dict = DEFAULTS, where: str = ""):
    """Raise ConfigError unless ``cfg`` holds exactly the keys of the defaults, each of
    its default's JSON kind and every integer setting within range.

    ``load_config`` runs it on the merged user file and overrides, and ``load_bundle``
    on a checkpoint's stored config (``what`` is "stored config"), so both are refused
    alike, a key the defaults lack included.
    """
    for k in cfg:
        if k not in defaults:
            raise ConfigError(f"unknown {what} key '{where}{k}'")
    for k, default in defaults.items():
        if k not in cfg:
            raise ConfigError(f"{what} lacks '{where}{k}'")
        value = cfg[k]
        if _json_kind(value) != _json_kind(default):
            raise ConfigError(f"{what} '{where}{k}': expected {_json_kind(default)}, "
                              f"got {_json_kind(value)}")
        if isinstance(default, dict):
            check_config(value, what, default, f"{where}{k}.")
        elif type(default) is int:  # bool defaults are not ints here
            least = INT_LEAST.get(where + k)
            if type(value) is not int or (least is not None and value < least):
                raise ConfigError(f"{what} '{where}{k}' must be {_INT_KIND[least]}, got {value!r}")
        elif isinstance(default, list) and (not value or any(type(v) is not int or v < 1 for v in value)):
            raise ConfigError(f"{what} '{where}{k}' must be a non-empty list of positive integers, "
                              f"got {value!r}")


def default_config(preset: str = "desk") -> dict:
    if type(preset) is not str or preset not in PRESET_OVERRIDES:
        raise ConfigError(f"unknown preset {preset!r} (have: {sorted(PRESET_OVERRIDES)})")
    cfg = _deep_merge(DEFAULTS, PRESET_OVERRIDES[preset])
    cfg["preset"] = preset
    return cfg


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults <- preset <- user file <- explicit overrides, deep-merged."""
    user: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config not found: {path}")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must be a JSON object")
    preset = (overrides or {}).get("preset", user.get("preset", "desk"))
    cfg = default_config(preset)
    cfg = _deep_merge(cfg, user)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    check_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _section(cls, values: dict):
    """A section dataclass from its checked config dict: lists become tuples, nested
    sections recurse."""
    defaults = cls()
    kwargs = {}
    for name, value in values.items():
        default = getattr(defaults, name)
        if is_dataclass(default):
            value = _section(type(default), value)
        elif isinstance(default, tuple):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def hand_config_from(cfg: dict) -> HandModelConfig:
    """The fixed hand recipe, whatever ``cfg`` holds."""
    return HandModelConfig()


def denoiser_config_from(cfg: dict) -> DenoiserConfig:
    return _section(DenoiserConfig, cfg["denoiser"])


def train_config_from(cfg: dict) -> TrainConfig:
    tc = _section(TrainConfig, cfg["train"])
    tc.validate()
    return tc
