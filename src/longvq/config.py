"""Run configuration: one INI file, flat sections, no silent typos.

The four module configs are the schema. Each section's keys are the
fields of its dataclass (task: TaskSpec, model: ModelConfig, attn:
AttentionConfig, train: TrainConfig); a field's default is the key's
default, and a value is parsed to that default's type. The model section
leaves out the fields that the task or the attn section fills and adds
one key of its own, impl (factored | dense). Every key must be known; unknown
sections or keys raise ConfigError naming the offender so a typo never
silently falls back to a default.
"""

from __future__ import annotations

import configparser
import copy
from dataclasses import fields

from .attention import AttentionConfig
from .model import ModelConfig
from .tasks import TaskSpec, build_task
from .train import TrainConfig

__all__ = ["ConfigError", "DEFAULTS", "load_run_config", "apply_sets",
           "build_run"]


class ConfigError(ValueError):
    pass


def _defaults(cls, filled=()):
    return {f.name: f.default for f in fields(cls) if f.name not in filled}


# ModelConfig fields that build_run takes from the task and the attn section
_MODEL_FILLED = ("attn", "head", "n_out", "vocab", "in_dim")

DEFAULTS = {
    "task": _defaults(TaskSpec),
    "model": {**_defaults(ModelConfig, _MODEL_FILLED), "impl": "factored"},
    "attn": _defaults(AttentionConfig),
    "train": _defaults(TrainConfig),
}


def _coerce(section, key, raw, default):
    if isinstance(default, bool):
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for '{section}.{key}': {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(
            f"bad {type(default).__name__} for '{section}.{key}': {raw!r}")
    return str(raw)


def load_run_config(path=None):
    """Parse an INI file over the defaults; None keeps the defaults."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is None:
        return cfg
    # values are taken literally: no '%' interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str        # keys are case-sensitive (task.L)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        raise ConfigError(f"cannot read config file: {path}")
    try:
        parser.read_string(raw.decode("utf-8"), source=str(path))
    except UnicodeDecodeError as e:
        line = raw[:e.start].count(b"\n") + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 text") from None
    except configparser.DuplicateOptionError as e:
        raise ConfigError(f"{path}: line {e.lineno}: duplicate key "
                          f"'{e.section}.{e.option}'") from None
    except configparser.DuplicateSectionError as e:
        raise ConfigError(f"{path}: line {e.lineno}: duplicate section "
                          f"'{e.section}'") from None
    except configparser.MissingSectionHeaderError as e:
        raise ConfigError(f"{path}: line {e.lineno}: a key before the "
                          "first [section] header") from None
    except configparser.ParsingError as e:
        raise ConfigError(f"{path}: line {e.errors[0][0]}: expected "
                          "[section] or key = value") from None
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section '{section}'")
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            cfg[section][key] = _coerce(section, key, raw,
                                        DEFAULTS[section][key])
    return cfg


def apply_sets(cfg, sets):
    """Apply --set section.key=value overrides in order."""
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        section, key = dotted.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown key '{section}.{key}'")
        cfg[section][key] = _coerce(section, key, raw,
                                    DEFAULTS[section][key])
    return cfg


def build_run(cfg, seed=None):
    """Materialize (task, model_cfg, train_cfg, impl) from a validated dict.

    The task dictates the model's input/output interface; a --seed flag
    override lands in both the task and the training stream.
    """
    t = dict(cfg["task"])
    tr = dict(cfg["train"])
    m = dict(cfg["model"])
    impl = m.pop("impl")
    if seed is not None:
        t["seed"] = tr["seed"] = seed
    try:
        spec = TaskSpec(**t)
    except ValueError as e:
        raise ConfigError(str(e))
    # outside the wrapping: a loading failure (a truncated CIFAR file) is a
    # run error, not a config error
    task = build_task(spec)
    try:
        model_cfg = ModelConfig(attn=AttentionConfig(**cfg["attn"]),
                                **task.model_kwargs(), **m)
        train_cfg = TrainConfig(**tr)
    except ValueError as e:
        raise ConfigError(str(e))
    if impl not in ("factored", "dense"):
        raise ConfigError(f"bad value for 'model.impl': {impl!r}")
    return task, model_cfg, train_cfg, impl
