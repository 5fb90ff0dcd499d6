"""Dataclass <-> JSON config plumbing and dotted-path overrides.

Configs are nested frozen dataclasses with full defaults, so a file only
needs the fields it changes. Overrides take the form "a.b.c=value" with the
value parsed as JSON when possible (falling back to a raw string).
"""
from __future__ import annotations

import dataclasses
import json
import pathlib

from .errors import ConfigError


def to_dict(cfg):
    """Nested dataclass -> plain JSON-serializable dict."""
    out = {}
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if dataclasses.is_dataclass(val):
            out[f.name] = to_dict(val)
        elif isinstance(val, tuple):
            out[f.name] = [list(v) if isinstance(v, tuple) else v for v in val]
        else:
            out[f.name] = val
    return out


def _coerce(template, value, path):
    if dataclasses.is_dataclass(template):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return from_dict(type(template), value, path)
    if isinstance(template, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        return tuple(tuple(v) if isinstance(v, list) else v for v in value)
    if isinstance(template, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if isinstance(template, int) and not isinstance(template, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if isinstance(value, float) and value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    return value


def from_dict(cls, data, path=""):
    """Build a dataclass from a (possibly partial) dict, validating keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    base = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key "
                              f"{(path + '.' if path else '') + key!s}")
        sub = (path + "." if path else "") + key
        kwargs[key] = _coerce(getattr(base, key), value, sub)
    try:
        return dataclasses.replace(base, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path or cls.__name__}: {e}") from e


def load_config(path, cls):
    p = pathlib.Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return from_dict(cls, data)


def apply_overrides(cfg, assignments):
    """Apply "a.b.c=value" strings on top of a config, returning a new one."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        parts = key.strip().split(".")
        if not all(parts):
            raise ConfigError(f"override {item!r} has an empty path segment")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg = _set_path(cfg, parts, value, key.strip())
    return cfg


def _set_path(cfg, parts, value, full_key):
    name = parts[0]
    if not dataclasses.is_dataclass(cfg) or name not in {f.name for f in dataclasses.fields(cfg)}:
        raise ConfigError(f"unknown config key {full_key!r}")
    current = getattr(cfg, name)
    if len(parts) == 1:
        new = _coerce(current, value, full_key)
    else:
        new = _set_path(current, parts[1:], value, full_key)
    try:
        return dataclasses.replace(cfg, **{name: new})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{full_key}: {e}") from e
