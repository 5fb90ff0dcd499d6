"""Dataclass <-> JSON config plumbing and dotted-path overrides.

Configs are nested frozen dataclasses with full defaults. Config files,
checkpoints, scene specs and "a.b.c=value" overrides all merge through
`from_dict`: each named field replaces its value in the base, and a nested
section merges onto the base's current value of that section, so a dict only
needs the fields it changes. Override values are parsed as JSON when possible
(falling back to a raw string).
"""
from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

from .errors import ConfigError


def to_dict(cfg):
    """Nested dataclass -> plain JSON-serializable dict."""
    out = {}
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if dataclasses.is_dataclass(val):
            out[f.name] = to_dict(val)
        elif isinstance(val, tuple):
            out[f.name] = list(val)
        else:
            out[f.name] = val
    return out


def coerce(template, value, path):
    """`value` checked against, and converted to, the type of `template` (a
    section, or a leaf's declared default); ConfigError names `path` when it
    does not fit. Tuple elements are checked against the first, as `path[i]`.
    A number must be finite, an integer integral; a bool or str takes only its type."""
    if dataclasses.is_dataclass(template):
        return from_dict(template, value, path)
    if isinstance(template, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(coerce(template[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(template, (bool, str)):
        if not isinstance(value, type(template)):
            kind = "boolean" if isinstance(template, bool) else "string"
            raise ConfigError(f"{path}: expected a {kind}, got {value!r}")
        return value
    if isinstance(template, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-Inf, an int past float range
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if isinstance(template, float):
            return float(value)
        if value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    return value


def from_dict(base, data, path=""):
    """Merge a (possibly partial) dict onto `base`, a config class (meaning
    its defaults) or a config instance, validating keys and types."""
    if isinstance(base, type):
        base = base()
    if not isinstance(data, dict):
        raise ConfigError(f"{path or type(base).__name__}: expected an object")
    defaults = {f.name: f.default for f in dataclasses.fields(base)}
    kwargs = {}
    for key, value in data.items():
        sub = (path + "." if path else "") + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {sub}")
        cur = getattr(base, key)  # a section merges onto it; a leaf takes its default's type
        kwargs[key] = coerce(cur if dataclasses.is_dataclass(cur) else defaults[key], value, sub)
    try:
        return dataclasses.replace(base, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path or type(base).__name__}: {e}") from e


def read_json_object(path):
    """Parse a JSON file that holds one object; ConfigError names the path
    when the file is missing, is not valid JSON or is not an object."""
    p = pathlib.Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def load_config(path, cls):
    return from_dict(cls, read_json_object(path))


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
        except ValueError:  # also an integer past the digit limit
            value = raw
        for part in reversed(parts):
            value = {part: value}
        cfg = from_dict(cfg, value)
    return cfg
