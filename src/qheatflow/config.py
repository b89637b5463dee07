"""Flat key-value run configuration.

One plain-text file per run: ``key = value`` lines, ``#`` comments,
dotted namespaces (state.beta_C, unitary.theta, sweep.axis1.name).
A file may set each key once.  Values are parsed as int, float or string,
so a word such as ``true`` stays a string and a numeric key that gets one
is a ConfigError; command-line overrides use the same ``key=value`` syntax
and take precedence over the file.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed configuration input."""


def _parse_value(raw: str):
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def integer(key: str, value) -> int:
    """An integral config value as an int; ConfigError names ``key`` otherwise."""
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _settings(text: str):
    """(line number, key, value) of each ``key = value`` line of config text."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        yield lineno, key, _parse_value(raw)


def parse_config(text: str) -> dict:
    """Parse config text into a flat {key: value} dict; a later line wins."""
    return {key: value for _, key, value in _settings(text)}


def load_config(path: str) -> dict:
    """Read a config file; a key set on two of its lines is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    out: dict = {}
    first_line: dict = {}
    for lineno, key, value in _settings(text):
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def apply_overrides(cfg: dict, overrides: list[str] | None) -> dict:
    """Apply 'key=value' command-line overrides on top of a config dict."""
    merged = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        merged[key] = _parse_value(raw)
    return merged


def format_config(cfg: dict) -> str:
    """Canonical single-line rendering used in output metadata."""
    return "; ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
