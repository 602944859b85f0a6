"""Plain-text key=value configuration files.

One option per line, `key = value`, with `#` comments and blank lines ignored.
Booleans accept true/false/yes/no/1/0. Used for heuristic thresholds and
scenario/corpus definitions.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Dict, Union

from .validators import HeuristicConfig

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


class ConfigError(Exception):
    """Malformed configuration file or unknown option."""


def parse_kv_file(path: Union[str, Path]) -> Dict[str, str]:
    """Read a key=value file into an ordered dict of raw strings."""
    options: Dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def coerce(value: str, target_type) -> object:
    if target_type is bool:
        lowered = value.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ConfigError(f"expected boolean, got {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    return value


def load_heuristic_config(path: Union[str, Path]) -> HeuristicConfig:
    """Build a HeuristicConfig from a key=value file; unknown keys are errors."""
    options = parse_kv_file(path)
    typed = {}
    known = {f.name: f for f in fields(HeuristicConfig)}
    for key, value in options.items():
        if key not in known:
            raise ConfigError(f"{path}: unknown heuristic option {key!r}")
        target = known[key].type
        base = {"int": int, "float": float, "bool": bool, "str": str}.get(
            str(target).replace("builtins.", ""), None)
        if base is None:
            base = type(known[key].default)
        try:
            typed[key] = coerce(value, base)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
    try:
        return HeuristicConfig(**typed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
