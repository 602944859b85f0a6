"""Plain-text key=value configuration files.

One option per line, `key = value`, with `#` comments and blank lines ignored.
Used for heuristic thresholds and scenario/corpus definitions.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Dict, Union

from .validators import HeuristicConfig


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


def load_heuristic_config(path: Union[str, Path]) -> HeuristicConfig:
    """Build a HeuristicConfig from a key=value file; unknown keys are errors."""
    defaults = {f.name: f.default for f in fields(HeuristicConfig)}
    typed = {}
    for key, value in parse_kv_file(path).items():
        if key not in defaults:
            raise ConfigError(f"{path}: unknown heuristic option {key!r}")
        try:
            # Every field is an int or a float: parse with its default's type.
            typed[key] = type(defaults[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
    try:
        return HeuristicConfig(**typed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
