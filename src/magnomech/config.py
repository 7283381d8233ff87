"""Flat key=value parameter files and `key=value` override strings.

Values carry an optional unit suffix, with or without a separating space:

* ``hz``, ``khz``, ``mhz``, ``ghz`` — cyclic frequency, converted to rad/s
  (multiplied by 2*pi);
* ``rad_s`` — angular frequency, taken as-is;
* ``omega_b`` — dimensionless multiple of the mechanical frequency;
* ``k``, ``mk`` — temperature in kelvin / millikelvin;
* ``t`` — magnetic field in tesla;
* no suffix — the field's native SI unit (rad/s, kelvin, tesla, meter, m^-3).
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .errors import ConfigError
from .model import ANGULAR_FIELDS, SystemParams, TWO_PI, rabi_frequency

_TEMPERATURE_KEYS = ("temperature",)
_FIELD_KEYS = ("b0",)
_PLAIN_KEYS = ("sphere_diameter", "spin_density")

VALID_KEYS = ANGULAR_FIELDS + _TEMPERATURE_KEYS + _FIELD_KEYS + _PLAIN_KEYS

#: Unit suffix -> (multiplier, category). omega_b ratios are resolved later.
#: Cyclic magnitudes are scaled first and multiplied by 2*pi last, so that
#: "10 mhz" gives exactly TWO_PI * 10e6.
_UNITS = {
    "hz": (1.0, "frequency"),
    "khz": (1e3, "frequency"),
    "mhz": (1e6, "frequency"),
    "ghz": (1e9, "frequency"),
    "rad_s": (1.0, "frequency"),
    "omega_b": (1.0, "omega_b_ratio"),
    "k": (1.0, "temperature"),
    "mk": (1e-3, "temperature"),
    "t": (1.0, "field"),
    "": (1.0, "plain"),
}
_CYCLIC_UNITS = ("hz", "khz", "mhz", "ghz")

_CATEGORY_BY_KEY = {key: "frequency" for key in ANGULAR_FIELDS}
_CATEGORY_BY_KEY.update({key: "temperature" for key in _TEMPERATURE_KEYS})
_CATEGORY_BY_KEY.update({key: "field" for key in _FIELD_KEYS})
_CATEGORY_BY_KEY.update({key: "plain" for key in _PLAIN_KEYS})

_VALUE_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([a-zA-Z_]*)\s*$")


def parse_value(key: str, text: str) -> tuple[float, str]:
    """Parse one value string into (magnitude, unit category).

    The magnitude is already converted (rad/s, kelvin, tesla) except for
    ``omega_b`` ratios, which keep the raw ratio and the category
    "omega_b_ratio" so the caller can resolve them against omega_b.
    """
    match = _VALUE_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}")
    magnitude = float(match.group(1))
    suffix = match.group(2).lower()
    if suffix not in _UNITS:
        raise ConfigError(
            f"unknown unit {suffix!r} for key {key!r}; valid: "
            f"{sorted(u for u in _UNITS if u)}")
    factor, category = _UNITS[suffix]
    expected = _CATEGORY_BY_KEY[key]
    if category == "omega_b_ratio":
        if expected != "frequency":
            raise ConfigError(f"key {key!r} cannot be given in omega_b units")
        return magnitude, "omega_b_ratio"
    if category != "plain" and category != expected:
        raise ConfigError(
            f"unit {suffix!r} is a {category} unit but key {key!r} expects "
            f"a {expected}")
    value = magnitude * factor
    return (TWO_PI * value if suffix in _CYCLIC_UNITS else value), expected


def parse_entries(pairs: list[tuple[str, str]]) -> dict[str, tuple[float, str]]:
    """Validate keys and parse values; later duplicates override earlier ones."""
    entries: dict[str, tuple[float, str]] = {}
    for key, text in pairs:
        if key not in VALID_KEYS:
            raise ConfigError(
                f"unknown key {key!r}; valid keys: {', '.join(VALID_KEYS)}")
        entries[key] = parse_value(key, text)
    return entries


def read_config_text(text: str, source: str = "<string>") -> list[tuple[str, str]]:
    """Key/value pairs of a flat config file; '#' starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def load_config(path: str) -> dict[str, tuple[float, str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_entries(read_config_text(text, source=path))


def default_config() -> dict[str, tuple[float, str]]:
    """The bundled default parameter set."""
    text = resources.files("magnomech").joinpath("data/paper.conf").read_text("utf-8")
    return parse_entries(read_config_text(text, source="data/paper.conf"))


def apply_overrides(entries: dict[str, tuple[float, str]],
                    overrides: list[str]) -> dict[str, tuple[float, str]]:
    """Apply ``key=value`` override strings on top of parsed entries."""
    merged = dict(entries)
    pairs = []
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override must look like key=value: {override!r}")
        key, _, value = override.partition("=")
        pairs.append((key.strip(), value.strip()))
    merged.update(parse_entries(pairs))
    return merged


#: Two ways of fixing one quantity: (keys of one way, keys of the other, what
#: to name in the error).
_ALTERNATIVES = (
    (("G_eff",), ("epsilon_d", "b0"), "G_eff or a drive (epsilon_d / b0)"),
    (("delta_m_eff",), ("delta_m",), "delta_m_eff or delta_m"),
)


def merge_layers(layers: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Merge config layers, later layers winning.

    A later layer that fixes a quantity one way supersedes the other way from
    earlier layers: the effective coupling ``G_eff`` against a drive
    (``epsilon_d``/``b0``), and the prescribed ``delta_m_eff`` against the
    bare ``delta_m`` of the self-consistent working point. Giving both ways
    within one layer is an error.
    """
    merged: dict[str, tuple[float, str]] = {}
    for layer in layers:
        for first, second, what in _ALTERNATIVES:
            gives_first = any(k in layer for k in first)
            gives_second = any(k in layer for k in second)
            if gives_first and gives_second:
                raise ConfigError(f"give either {what}, not both")
            for key in second if gives_first else first if gives_second else ():
                merged.pop(key, None)
        merged.update(layer)
    return merged


def build_params(entries: dict[str, tuple[float, str]]) -> SystemParams:
    """Resolve omega_b ratios and drive-field inputs into a SystemParams."""
    if "omega_b" not in entries:
        raise ConfigError("omega_b is required")
    omega_b, category = entries["omega_b"]
    if category == "omega_b_ratio":
        raise ConfigError("omega_b cannot itself be given in omega_b units")

    values: dict[str, float] = {}
    for key, (magnitude, cat) in entries.items():
        values[key] = magnitude * omega_b if cat == "omega_b_ratio" else magnitude

    if "b0" in values:
        if "epsilon_d" in values:
            raise ConfigError("give either b0 or epsilon_d, not both")
        missing = [k for k in ("sphere_diameter", "spin_density") if k not in values]
        if missing:
            raise ConfigError(f"b0 requires {', '.join(missing)}")
        values["epsilon_d"] = rabi_frequency(values.pop("b0"),
                                             values.pop("sphere_diameter"),
                                             values.pop("spin_density"))
    for key in ("sphere_diameter", "spin_density"):
        values.pop(key, None)

    if "G_eff" in values and "epsilon_d" in values:
        raise ConfigError("give either G_eff or a drive (epsilon_d / b0), not both")
    try:
        return SystemParams(**values)
    except TypeError as exc:
        raise ConfigError(f"incomplete parameter set: {exc}") from exc
