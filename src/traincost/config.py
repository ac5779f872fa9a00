"""Configuration ingestion and serialization.

Config files are small YAML documents with one section per subsystem.
One table, _FIELDS, maps every key to the dataclass attribute it sets,
in serialization order. Every key is optional: a missing key keeps the
value of the default ConfigFile (of the named preset for scenario.*),
and each applied default is recorded in the parsed config's provenance
list. A key's value type is the type of that default. Range checks live
in the dataclasses; a value they reject, and unknown sections or keys,
are reported with the section.key and its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import reduce

import yaml

from .cluster_model import ClusterSpec, ResilienceConfig
from .projection import SCENARIOS, GrowthModel, MarketModel, Scenario
from .scaling_laws import ScalingConstants


class ConfigError(Exception):
    """Malformed or invalid configuration input."""


@dataclass(frozen=True)
class ConfigFile:
    """A fully defaulted, validated configuration.

    cluster is a template whose n_gpus is a placeholder; callers size it
    with replace(config.cluster, n_gpus=n).
    """

    cluster: ClusterSpec = field(default_factory=lambda: ClusterSpec(n_gpus=1))
    scaling: ScalingConstants = field(default_factory=ScalingConstants)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    growth: GrowthModel = field(default_factory=GrowthModel)
    scenario: Scenario = field(default_factory=lambda: SCENARIOS["best_guess"])
    market: MarketModel = field(default_factory=MarketModel)
    defaulted: tuple[str, ...] = field(default=(), compare=False)


# "section.key" -> attribute of the ConfigFile field named by the section
# (dotted for a nested dataclass), in serialization order.
_FIELDS = {
    "cluster.gpu_mem_gb": "gpu_mem_gb",
    "cluster.gpu_mtbf_h": "gpu_mtbf_h",
    "cluster.cpu_mtbf_h": "cpu_mtbf_h",
    "cluster.gpus_per_cpu": "gpus_per_cpu",
    "cluster.tf_per_gpu": "rates.sustained_flops_per_gpu",
    "cluster.fs_bw_gbs": "fs_bw_gbs",
    "cluster.gpus_per_group": "gpus_per_group",
    "cluster.cost_per_gpu_h": "rates.dollars_per_gpu_hour",
    "cluster.cloud_multiplier": "rates.cloud_multiplier",
    "scaling.flop_per_token": "flop_per_token",
    "scaling.tokens_per_param": "tokens_per_param",
    "scaling.token_scaling": "token_scaling",
    "resilience.ckpt_mem_fraction": "ckpt_mem_fraction",
    "resilience.ft_f": "tolerated_group_failures",
    "resilience.ft_g": "group_count_cap",
    "resilience.ttr_h": "ttr_h",
    "resilience.seq_comp": "seq_fraction",
    "growth.base_year": "base_year",
    "growth.base_params": "base_params",
    "growth.param_growth": "param_growth_per_year",
    "growth.gpu_perf_doubling_years": "gpu_perf_per_dollar_doubling_years",
    "scenario.name": "name",
    "scenario.experts_per_year": "experts_per_year",
    "scenario.flop_per_param": "flop_per_param_with_tokens",
    "scenario.base_experts": "base_experts",
    "scenario.token_scaling": "token_scaling",
    "market.gpu_base_usd": "gpu_installed_base_usd",
    "market.gpu_base_growth": "gpu_installed_base_growth",
    "market.it_spend_usd": "it_spend_usd",
    "market.it_spend_growth": "it_spend_growth",
}

# Attribute value = YAML value * scale; tf_per_gpu is in TFLOP/s.
_SCALE = {"cluster.tf_per_gpu": 1e12}

_SECTIONS = tuple(dict.fromkeys(key.split(".")[0] for key in _FIELDS))


def _get(config: ConfigFile, key: str):
    section = key.split(".")[0]
    return reduce(getattr, _FIELDS[key].split("."), getattr(config, section))


def _with(obj, changes: dict):
    """obj with each (possibly dotted) attribute in changes set."""
    top = {}
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        top[head] = replace(top.get(head, getattr(obj, head)), **{rest: value}) if rest else value
    return replace(obj, **top)


def _coerce(raw: str, kind: type, key: str, line: int):
    if kind is str:
        return raw
    text = raw
    if text.lstrip("+-").startswith("."):  # YAML spellings .inf / .nan
        text = text.replace(".inf", "inf").replace(".nan", "nan")
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r} (line {line})")
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {raw!r} (line {line})")
        return int(value)
    return value


def _scan(text: str) -> dict[str, tuple[str, int]]:
    """Raw "section.key" -> (scalar string, line) mapping."""
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}")
    if root is None:
        return {}
    if not isinstance(root, yaml.MappingNode):
        raise ConfigError("config must be a mapping of sections")
    out: dict[str, tuple[str, int]] = {}
    for section_node, body_node in root.value:
        section = str(section_node.value)
        line = section_node.start_mark.line + 1
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} (line {line})")
        if isinstance(body_node, yaml.ScalarNode) and body_node.value == "":
            continue
        if not isinstance(body_node, yaml.MappingNode):
            raise ConfigError(f"section {section!r} must be a mapping (line {line})")
        for key_node, value_node in body_node.value:
            name = str(key_node.value)
            key = f"{section}.{name}"
            key_line = key_node.start_mark.line + 1
            if key not in _FIELDS:
                raise ConfigError(f"unknown key {section}.{name!r} (line {key_line})")
            if not isinstance(value_node, yaml.ScalarNode):
                raise ConfigError(f"{key}: expected a scalar (line {key_line})")
            if key in out:
                raise ConfigError(f"duplicate key {section}.{name!r} (line {key_line})")
            out[key] = (value_node.value, key_line)
    return out


def _locate(section: str, raw: dict, exc: ValueError) -> str:
    """Prefix a dataclass error with the given key its message names.

    The dataclasses' ValueErrors name the attribute they reject; a
    cross-field error falls back to the section's first given key.
    """
    given = [key for key in _FIELDS if key.startswith(section + ".") and key in raw]
    words = set(re.findall(r"\w+", str(exc)))
    key = next((k for k in given if _FIELDS[k].split(".")[-1] in words), given[0])
    return f"{key}: {exc} (line {raw[key][1]})"


def parse_config(text: str) -> ConfigFile:
    """Parse and validate a config document; empty input means all defaults."""
    raw = _scan(text)
    preset = raw.get("scenario.name", ("best_guess",))[0]
    config = ConfigFile(scenario=SCENARIOS.get(preset, SCENARIOS["best_guess"]))

    changes: dict[str, dict] = {}
    for key, (scalar, line) in raw.items():
        value = _coerce(scalar, type(_get(config, key)), key, line)
        if key in _SCALE:
            value *= _SCALE[key]
        changes.setdefault(key.split(".")[0], {})[_FIELDS[key]] = value
    sections = {}
    for section, given in changes.items():
        try:
            sections[section] = _with(getattr(config, section), given)
        except ValueError as exc:
            raise ConfigError(_locate(section, raw, exc)) from None
    return replace(config, **sections, defaulted=tuple(k for k in _FIELDS if k not in raw))


def load_config(path: str) -> ConfigFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def serialize(config: ConfigFile) -> str:
    """Render a config with every key explicit; parse(serialize(c)) == c."""
    lines = []
    for key in _FIELDS:
        section, name = key.split(".")
        if f"{section}:" not in lines:
            lines.append(f"{section}:")
        value = _get(config, key)
        lines.append(f"  {name}: {value / _SCALE[key] if key in _SCALE else value}")
    return "\n".join(lines) + "\n"
