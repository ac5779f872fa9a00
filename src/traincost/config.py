"""Configuration ingestion and serialization.

Config files are small YAML documents with one section per subsystem. A
line scanner from the standard library reads the subset of YAML they use:
blank lines and "#" comments (at the start of a line or after a space); a
section name at column 0, followed either by its keys as "key: value"
lines indented by one common number of spaces or, on the same line, by a
one-line flow mapping "{key: value, ...}"; plain values, quoted values
without escapes, and empty values. Anything else (tabs, sequences, nested
mappings, multi-line flow, anchors, tags, block scalars, "---", ": "
inside a plain value) exits as "malformed config: ... (line N)". On the
subset it reads what PyYAML reads; the tests check it against PyYAML. A
section or key named twice is an error; PyYAML would keep the last one.

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

from .cluster_model import ClusterSpec, ResilienceConfig
from .projection import SCENARIOS, GrowthModel, MarketModel, Scenario
from .scaling_laws import ScalingConstants


class ConfigError(ValueError):
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
    if raw.lstrip("+-")[:4] in (".inf", ".Inf", ".INF", ".nan", ".NaN", ".NAN"):
        text = raw.replace(".", "", 1)  # YAML's spellings of infinity and NaN
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r} (line {line})")
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {raw!r} (line {line})")
        return int(value)
    return value


# The accepted subset of YAML, matched one line at a time. A name is a
# plain scalar that starts with no indicator character. A value is empty,
# quoted without escapes, or plain: no ": " inside, and a "#" after a space
# starts a comment. Inside a flow mapping, plain values also exclude ":,?[]{}".
# The patterns compile on first use (through re's cache), so a request
# without a config file compiles none of them.
_INDICATORS = r"\-?:,\[\]{}#&*!|>'\"%@`"
_FLOW_CHARS = r"[^ :,?\[\]{}]"
_QUOTED = r"'([^']*)'|\"([^\"\\]*)\""
_PLAIN = rf"((?:[^ {_INDICATORS}]|-(?! |$))(?:[^ :]|:(?! |$)| +(?=[^ #]))*)"
_FLOW_PLAIN = rf"((?:[^ {_INDICATORS}]|-(?={_FLOW_CHARS})){_FLOW_CHARS}*(?: +(?!#){_FLOW_CHARS}+)*)"
_END = r"(?: +#.*| *)"
_BLANK = r" *(?:#.*)?"
_ENTRY = rf"( *)([^ {_INDICATORS}][^ :]*):(?= |$)(.*)"
_VALUE = rf" *(?:{_QUOTED}|{_PLAIN})?{_END}"
_FLOW_OPEN = r" *{"
_FLOW_EMPTY = rf" *{{ *}}{_END}"
_FLOW_ITEM = rf" *([^ {_INDICATORS}]{_FLOW_CHARS}*): +(?:{_QUOTED}|{_FLOW_PLAIN})? *([,}}])"

# Characters YAML rejects or reads as a line break (after "\r\n" -> "\n").
_UNSUPPORTED = frozenset(
    map(chr, (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029, 0xFFFE, 0xFFFF))
) - {"\n"}


def _malformed(what: str, line: int) -> ConfigError:
    return ConfigError(f"malformed config: {what} (line {line})")


def _scalar(rest: str, line: int) -> str:
    """The scalar after "key:", without its quotes or trailing comment."""
    match = re.fullmatch(_VALUE, rest)
    if not match:
        raise _malformed("expected an empty, quoted or plain value", line)
    return "".join(filter(None, match.groups()))


def _flow(rest: str, line: int) -> list[tuple[str, str]]:
    """The (name, scalar) entries of a one-line flow mapping "{k: v, ...}"."""
    if re.fullmatch(_FLOW_EMPTY, rest):
        return []
    items, pos, closer = [], re.match(_FLOW_OPEN, rest).end(), ","
    while closer == ",":
        item = re.compile(_FLOW_ITEM).match(rest, pos)
        if not item:
            raise _malformed("expected a one-line flow mapping {key: value, ...}", line)
        name, *values, closer = item.groups()
        items.append((name, "".join(filter(None, values))))
        pos = item.end()
    if not re.fullmatch(_END, rest[pos:]):
        raise _malformed("unexpected text after the flow mapping", line)
    return items


def _scan(text: str) -> dict[str, tuple[str, int]]:
    """Raw "section.key" -> (scalar string, line) mapping.

    A section name sits at column 0. Its keys follow on lines indented by
    one common number of spaces, or sit on its line as a flow mapping.
    """
    text = text.removeprefix("\ufeff").replace("\r\n", "\n")
    if not _UNSUPPORTED.isdisjoint(text):
        at = min(text.index(char) for char in _UNSUPPORTED.intersection(text))
        raise _malformed(f"unsupported character {text[at]!r}", text.count("\n", 0, at) + 1)
    out: dict[str, tuple[str, int]] = {}
    section = None
    seen = set()  # the sections named so far
    indent = None  # the section's key indentation: "" before its first key, None if closed
    for line, content in enumerate(text.split("\n"), 1):
        if re.fullmatch(_BLANK, content):
            continue
        entry = re.fullmatch(_ENTRY, content)
        if not entry:
            raise _malformed("expected 'name:' or 'name: value'", line)
        pad, name, rest = entry.groups()
        if not pad:
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section {name!r} (line {line})")
            if name in seen:
                raise ConfigError(f"duplicate section {name!r} (line {line})")
            seen.add(name)
            section, indent = name, ""
            if re.fullmatch(_BLANK, rest):
                continue
            if not re.match(_FLOW_OPEN, rest):
                raise ConfigError(f"section {name!r} must be a mapping (line {line})")
            items, indent = _flow(rest, line), None
        elif indent is None:
            raise _malformed("indented line outside a section's keys", line)
        elif indent not in ("", pad):
            raise _malformed("indentation differs from the section's other keys", line)
        else:
            indent = pad
            nested = rest.lstrip(" ")[:1] in ("[", "{")
            items = [(name, None if nested else _scalar(rest, line))]
        for key_name, value in items:
            key = f"{section}.{key_name}"
            if key not in _FIELDS:
                raise ConfigError(f"unknown key {section}.{key_name!r} (line {line})")
            if value is None:
                raise ConfigError(f"{key}: expected a scalar (line {line})")
            if key in out:
                raise ConfigError(f"duplicate key {section}.{key_name!r} (line {line})")
            out[key] = (value, line)
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
