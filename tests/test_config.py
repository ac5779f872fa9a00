import math

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from traincost.config import (
    _FIELDS,
    _SECTIONS,
    ConfigError,
    ConfigFile,
    _coerce,
    _scan,
    parse_config,
    serialize,
)
from traincost.projection import SCENARIOS


def total_keys():
    return len(_FIELDS)


def float_keys():
    defaults = parse_config("")
    keys = []
    for line in serialize(defaults).splitlines():
        if line.startswith(" "):
            name, value = line.strip().split(": ")
            if "." in value:
                keys.append(f"{section}.{name}")
        else:
            section = line.rstrip(":")
    return keys


class TestDefaults:
    def test_empty_document_gives_all_defaults(self):
        config = parse_config("")
        assert config == ConfigFile()
        assert len(config.defaulted) == total_keys()
        assert "cluster.gpu_mtbf_h" in config.defaulted

    def test_whitespace_only_document(self):
        assert parse_config("\n\n") == ConfigFile()

    def test_explicit_keys_not_in_provenance(self):
        config = parse_config("cluster:\n  gpu_mtbf_h: 500000\n")
        assert "cluster.gpu_mtbf_h" not in config.defaulted
        assert config.cluster.gpu_mtbf_h == 500000.0
        assert len(config.defaulted) == total_keys() - 1


class TestValidation:
    def test_negative_mtbf_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("cluster:\n  gpu_mtbf_h: -5\n")
        assert "gpu_mtbf_h" in str(err.value)
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("cluster:\n  warp_drive: 9\n")
        assert "warp_drive" in str(err.value)
        assert "line 2" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nonsense:\n  a: 1\n")
        assert "nonsense" in str(err.value)

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError) as err:
            parse_config("cluster:\n  - a\n - b\n")
        assert "malformed" in str(err.value) or "mapping" in str(err.value)

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cluster:\n  gpu_mem_gb: [1, 2]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cluster:\n  gpu_mem_gb: 80\n  gpu_mem_gb: 90\n")

    def test_duplicate_section_rejected(self):
        # PyYAML's safe_load would keep only the second cluster section.
        text = "cluster:\n  gpu_mtbf_h: 1000\nscaling:\n  flop_per_token: 6\ncluster:\n  gpu_mem_gb: 40\n"
        with pytest.raises(ConfigError, match=r"^duplicate section 'cluster' \(line 5\)$"):
            parse_config(text)

    def test_integer_keys_reject_fractions(self):
        with pytest.raises(ConfigError) as err:
            parse_config("cluster:\n  gpus_per_group: 512.5\n")
        assert "gpus_per_group" in str(err.value)

    def test_integer_valued_floats_accepted(self):
        config = parse_config("cluster:\n  gpus_per_group: 512.0\n")
        assert config.cluster.gpus_per_group == 512

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cluster:\n  gpu_mem_gb: plenty\n")

    def test_yaml_inf_spelling_accepted(self):
        config = parse_config("cluster:\n  gpu_mtbf_h: .inf\n")
        assert config.cluster.gpu_mtbf_h == float("inf")
        assert parse_config(serialize(config)) == config

    @pytest.mark.parametrize("spelling", [
        ".inf", ".Inf", ".INF", "+.inf", "+.Inf", "+.INF", "-.inf", "-.Inf", "-.INF",
        ".nan", ".NaN", ".NAN",
    ])
    def test_yaml_float_spellings_read_as_pyyaml_reads_them(self, spelling):
        import yaml

        want = yaml.safe_load(spelling)
        assert isinstance(want, float)
        # gpu_mtbf_h refuses NaN and negative values, so read the spelling
        # through its coercion step.
        got = _coerce(spelling, float, "cluster.gpu_mtbf_h", 2)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_nan_rejected_by_range_check(self):
        with pytest.raises(ConfigError):
            parse_config("cluster:\n  gpu_mtbf_h: .nan\n")

    @pytest.mark.parametrize("key", float_keys())
    def test_nan_rejected_naming_key_and_line(self, key):
        section, name = key.split(".")
        with pytest.raises(ConfigError) as err:
            parse_config(f"{section}:\n  {name}: .nan\n")
        assert str(err.value).startswith(f"{key}: ")
        assert str(err.value).endswith("(line 2)")

    def test_every_float_key_covered(self):
        assert len(float_keys()) == 23

    @pytest.mark.parametrize(
        "text, where",
        [
            ("cluster:\n  tf_per_gpu: 0\n", "cluster.tf_per_gpu: sustained_flops_per_gpu must be > 0 (line 2)"),
            ("cluster:\n  cpu_mtbf_h: -1\n", "cluster.cpu_mtbf_h: cpu_mtbf_h must be > 0 (line 2)"),
            ("scaling:\n  token_scaling: 3\nscenario:\n  token_scaling: 2\n", "scaling.token_scaling:"),
            ("scaling:\n  token_scaling: 2\nscenario:\n  token_scaling: 3\n", "scenario.token_scaling:"),
            ("resilience:\n  ttr_h: 1\n  ft_g: 0\n", "resilience.ft_g:"),
            ("resilience:\n  ft_f: 5\n  ft_g: 3\n", "resilience.ft_f:"),
            ("resilience:\n  ft_f: 100\n  ft_g: 200\n  ttr_h: -1\n", "resilience.ttr_h:"),
            ("market:\n  it_spend_growth: -2\n", "market.it_spend_growth: it_spend_growth must be > -1"),
        ],
    )
    def test_dataclass_errors_name_the_key(self, text, where):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert where in str(err.value)

    @pytest.mark.parametrize("value", ["0", "-1", ".nan", "-.inf"])
    @pytest.mark.parametrize("key", [
        "scaling.flop_per_token", "scaling.tokens_per_param",
        "cluster.tf_per_gpu", "cluster.cost_per_gpu_h", "cluster.cloud_multiplier",
        "cluster.gpu_mtbf_h", "cluster.cpu_mtbf_h", "cluster.gpu_mem_gb", "cluster.fs_bw_gbs",
        "growth.base_params", "growth.param_growth", "growth.gpu_perf_doubling_years",
        "scenario.flop_per_param", "market.gpu_base_usd", "market.it_spend_usd",
    ])
    def test_positive_keys_name_key_attribute_and_line(self, key, value):
        section, name = key.split(".")
        attribute = _FIELDS[key].split(".")[-1]
        with pytest.raises(ConfigError) as err:
            parse_config(f"{section}:\n  {name}: {value}\n")
        assert str(err.value) == f"{key}: {attribute} must be > 0 (line 2)"

    def test_ft_f_must_be_below_ft_g(self):
        with pytest.raises(ConfigError) as err:
            parse_config("resilience:\n  ft_f: 100\n  ft_g: 100\n")
        assert "ft_f" in str(err.value)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            parse_config("resilience:\n  ckpt_mem_fraction: 0\n")
        with pytest.raises(ConfigError):
            parse_config("resilience:\n  seq_comp: 1.0\n")


class TestResilienceMapping:
    def test_k_out_of_n_keys(self):
        config = parse_config("resilience:\n  ft_f: 5\n  ft_g: 100\n")
        assert config.resilience.tolerated_group_failures == 5
        assert config.resilience.group_count_cap == 100


class TestScenarioPresets:
    def test_best_case_preset_fills_defaults(self):
        config = parse_config("scenario:\n  name: best_case\n")
        assert config.scenario == SCENARIOS["best_case"]

    def test_explicit_value_overrides_preset(self):
        config = parse_config(
            "scenario:\n  name: best_case\n  flop_per_param: 33\n"
        )
        assert config.scenario.flop_per_param_with_tokens == 33.0
        assert config.scenario.experts_per_year == 8.0

    def test_custom_scenario(self):
        config = parse_config(
            "scenario:\n  name: custom\n  experts_per_year: 2\n  base_experts: 4\n"
        )
        assert config.scenario.name == "custom"
        assert config.scenario.base_experts == 4

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError):
            parse_config("scenario:\n  name: utopia\n")


class TestRoundTrip:
    def test_default_round_trip(self):
        config = ConfigFile()
        assert parse_config(serialize(config)) == config

    def test_round_trip_preserves_every_field(self):
        text = (
            "cluster:\n  gpu_mem_gb: 96\n  tf_per_gpu: 312.5\n"
            "scaling:\n  token_scaling: 1.91\n"
            "resilience:\n  ft_f: 3\n  ttr_h: 0.25\n"
            "growth:\n  param_growth: 1.25\n"
            "scenario:\n  name: worst_case\n"
            "market:\n  gpu_base_growth: 0.19\n"
        )
        config = parse_config(text)
        assert parse_config(serialize(config)) == config

    def test_serialized_defaults_match_empty_parse(self):
        assert parse_config(serialize(ConfigFile())) == parse_config("")

    def test_serialization_is_deterministic(self):
        assert serialize(ConfigFile()) == serialize(ConfigFile())


def config_strategy():
    return st.builds(
        lambda mem, mtbf, frac, f, ttr, growth_rate, anchor: (
            f"cluster:\n  gpu_mem_gb: {mem}\n  gpu_mtbf_h: {mtbf}\n"
            f"resilience:\n  ckpt_mem_fraction: {frac}\n  ft_f: {f}\n  ttr_h: {ttr}\n"
            f"growth:\n  param_growth: {growth_rate}\n"
            f"market:\n  gpu_base_usd: {anchor}\n"
        ),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1e-3, max_value=1.0, exclude_min=True),
        st.integers(min_value=0, max_value=99),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=1e6, max_value=1e15),
    )


@settings(max_examples=20, deadline=None)
@given(config_strategy())
def test_round_trip_property(text):
    config = parse_config(text)
    again = parse_config(serialize(config))
    assert again == config


def test_cluster_template_builds_spec():
    config = parse_config("cluster:\n  tf_per_gpu: 312.5\n  cost_per_gpu_h: 1.75\n")
    spec = replace(config.cluster, n_gpus=50_000)
    assert spec.n_gpus == 50_000
    assert spec.rates.sustained_flops_per_gpu == 312.5e12
    assert spec.rates.dollars_per_gpu_hour == 1.75
    assert spec.rates.cloud_multiplier == 4.8


_SCALARS = st.one_of(
    st.sampled_from([".nan", ".inf", "-.inf", "1e400", "-0", "", "~", "custom", "best_case"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


def document_strategy():
    sections = sorted({key.split(".")[0] for key in _FIELDS}) + ["bogus"]
    key = st.one_of(
        st.sampled_from(sorted(_FIELDS)),
        st.tuples(st.sampled_from(sections), st.text(max_size=8)).map(".".join),
    )
    comment = st.sampled_from(["", "  # note", " #", "  # a: {b, c}"])
    entries = st.lists(st.tuples(key, _SCALARS, comment, st.booleans()), max_size=6)

    def render(items):
        lines = []
        for dotted, value, note, flow in items:
            section, _, name = dotted.partition(".")
            if flow:
                lines.append(f"{section}: {{{name}: {value}}}{note}")
            else:
                lines += [f"{section}:{note}", f"  {name}: {value}{note}"]
        return "\n".join(lines) + "\n"

    return st.one_of(entries.map(render), st.text(max_size=40))


@settings(max_examples=300, deadline=None)
@given(document_strategy())
def test_fuzz_parse_config_raises_only_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert parse_config(serialize(config)) == config


def reference_scan(text: str) -> dict[str, tuple[str, int]]:
    """The former PyYAML reader, which _scan must agree with on its subset."""
    import yaml

    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}")
    if root is None:
        return {}
    if not isinstance(root, yaml.MappingNode):
        raise ConfigError("config must be a mapping of sections")
    out: dict[str, tuple[str, int]] = {}
    seen = set()  # safe_load keeps only the last of a repeated section; both readers refuse it
    for section_node, body_node in root.value:
        section = str(section_node.value)
        line = section_node.start_mark.line + 1
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} (line {line})")
        if section in seen:
            raise ConfigError(f"duplicate section {section!r} (line {line})")
        seen.add(section)
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


def outcome(read, text):
    """What a reader returns, or the message it raises."""
    try:
        return read(text)
    except ConfigError as exc:
        return str(exc)


_MADE_UP_NAMES = ["a", "bogus_key", "a#b", "z'9", "gpu_mem_gb-", "_x.", "b\"0"]
_VALUE_TEXT = "az09.+-_~#:,'\"[]{}&*!|>%@` \u00e9"


def _names(section):
    """Mostly known names, often the same few, so duplicates come up."""
    known = sorted(key.split(".")[1] for key in _FIELDS if key.startswith(section + "."))
    return st.sampled_from(known[:3] * 6 + known * 4 + _MADE_UP_NAMES)


def _plain(flow):
    """Plain scalars of the subset: no ": " inside, no " #", no leading indicator."""
    chars = "".join(c for c in _VALUE_TEXT if c not in (":,?[]{} " if flow else " "))
    first = st.sampled_from([*"az09.+_~\u00e9", "-1", "-9", "-.", "-a"])
    words = st.lists(st.tuples(st.sampled_from([" ", "  "]), st.text(chars, min_size=1, max_size=4)),
                     max_size=2)
    value = st.tuples(first, st.text(chars, max_size=4), words).map(
        lambda t: t[0] + t[1] + "".join(gap + word for gap, word in t[2]))
    return value.filter(lambda v: ": " not in v and not v.endswith(":") and " #" not in v)


def _value(flow):
    return st.one_of(
        st.sampled_from(["1", "80", "-5", ".inf", "-.inf", ".nan", "1e400", "~", "best_case"]),
        _plain(flow),
        st.text(_VALUE_TEXT.replace("'", "") + "\\", max_size=6).map(lambda v: f"'{v}'"),
        st.text(_VALUE_TEXT.replace('"', ""), max_size=6).map(lambda v: f'"{v}"'),
        st.just(""),
    )


_NAMES = {section: _names(section) for section in [*_SECTIONS, "bogus"]}
_FLOW_VALUES, _BLOCK_VALUES = _value(flow=True), _value(flow=False)
_NOTE = st.sampled_from(["", " # c", "  # it's: {a, b} #"])


@st.composite
def subset_document(draw):
    """A config document from the reader's subset, line by line."""
    lines = []
    for section in draw(st.lists(st.sampled_from([*_SECTIONS] * 3 + ["bogus"]), max_size=4)):
        if draw(st.booleans()):
            items = draw(st.lists(st.tuples(_NAMES[section], _FLOW_VALUES), max_size=3))
            sep = draw(st.sampled_from([", ", ",", " , "]))
            pad = draw(st.sampled_from(["", " "]))
            body = sep.join(f"{n}: {v}" if v else f"{n}: " for n, v in items)
            lines.append(f"{section}: {{{pad}{body}{pad}}}{draw(_NOTE)}")
        else:
            lines.append(f"{section}:{draw(_NOTE)}")
            indent = " " * draw(st.integers(1, 4))
            entries = st.tuples(_NAMES[section], _BLOCK_VALUES)
            for name, value in draw(st.lists(entries, max_size=4)):
                spacing = draw(st.sampled_from([" ", "  "])) if value else ""
                lines.append(f"{indent}{name}:{spacing}{value}{draw(_NOTE)}")
                if draw(st.integers(0, 5)) == 0:
                    lines.append(draw(st.sampled_from(["", "   ", "# note", "      # deeper"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=300, deadline=None)
@given(subset_document())
def test_scan_agrees_with_pyyaml_on_the_subset(text):
    ours, reference = outcome(_scan, text), outcome(reference_scan, text)
    if isinstance(reference, str) and reference.startswith("malformed config: "):
        assert isinstance(ours, str)  # PyYAML's messages are its own
    else:
        assert ours == reference


@pytest.mark.parametrize(
    "text, line",
    [
        ("cluster:\n\tgpu_mem_gb: 80\n", 2),
        ("cluster:\n  gpu_mem_gb: 80\t# tab\n", 2),
        ("cluster:\n  - a\n", 2),
        ("cluster:\n  gpu_mem_gb: a: b\n", 2),
        ("cluster:\n  gpu_mem_gb: 80:\n", 2),
        ("cluster: {gpu_mem_gb: 1,\n  fs_bw_gbs: 2}\n", 1),
        ("cluster: {gpu_mem_gb: 1} x\n", 1),
        ("cluster: {gpu_mem_gb: 8,0}\n", 1),
        ("cluster: {gpu_mem_gb: 1, }\n", 1),
        ("cluster:\n  gpu_mem_gb: &x 80\n", 2),
        ("cluster:\n  gpu_mem_gb: *x\n", 2),
        ("cluster:\n  gpu_mem_gb: !!float 80\n", 2),
        ("cluster:\n  gpu_mem_gb: |\n    80\n", 2),
        ("cluster:\n  gpu_mem_gb: >\n    80\n", 2),
        ("---\ncluster:\n  gpu_mem_gb: 80\n", 1),
        ("cluster:\n  gpu_mem_gb: 80\n...\n", 3),
        ("cluster:\n  gpu_mem_gb:\n    80\n", 3),
        ("cluster:\n  gpu_mem_gb: 80\n    fs_bw_gbs: 500\n", 3),
        ("cluster:\n    gpu_mem_gb: 80\n  fs_bw_gbs: 500\n", 3),
        ("  cluster:\n    gpu_mem_gb: 80\n", 1),
        ("cluster:\n  gpu_mem_gb: 'it''s'\n", 2),
        ("cluster:\n  gpu_mem_gb: \"8\\x30\"\n", 2),
        ("cluster:\n  gpu_mem_gb: '80\n    '\n", 2),
        ("cluster:\n  gpu_mem_gb: 80\rcpu_mtbf_h: 1\n", 2),
        ("cluster:\n  ? gpu_mem_gb\n  : 80\n", 2),
        ("cluster: 80\n", 1),
        ("cluster: [gpu_mem_gb]\n", 1),
        ("cluster:\n  gpu_mem_gb: {a: 1}\n", 2),
    ],
)
def test_documents_outside_the_subset_are_rejected(text, line):
    with pytest.raises(ConfigError) as err:
        _scan(text)
    assert str(err.value).endswith(f"(line {line})")


def test_byte_order_mark_is_skipped():
    assert _scan("\ufeffcluster:\n  gpu_mem_gb: 80\n") == {"cluster.gpu_mem_gb": ("80", 2)}
