"""Byte-for-byte pins of CLI output.

Each case hashes the stdout of one CLI command, or the chart that --svg
writes. A mismatch means the output bytes changed; a change that means
to alter them must say why and update the hash. The simulate and report
hashes also pin the gap stream tagged by failure_sim.GENERATOR_NAME; the
tag they were taken under is pinned here too, so a stream change shows
in this file.

The every-key config sets each config key to a non-default value, so a
key mapped onto the wrong field changes a hash.
"""

import hashlib
from collections import Counter
from dataclasses import fields, replace

import pytest

from traincost import cli, failure_sim, projection
from traincost.cli import main
from traincost.config import parse_config

EVERY_KEY_CONFIG = """\
cluster:
  gpu_mem_gb: 96
  gpu_mtbf_h: 900000
  cpu_mtbf_h: 1400000
  gpus_per_cpu: 8
  tf_per_gpu: 200
  fs_bw_gbs: 750
  gpus_per_group: 256
  cost_per_gpu_h: 2.0
  cloud_multiplier: 4.0
scaling:
  flop_per_token: 6.5
  tokens_per_param: 18
  token_scaling: 1.95
resilience:
  ckpt_mem_fraction: 0.75
  ft_f: 1
  ft_g: 90
  ttr_h: 1.5
  seq_comp: 0.02
growth:
  base_year: 2024
  base_params: 1.5e12
  param_growth: 1.6
  gpu_perf_doubling_years: 2.2
scenario:
  name: custom
  experts_per_year: 3
  flop_per_param: 50
  base_experts: 6
  token_scaling: 1.85
market:
  gpu_base_usd: 5e10
  gpu_base_growth: 0.12
  it_spend_usd: 5e12
  it_spend_growth: 0.04
"""

DEFAULT_PINS = [
    (["sweep"],
     "7cba269056d118185a6c830ea36b54b4342ee13dfca3479ad02f92c742f34de7"),
    (["project", "--scenario", "best_case,best_guess,worst_case"],
     "06216cb3175d68857e0b7cdf8eb5c623006d2e730dff787631f11474bc439a57"),
    (["simulate", "--seed", "42", "--reps", "40"],
     "c9acf643e23df52302970db58420b3f555af692396a7e99c0044c6cf371d79ea"),
    (["report", "--reps", "40"],
     "d0c749c4db4be974c8cf5f10d8fc04b83702902efd768f597cc543fe11e28360"),
]

EVERY_KEY_PINS = [
    (["sweep"],
     "f714b0d6a423b64cf5cd8203c7d23d061622e126f7d1ec52d2a06346e0b0b014"),
    (["report", "--reps", "40"],
     "8ea45261d0ba17ac53cdbac53decd4d63a36e97687562d09677641dcc378e76a"),
    (["project", "--scenario", "custom"],
     "bca0f3fd9030e0f440fca9fb9d1e08ba164aa7199ec5f2759dd9c5614ef89eb4"),
    # A preset and the config's own scenario in one table.
    (["project", "--scenario", "best_case,custom", "--years", "2024:2040"],
     "94ae47fcb1e97cc1bf34b44f68dfdd3c68d3eaf676af004be1c0655d1b16618c"),
]


# simulate with F > 0. The optimized strategy at 150k GPUs rides out most
# failures in degraded mode; at 2,048 GPUs there are G = 4 <= F groups, so a
# run never interrupts and some failures find every group already down.
DEGRADED_PINS = [
    ("cluster: {fs_bw_gbs: 2000}\n"
     "resilience: {ckpt_mem_fraction: 0.5, ft_f: 5, ttr_h: 8}\n",
     ["simulate", "--gpus", "150000", "--seed", "7", "--reps", "40"],
     "f1e1093f037acf6e7037c379f36d78aa0f690dc247b8bf7eeaf47d2ae249ac4d"),
    ("cluster: {gpu_mtbf_h: 200000}\n"
     "growth: {base_params: 3.0e11}\n"
     "resilience: {ft_f: 5, ttr_h: 200}\n",
     ["simulate", "--gpus", "2048", "--seed", "7", "--reps", "40"],
     "32cd9149c7a354f2520d4d3510e6a250a83e6582febe95dc3dea70bcee066803"),
]


# The chart that --svg writes next to the CSV, as (config, args, sha256).
SVG_PINS = [
    ("", ["sweep"],
     "9855f5e173c980fe6a3c6ff45c6951d9a366740d37700745233506da32283aab"),
    (EVERY_KEY_CONFIG, ["sweep"],
     "c65a1d6a52e2eb95e5256f834cccec1e6a171e73720820dd4a856d0e821adbef"),
    ("", ["project", "--scenario", "best_case,best_guess,worst_case"],
     "aa27db89da01fb40c72b7cbdc14f4287461244f5876ae30c7208065ffd5313e0"),
    # Every baseline cell NoProgress (see NO_RESULT_PINS): one series only.
    ("", ["sweep", "--gpus", "131072:262144:3:geometric"],
     "af5724e2e2e843698575014af1a24e3f425e960325fd8eebd59194f483d66b92"),
    # Two scenarios, one of them custom, next to the market curves.
    (EVERY_KEY_CONFIG, ["project", "--scenario", "best_case,custom", "--years", "2024:2040"],
     "833372125e017cf5ebba3a607f3b21cff6732105d856849cf2dedb0c629178e8"),
    # One-point series, drawn as dots: the baseline is OK only at 92,682 GPUs;
    # a single size leaves both strategies one point on an x range of zero.
    ("", ["sweep", "--gpus", "92682:131072:2:geometric"],
     "19ae1603a79d5475fe4083745611a1b26972a44105e4637afe9d4f3dc7630a8d"),
    ("", ["sweep", "--gpus", "50000"],
     "596b584a79a2bdda10a3c0f0548a372cb352822187724fd057c7c64d5a161e4d"),
]


# Requests with a missing result, as (config, args, sha256). At 131k-262k
# GPUs every baseline cell is NoProgress: its wall and cost cells are empty
# and its series is absent from the chart (pinned in SVG_PINS). A
# failure-free run of a 1e14-parameter model passes the simulated-time
# horizon, so every replication is censored and its wall_h cell is empty.
NO_RESULT_PINS = [
    ("", ["sweep", "--gpus", "131072:262144:3:geometric"],
     "929a8f4e5a5cfb122e55c4d3464581a225294f02a0e890979b4c25f0fa76e991"),
    ("cluster: {gpu_mtbf_h: .inf, cpu_mtbf_h: .inf}\n"
     "growth: {base_params: 1.0e14}\n",
     ["simulate", "--reps", "2"],
     "9496743ce2b6d72cb0a97b7aad03d93cb990f77b1421b040488b07c09ea5ab62"),
    # The same censored run with replication 1 in a forked child, whose
    # infinite wall_h comes back through its marshal pipe.
    ("cluster: {gpu_mtbf_h: .inf, cpu_mtbf_h: .inf}\n"
     "growth: {base_params: 1.0e14}\n",
     ["simulate", "--reps", "2", "--workers", "2"],
     "9496743ce2b6d72cb0a97b7aad03d93cb990f77b1421b040488b07c09ea5ab62"),
]


# The largest sweep of the benchmark's plan workload, with its set-up
# config: 2,000 sizes whose rows are OK and NoProgress for both strategies.
# Pinned as (stdout sha256, stderr sha256, exit code).
PLAN_SWEEP_CONFIG = (
    "cluster: {fs_bw_gbs: 1000.0, gpus_per_group: 512}\n"
    "resilience: {ft_f: 2, ttr_h: 4.0, ckpt_mem_fraction: 0.75}\n"
)
PLAN_SWEEP_ARGS = ["sweep", "--gpus", "1024:1048576:2000:geometric"]
PLAN_SWEEP_PIN = (
    "25b9f43b1154312051b6f3e6840f6a6a5502298906666b34f292075896e7aabc",
    "4843e84ef6923b7ce0c55063f938db8f07b58b7755b26ff5400cf4b039d30d2c",
    0,
)


def stdout_sha256(capsys, args):
    assert main(args) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("args, digest", DEFAULT_PINS, ids=[a[0] for a, _ in DEFAULT_PINS])
def test_default_output_pinned(capsys, args, digest):
    assert stdout_sha256(capsys, args) == digest


@pytest.mark.parametrize("args, digest", EVERY_KEY_PINS,
                         ids=["sweep", "report", "project", "project_best_case_custom"])
def test_every_key_output_pinned(capsys, tmp_path, args, digest):
    config = tmp_path / "every_key.yaml"
    config.write_text(EVERY_KEY_CONFIG)
    assert stdout_sha256(capsys, args + ["--config", str(config)]) == digest


@pytest.mark.parametrize("config_text, args, digest", DEGRADED_PINS,
                         ids=["degraded", "all_groups_down"])
def test_degraded_output_pinned(capsys, tmp_path, config_text, args, digest):
    config = tmp_path / "degraded.yaml"
    config.write_text(config_text)
    assert stdout_sha256(capsys, args + ["--config", str(config)]) == digest


@pytest.mark.parametrize("config_text, args, digest", SVG_PINS,
                         ids=["sweep", "every_key_sweep", "project",
                              "sweep_baseline_no_progress", "every_key_project_best_case_custom",
                              "sweep_baseline_one_point", "sweep_one_size"])
def test_chart_pinned(tmp_path, config_text, args, digest):
    if config_text:
        config = tmp_path / "config.yaml"
        config.write_text(config_text)
        args = args + ["--config", str(config)]
    assert main(args + ["--out", str(tmp_path / "data.csv"), "--svg"]) == 0
    svg = (tmp_path / "data.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == digest


def test_plan_sweep_pinned(capsys, tmp_path):
    config = tmp_path / "plan.yaml"
    config.write_text(PLAN_SWEEP_CONFIG)
    code = main(PLAN_SWEEP_ARGS + ["--config", str(config)])
    captured = capsys.readouterr()
    cells = [row.split(",") for row in captured.out.splitlines()[1:]]
    assert Counter((row[1], row[-1]) for row in cells) == {
        ("baseline", "OK"): 1627, ("baseline", "NoProgress"): 373,
        ("optimized", "OK"): 1857, ("optimized", "NoProgress"): 143,
    }
    assert (hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
            hashlib.sha256(captured.err.encode("utf-8")).hexdigest(),
            code) == PLAN_SWEEP_PIN


def test_every_key_config_sets_every_key():
    assert parse_config(EVERY_KEY_CONFIG).defaulted == ()


def test_hashes_taken_under_generator_tag():
    assert failure_sim.GENERATOR_NAME == "mt19937-exp"


# The stream-dependent pins as taken under "philox4x64-exp", whose gaps were
# numpy Philox draws keyed (seed, replication).
PHILOX_PINS = [
    (["simulate", "--seed", "42", "--reps", "40"], "",
     "6406fe8374042bac757a5e537cf3545202a0428e9f9449e00f909f15692f718e"),
    (["report", "--reps", "40"], "",
     "120faf5967279c75c35207847f3def5fbd578a354fb00aec3d4330f5e7910a5c"),
    (["report", "--reps", "40"], EVERY_KEY_CONFIG,
     "bc69f024127125a6984d7df932c235d7fe7413d6c72c6f8635bd5250b12574af"),
]


@pytest.mark.parametrize("args, config_text, digest", PHILOX_PINS,
                         ids=["simulate", "report", "every_key_report"])
def test_philox_gaps_reproduce_former_pins(
    monkeypatch, capsys, tmp_path, philox_rng, args, config_text, digest
):
    # Fed the former stream and labelled with the former tag, the simulator
    # reproduces the former output bit for bit: the stream is all that changed.
    monkeypatch.setattr(
        failure_sim, "_replication_gaps",
        lambda seed, index: iter(philox_rng(seed, index).standard_exponential, None),
    )
    summarize = failure_sim.summarize
    monkeypatch.setattr(
        failure_sim, "summarize",
        lambda outcomes: replace(summarize(outcomes), generator="philox4x64-exp"),
    )
    if config_text:
        config = tmp_path / "every_key.yaml"
        config.write_text(config_text)
        args = args + ["--config", str(config)]
    assert stdout_sha256(capsys, args) == digest


# The stream-dependent pins as taken under "shake256-exp", whose gaps were
# decoded from shake_256 blocks keyed (seed, replication, block).
SHAKE_PINS = [
    (["simulate", "--seed", "42", "--reps", "40"], "",
     "1056ebfbb8567987b8691b6d587aba1ff78ce4614a06bb4cd6eee726eb02f277"),
    (["report", "--reps", "40"], "",
     "7ea843ad411c365769d5d9193b1fa52b14def184a75aa98381a9bb2c302fa6f7"),
    (["report", "--reps", "40"], EVERY_KEY_CONFIG,
     "02c914ad5005fee76753619297803c5a5148a1710252d2a299f1f2ebe542a2f9"),
    (DEGRADED_PINS[0][1], DEGRADED_PINS[0][0],
     "cf42da7822624115c68ce79805a56b8d5bd4872f5c9e343e7c5981de4ec5e7f5"),
    (DEGRADED_PINS[1][1], DEGRADED_PINS[1][0],
     "5de7519fd394a8825d2403414a8c43e5ea8f461e4bd7c8d5650cfecd41d1fddf"),
]


@pytest.mark.parametrize("args, config_text, digest", SHAKE_PINS,
                         ids=["simulate", "report", "every_key_report",
                              "degraded", "all_groups_down"])
def test_shake_gaps_reproduce_former_pins(
    monkeypatch, capsys, tmp_path, shake_gaps, args, config_text, digest
):
    # As for Philox above: the former stream under its former tag gives the
    # former bytes, so a later change of stream changed only the stream.
    monkeypatch.setattr(failure_sim, "_replication_gaps", shake_gaps)
    summarize = failure_sim.summarize
    monkeypatch.setattr(
        failure_sim, "summarize",
        lambda outcomes: replace(summarize(outcomes), generator="shake256-exp"),
    )
    if config_text:
        config = tmp_path / "config.yaml"
        config.write_text(config_text)
        args = args + ["--config", str(config)]
    assert stdout_sha256(capsys, args) == digest


@pytest.mark.parametrize("config_text, args, digest", NO_RESULT_PINS,
                         ids=["sweep_baseline_no_progress", "simulate_censored",
                              "simulate_censored_forked"])
def test_no_result_output_pinned(monkeypatch, capsys, tmp_path, config_text, args, digest):
    # Two CPUs, so that --workers 2 forks a child on any host.
    monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 2)
    if config_text:
        config = tmp_path / "config.yaml"
        config.write_text(config_text)
        args = args + ["--config", str(config)]
    assert stdout_sha256(capsys, args) == digest


def test_simulate_columns_follow_event_counts():
    names = tuple(f.name for f in fields(failure_sim.EventCounts))
    assert cli.SIMULATE_COLUMNS[2:] == names


def test_project_columns_follow_year_row():
    names = tuple(f.name for f in fields(projection.YearRow))
    assert cli.PROJECT_COLUMNS[1:] == names
