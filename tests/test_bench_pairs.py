import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(tail, rows, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"req_tail_s": {"value": tail, "unit": "s"},
                        "rows_per_s": {"value": rows, "unit": "1/s"}}}


BETTER = {"req_tail_s": "lower", "rows_per_s": "higher"}


def canned_pairs():
    # The change's tail is lower in 9 of 10 pairs, well past the base's spread;
    # its row rate is higher in 5 and tied in 1.
    base_tails = [0.160, 0.150, 0.170, 0.155, 0.165, 0.158, 0.162, 0.150, 0.168, 0.140]
    change_tails = [0.130, 0.132, 0.128, 0.135, 0.131, 0.129, 0.133, 0.134, 0.127, 0.145]
    base_rows = [1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000]
    change_rows = [1010, 990, 1020, 980, 1030, 970, 1040, 960, 1050, 1000]
    return [{"seed": i, "base": result(bt, br), "change": result(ct, cr, failed=i == 3)}
            for i, (bt, ct, br, cr) in enumerate(zip(base_tails, change_tails,
                                                     base_rows, change_rows))]


def test_summary_of_canned_pairs():
    summary = bench_pairs.summarize(canned_pairs(), BETTER)

    assert summary["pairs"] == 10
    assert summary["attempted"] == {"base": 1000, "change": 1000}
    assert summary["failed"] == {"base": 0, "change": 1}
    tail = summary["metrics"]["req_tail_s"]
    assert (tail["pairs_won"], tail["pairs_lost"]) == (9, 1)
    assert tail["base"]["median"] == pytest.approx(0.159)
    assert tail["change"]["median"] == pytest.approx(0.1315)
    # statistics.quantiles(method="inclusive") interpolates as numpy's default.
    assert (tail["base"]["q1"], tail["base"]["q3"]) == pytest.approx((0.15125, 0.16425))
    assert tail["base"]["iqr"] == pytest.approx(0.013)
    assert tail["gain_shown"] is True
    # Per-pair change/base: 0.753-0.893 but for 0.145/0.140. The quartiles
    # interpolate 0.131/0.165 to 0.13/0.16, 0.129/0.158 to 0.133/0.162 and
    # 0.135/0.155 to 0.132/0.15; 9 to 1 is 2 * 11/1024 by the sign test.
    assert (tail["ratio"]["q1"], tail["ratio"]["median"], tail["ratio"]["q3"]) == pytest.approx(
        (0.79858, 0.81872, 0.87774), abs=1e-5)
    assert tail["sign_p"] == pytest.approx(22 / 1024)
    assert tail["paired"] == "gain"
    rows = summary["metrics"]["rows_per_s"]
    assert (rows["pairs_won"], rows["pairs_lost"]) == (5, 4)
    assert rows["base"] == {"median": 1000, "q1": 1000, "q3": 1000, "iqr": 0}
    assert rows["gain_shown"] is False
    assert rows["ratio"] == pytest.approx(
        {"median": 1.005, "q1": 0.9825, "q3": 1.0275, "iqr": 0.045})
    assert (rows["sign_p"], rows["paired"]) == (1.0, "unresolved")


def test_claim_lines_of_canned_pairs():
    summary = bench_pairs.summarize(canned_pairs(), BETTER)
    assert bench_pairs.claim_lines(summary) == [
        "req_tail_s: median 0.159 base, 0.1315 change (base IQR 0.013); "
        "change lower in 9 of 10 pairs; gain shown; "
        "paired gain: ratio 0.819 [0.799, 0.878], 1 lost, sign test p 0.021",
        "rows_per_s: median 1000 base, 1005 change (base IQR 0); "
        "change higher in 5 of 10 pairs; no gain shown; "
        "paired unresolved: ratio 1.005 [0.982, 1.027], 4 lost, sign test p 1",
    ]


def test_a_loss_in_every_pair_reads_as_a_paired_loss():
    # The change's tail is 5-10% higher in every pair, inside the base's spread.
    base = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    pairs = [{"base": result(t, 1.0), "change": result(t * (1.05 + i / 200), 1.0)}
             for i, t in enumerate(base)]
    summary = bench_pairs.summarize(pairs, BETTER)
    tail = summary["metrics"]["req_tail_s"]
    assert (tail["pairs_won"], tail["pairs_lost"], tail["gain_shown"]) == (0, 10, False)
    assert tail["ratio"]["q1"] > 1.0
    assert (tail["sign_p"], tail["paired"]) == (2 / 1024, "loss")
    assert bench_pairs.claim_lines(summary)[0].endswith(
        "no gain shown; paired loss: ratio 1.073 [1.061, 1.084], 10 lost, sign test p 0.002")
    # Every pair tied: nothing to test.
    assert summary["metrics"]["rows_per_s"]["sign_p"] == 1.0
    assert summary["metrics"]["rows_per_s"]["paired"] == "unresolved"


@pytest.mark.parametrize("won, lost, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0),
    (3, 0, 0.25),
])
def test_the_sign_test_is_exact_and_two_sided(won, lost, p):
    assert bench_pairs.sign_test(won, lost) == pytest.approx(p)


def test_a_gain_within_the_base_spread_does_not_show():
    # The change wins every pair, by less than the base's own spread.
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    pairs = [{"base": result(t, 1.0), "change": result(t - 0.1, 1.0)} for t in base]
    tail = bench_pairs.summarize(pairs, BETTER)["metrics"]["req_tail_s"]
    assert tail["pairs_won"] == 5
    assert tail["gain_shown"] is False


def test_one_pair_has_no_spread():
    summary = bench_pairs.summarize([{"base": result(2.0, 1.0), "change": result(1.0, 1.0)}],
                                    BETTER)
    assert summary["metrics"]["req_tail_s"]["base"] == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert summary["metrics"]["req_tail_s"]["gain_shown"] is True


def run(seed, tail, base="b"):
    pairs = [{"seed": seed, "base": result(tail, 1.0), "change": result(tail - 0.5, 1.0)}]
    return {"seeds": [seed], "commits": {"base": base, "change": "c"},
            "summary": bench_pairs.summarize(pairs, BETTER), "pairs": pairs}


def test_a_report_pools_the_pairs_of_every_run():
    report = bench_pairs.add_run(None, "plan", 30, run(1, 1.0), BETTER)
    assert report["summary"]["metrics"]["req_tail_s"]["base"]["median"] == 1.0
    report = bench_pairs.add_run(report, "plan", 30, run(2, 3.0), BETTER)
    assert [each["seeds"] for each in report["runs"]] == [[1], [2]]
    assert report["summary"]["pairs"] == 2
    assert report["summary"]["metrics"]["req_tail_s"]["base"]["median"] == 2.0
    assert report["runs"][1]["summary"]["metrics"]["req_tail_s"]["base"]["median"] == 3.0


@pytest.mark.parametrize("workload, seconds, base", [
    ("sim_degraded", 30, "b"), ("plan", 20, "b"), ("plan", 30, "other"),
])
def test_a_run_of_another_series_is_refused(workload, seconds, base):
    report = bench_pairs.add_run(None, "plan", 30, run(1, 1.0), BETTER)
    with pytest.raises(ValueError):
        bench_pairs.add_run(report, workload, seconds, run(2, 1.0, base=base), BETTER)
    assert len(report["runs"]) == 1


def test_each_side_of_a_pair_keeps_its_host_probe(monkeypatch):
    ran = []

    def canned(directory, workload, seed, seconds):
        ran.append(directory)
        return result(1.0 if directory == "b" else 0.5, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    pair = bench_pairs.run_pair({"base": "b", "change": "c"}, "plan", 7, 30, base_first=False)
    assert ran == ["c", "b"]
    assert (pair["seed"], pair["first"], sorted(pair)) == (
        7, "change", ["base", "change", "first", "probe", "seed"])
    for side in ("base", "change"):
        probe = pair["probe"][side]
        assert sorted(probe) == ["loop_ms", "pair_ratio"]
        assert all(type(value) is float and value > 0 for value in probe.values())
    without = {key: value for key, value in pair.items() if key != "probe"}
    assert bench_pairs.summarize([pair], BETTER) == bench_pairs.summarize([without], BETTER)


def probe(loop_ms, pair_ratio):
    return {"loop_ms": loop_ms, "pair_ratio": pair_ratio}


def test_the_probe_spread_reads_every_probed_pair():
    # Three pairs with host probes, and one from before the probe existed.
    probed = [(40.0, 1.0, 50.0, 1.2), (60.0, 1.4, 60.0, 1.0), (80.0, 1.6, 100.0, 0.8)]
    pairs = [{"base": result(1.0, 1.0), "change": result(1.0, 1.0),
              "probe": {"base": probe(bl, br), "change": probe(cl, cr)}}
             for bl, br, cl, cr in probed]
    pairs.insert(1, {"base": result(1.0, 1.0), "change": result(1.0, 1.0)})
    spread = bench_pairs.probe_spread(pairs)

    assert sorted(spread) == ["base", "change", "loop_ms_ratio", "pairs"]
    assert spread["pairs"] == 3
    assert spread["base"]["loop_ms"] == {"median": 60.0, "q1": 50.0, "q3": 70.0, "iqr": 20.0}
    assert spread["change"]["loop_ms"] == {"median": 60.0, "q1": 55.0, "q3": 80.0, "iqr": 25.0}
    assert spread["base"]["pair_ratio"]["median"] == pytest.approx(1.4)
    assert spread["change"]["pair_ratio"]["median"] == pytest.approx(1.0)
    # change/base per pair: 1.25, 1.0, 1.25.
    assert spread["loop_ms_ratio"] == pytest.approx(
        {"median": 1.25, "q1": 1.125, "q3": 1.25, "iqr": 0.125})

    report = bench_pairs.add_run(None, "plan", 30, run(1, 1.0), BETTER)
    assert report["probe"] is None
    with_probes = {**run(2, 1.0), "pairs": pairs}
    report = bench_pairs.add_run(report, "plan", 30, with_probes, BETTER)
    assert report["probe"] == spread
    assert report["summary"]["pairs"] == 5
