"""Tests of the ledger itself: ``python -m pytest benchmarks/ledger -q``.

Every workload runs here at a tiny size, untraced and traced, and must
emit every metric ``BENCHMARK.json`` names; the answer checks must trip
on a corrupted answer; the span arithmetic must be exact.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import (ProcessTrace, Span, coverage, layer_metrics,  # noqa: E402
                   self_times, union_length)

TINY = {
    "figure8": {"apps": ("flight_control",), "ratios": (0.5, 1.0)},
    "query-warm": {"energy_keys": 6, "analytic_keys": 6, "rate": 40.0, "hot_keys": 3},
    "query-mixed": {"rate": 10.0},
    "scenario-durable": {"packs": ("weakly_hard", "sensor_hub"), "seeds_per_doc": 2},
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_emits_every_metric(workload, trace):
    record = run.run_one(workload, seed=1, trace=trace, seconds=1.0,
                         setups=1, **TINY[workload])
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(record["metrics"]) == set(names)
    for name, metric in record["metrics"].items():
        assert metric["unit"] == names[name]["unit"]
        if not trace:
            assert metric["value"] > 0, name
    if trace and workload == "scenario-durable":
        # One run_many per campaign: no layer is counted twice.
        values = {name: m["value"] for name, m in record["metrics"].items()}
        assert values["experiments.runner.calls"] == values["scenarios.runner.campaigns"]


def _sent(payloads):
    return [workloads.Sent(0.0, 0.0, 0.001, 200, json.dumps(p).encode(), False)
            for p in payloads]


def test_corrupted_hit_trips_the_check():
    first = {"ok": True, "average_power": 0.4187405811046353}
    corrupted = dict(first, average_power=0.41874058110463536)
    out = workloads.Outcome()
    workloads.check_answers(out, _sent([first, first]), [first, first])
    assert out.problems == []
    workloads.check_answers(out, _sent([first, corrupted]), [first, first])
    assert out.problems == ["request 1: answer differs from its first answer"]


def test_corrupted_miss_trips_the_recompute():
    request = {"kind": "schedulability", "time_unit": "ms",
               "tasks": [{"name": "a", "wcet": 1, "period": 4},
                         {"name": "b", "wcet": 2, "period": 8}]}
    from repro.service.query import parse_query
    from repro.service.results import execute_query

    answer = workloads.json_roundtrip(execute_query(parse_query(request)))
    out = workloads.Outcome()
    workloads._recompute(out, [request], [answer], [0])
    assert out.problems == []
    workloads._recompute(out, [request], [dict(answer, schedulable=False)], [0])
    assert out.problems == ["answer 0 differs from execute_query"]


def test_corrupted_figure8_power_trips_the_reference():
    reference = json.loads(workloads.REFERENCE.read_text())
    points = [[r, f, l, 0, 0] for r, f, l in reference["ins"]]
    out = workloads.Outcome()
    workloads.check_panels(out, 1, [(0, "ins", points)])
    assert out.problems == []
    points[3][2] *= 1.0 + 1e-15
    workloads.check_panels(out, 1, [(0, "ins", points)])
    assert out.problems == ["ins ratio 0.4: powers differ from the reference"]


def test_stream_gap_trips_the_check():
    events = [{"seq": 1, "kind": "cell", "data": {"cell": 0, "ok": True}},
              {"seq": 2, "kind": "cell", "data": {"cell": 1, "ok": True}},
              {"seq": 3, "kind": "done", "data": {"failed": 0}}]
    out = workloads.Outcome()
    assert workloads.check_stream(out, "x", workloads.Streamed(0, 0, 0, 200, events), 2)
    del events[1]
    events[1]["seq"] = 3
    assert not workloads.check_stream(out, "x", workloads.Streamed(0, 0, 0, 200, events), 2)
    assert len(out.problems) == 1


def test_growing_backlog_fails_the_run():
    rate = 100.0
    steady = [workloads.Sent(i / rate, i / rate + 1e-4, i / rate + 2e-3, 200, b"{}", False)
              for i in range(100)]
    out = workloads.Outcome()
    workloads.drive_metrics(out, steady, rate, slo_ms=10.0)
    assert out.problems == []
    growing = [workloads.Sent(i / rate, i / rate + i * 1e-3, i / rate + i * 1e-3 + 2e-3,
                              200, b"{}", True) for i in range(100)]
    out = workloads.Outcome()
    workloads.drive_metrics(out, growing, rate, slo_ms=10.0)
    assert out.problems and out.problems[0].startswith("growing backlog")


def test_self_time_of_nested_spans_is_exact():
    spans = [
        Span(0, "root", 0.0, 8.0),
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "a.inner", 1.5, 2.5, parent=1),
        Span(3, "b", 2.0, 5.0, parent=0),  # overlaps a: counted once
        Span(4, "c", 6.0, 7.0, parent=0),
        Span(5, "other-thread", 0.5, 9.0, thread=1),
    ]
    assert self_times(spans) == {0: 3.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 1.0, 5: 8.5}
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert coverage(spans[:1], [(0.0, 4.0), (6.0, 10.0)]) == 0.75
    assert coverage([spans[4], spans[5]], [(0.0, 2.0), (1.0, 4.0), (6.5, 12.0)]) == 6.0 / 9.5


def test_times_scale_to_the_reference_host():
    # A host on which the probe loop takes twice the reference time is
    # half as fast: its times are halved.
    slow = 2 * workloads.PROBE_REF_S
    assert workloads.at_reference(0.2, (slow, slow)) == pytest.approx(0.1)
    out = workloads.Outcome()
    workloads.setup_metric(out, [(slow, 0.8, slow), (slow, 0.6, 3 * slow), (slow, 0.1, slow)])
    assert out.metrics["setup_s"] == pytest.approx(0.6 / 4)
    assert out.extras["wall_setup_s"] == (0.6, "s")


def test_span_ids_of_different_processes_do_not_mix():
    # Both processes number their spans from 0; each parent link and
    # self time stays within its own process.
    serve = [Span(0, "service.broker.query", 0.0, 5.0),
             Span(1, "service.broker.submit", 1.0, 2.0, parent=0, info={"path": "miss"}),
             Span(2, "scenarios.runner.run_scenario", 10.0, 20.0),
             Span(3, "experiments.runner.run_many", 11.0, 19.0, parent=2)]
    restart = [Span(0, "service.broker.query", 30.0, 31.0),
               Span(1, "service.broker.submit", 30.25, 30.5, parent=0,
                    info={"path": "miss"}),
               Span(2, "scenarios.runner.run_scenario", 40.0, 41.0)]
    metrics = layer_metrics([ProcessTrace("serve", serve), ProcessTrace("restart", restart)],
                            [], since=0.0)
    assert metrics["scenarios.runner.self_s"] == 2.0 + 1.0
    assert metrics["service.broker.wait_ms_mean"] == (4.0 + 0.75) / 2 * 1e3


def test_compare_verdicts():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}
    faster = {seed: 80.0 + seed % 3 for seed in range(10)}
    slower = {seed: 120.0 + seed % 3 for seed in range(10)}
    assert run.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert run.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert run.verdict(parent, dict(parent), "lower", 0.1)["verdict"] == "unchanged"
    noisy = {seed: 100.0 * (1 + seed % 2) for seed in range(10)}
    assert run.verdict(noisy, dict(noisy), "lower", 0.1)["verdict"] == "unresolved"
    assert run.verdict(parent, slower, "higher", 0.1)["verdict"] == "improved"


def test_compare_counts_incorrect_runs(tmp_path, capsys):
    def records(latency, correct):
        return [{"workload": "figure8", "seed": seed, "trace": 0, "failed": 0,
                 "correct": correct(seed),
                 "metrics": {name: {"value": latency + seed % 3, "unit": spec["unit"]}
                             for name, spec in run.END_TO_END.items()}}
                for seed in range(10)]

    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text("".join(json.dumps(r) + "\n" for r in records(100.0, lambda s: True)))
    change.write_text("".join(json.dumps(r) + "\n" for r in records(80.0, lambda s: s != 3)))
    assert run.compare(str(parent), str(parent)) == 0
    assert run.compare(str(parent), str(change)) == 1
    out = capsys.readouterr().out
    assert "incorrect runs 0 -> 1" in out
    assert "improved" not in out and "unresolved" in out
