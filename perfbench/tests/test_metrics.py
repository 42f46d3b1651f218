"""Metric-name grammar, units, and agreement with BENCHMARK.json."""

import json
import os

import pytest

from metrics import (
    ALL_METRICS,
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    UNIT_RE,
    WORKLOADS,
    benchmark_spec,
    result_line,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_name_unit_and_direction(metric):
    assert NAME_RE.match(metric.name)
    assert UNIT_RE.match(metric.unit)
    assert metric.better in ("lower", "higher")
    assert metric.meaning and metric.layer


def test_names_unique_across_all_declarations():
    names = [m.name for m in ALL_METRICS] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))


def test_per_layer_metrics_are_named_after_their_layer():
    for metric in PER_LAYER:
        assert metric.name.startswith(metric.layer + "."), metric.name
        assert metric.moves, metric.name


def test_end_to_end_bounds_and_setup_metric():
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(bounds.values())


def test_units_follow_the_name_suffix():
    # longest suffix first: "_per_s" is a rate, not a time
    suffix_units = [("_per_s", "1/s"), ("_rps", "1/s"), ("_ratio", "ratio"),
                    ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_s", "s")]
    for metric in ALL_METRICS:
        unit = next((u for suffix, u in suffix_units
                     if metric.name.endswith(suffix)), None)
        if unit is not None:
            assert metric.unit == unit, metric.name


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == benchmark_spec()
    assert len(json.dumps(on_disk)) < 64 * 1024
    for workload in on_disk["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_result_line_requires_every_declared_metric():
    values = {m.name: 1.0 for m in END_TO_END}
    line = result_line(True, 3, 0, values, END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}
    del values["wall_s"]
    with pytest.raises(KeyError):
        result_line(True, 3, 0, values, END_TO_END)


def test_readme_documents_every_metric_and_workload():
    with open(os.path.join(ROOT, "perfbench", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for metric in ALL_METRICS:
        assert f"| `{metric.name}` | {metric.unit} | {metric.better} |" in readme
    for workload in WORKLOADS:
        assert f"| `{workload.name}` |" in readme
