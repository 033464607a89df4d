"""Smoke test of the committed benchmark records, perfbench/BENCH_*.json.

It only reads the files: each must summarise every end-to-end metric that
BENCHMARK.json registers, for every registered workload, by a median,
quartiles and a spread, as perfbench/record.py writes them.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted((ROOT / "perfbench").glob("BENCH_*.json"))


def test_records_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_registered_metric_summarised(path):
    record = json.loads(path.read_text())
    assert record["schema"] == "perfbench-bench v1"
    for workload in SPEC["workloads"]:
        summary = record["summary"][workload["name"]]
        for metric in SPEC["end_to_end"]:
            row = summary[metric["name"]]
            values = [row[key] for key in ("median", "q1", "q3", "spread")]
            assert all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values), (workload["name"], row)
            assert row["q1"] <= row["median"] <= row["q3"]
            assert row["spread"] == pytest.approx(
                (row["q3"] - row["q1"]) / row["median"])
            assert row["unit"] == metric["unit"]
