"""The benchmark's own tests: exact counts and seed-independent verdicts.

Run from the repository root with ``python -m pytest benchmarks``. Each test
makes traced runs, which send a fixed request list, so they take about three
minutes together on two cores.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import spans  # noqa: E402

EXACT_UNITS = {"count", "flop", "frames"}
WORKLOADS = ["evaluate", "train", "refine_long"]


@pytest.fixture(scope="module")
def traced():
    """(workload, seed) -> (result, info) of one traced run, made once per module."""
    cache = {}

    def get(workload, seed, again=False):
        key = (workload, seed, again)
        if key not in cache:
            cache[key] = harness.run(workload, seed, seconds=0, traced=True)
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_under_a_seed(traced, workload):
    first, info = traced(workload, 3)
    second, _ = traced(workload, 3, again=True)
    assert first["correct"] and second["correct"], info["failures"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_verdicts(traced, workload):
    a, info_a = traced(workload, 3)
    b, info_b = traced(workload, 4)
    assert info_a["inputs_sha256"] != info_b["inputs_sha256"]
    assert (a["correct"], a["failed"], a["attempted"]) == (b["correct"], b["failed"], b["attempted"])
    assert a["correct"], info_a["failures"]


def test_results_carry_the_metrics_benchmark_json_lists(traced):
    listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer, _ = traced("evaluate", 3)
    timed, _ = harness.run("evaluate", 3, seconds=0, traced=False)
    for result, key in ((per_layer, "per_layer"), (timed, "end_to_end")):
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed[key]}


def test_a_probe_on_a_missing_name_fails_and_restores(monkeypatch):
    from handrift import cli

    original = cli.refine_sequence
    monkeypatch.setattr(spans, "PROBES", spans.PROBES + (spans.Probe("cli", "no_such_function", "x"),))
    with pytest.raises(AttributeError):
        with spans.Tracer():
            pass
    assert cli.refine_sequence is original
