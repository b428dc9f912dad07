"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/smoke_check.py -q
    python3 perfbench/smoke_check.py

Checks that every metric in BENCHMARK.json is reported with its unit on
every workload, that the tracer finds every name it wraps, and that the
benchmark's own comparison counts a result perturbed by 1e-8 as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny(name: str, trace: bool, perturb: float = 0.0) -> dict:
    workloads, _ = run._import_program()
    return run.run(name, seed=1, seconds=0.0, trace=trace,
                   count=workloads.WORKLOADS[name].tiny, probes=1, perturb=perturb)


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], float), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in result["lines"]), m["name"]


def test_workloads_match_benchmark_json():
    workloads, _ = run._import_program()
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


def test_end_to_end_metrics_named_with_units():
    for name in WORKLOAD_NAMES:
        result = _tiny(name, trace=False)
        _check_metrics(result, SPEC["end_to_end"])
        assert any(line.startswith("fail_frac = ") and line.endswith(" ratio")
                   for line in result["lines"]), name


def test_per_layer_metrics_present_and_no_missing_names():
    for name in WORKLOAD_NAMES:
        result = _tiny(name, trace=True)
        _check_metrics(result, SPEC["per_layer"])
        assert "trace.missing_names = []" in result["lines"], name


def test_tracer_restores_wrapped_names():
    _, tracer = run._import_program()
    before = [tracer._resolve(module, attr) for _, module, attr, _ in tracer.SITES]
    tr = tracer.Tracer()
    with tr.installed():
        assert tr.missing == []
    after = [tracer._resolve(module, attr) for _, module, attr, _ in tracer.SITES]
    assert [s[2] for s in after] == [s[2] for s in before]


def test_perturbed_result_counts_as_failure():
    for name in WORKLOAD_NAMES:
        result = _tiny(name, trace=False, perturb=1e-8)
        assert result["correct"] is True
        if name == "converge-study":
            # 6 of each call's 20 rows are checked: 2 corrected methods at n = 64, 128, 256
            assert result["failed"] == result["attempted"] * 6 // 20, result
        else:
            assert result["failed"] == result["attempted"], (name, result)


if __name__ == "__main__":
    for fn in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        fn()
        print(f"ok {fn.__name__}")
