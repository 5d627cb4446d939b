"""Tests of the benchmark's own machinery: tracer, metrics, output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span, Tracer, summarize  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    summary = summarize(spans)
    assert summary["a"] == {"calls": 1, "total": 10.0, "self": 3.0}
    assert summary["b"] == {"calls": 2, "total": 7.0, "self": 6.0}
    assert summary["c"] == {"calls": 1, "total": 1.0, "self": 1.0}
    assert sum(entry["self"] for entry in summary.values()) == 10.0


def test_nested_spans_record_their_parent():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert tracer.spans == [
        Span("outer", 0.0, 10.0, -1),
        Span("inner", 1.0, 3.0, 0),
        Span("inner", 4.0, 6.0, 0),
    ]
    assert summarize(tracer.spans)["outer"]["self"] == 6.0


def test_same_layer_reentry_is_not_counted_twice():
    tracer = Tracer()

    def recurse(depth):
        return depth if depth == 0 else traced(depth - 1)

    traced = tracer.span_wrapper("layer", recurse)
    assert traced(3) == 0
    assert [span.name for span in tracer.spans] == ["layer"]


def test_tracer_patches_call_sites_and_restores_originals():
    import repro.fastpath.batch as batch
    import repro.fastpath.prototypes as prototypes
    import repro.pipeline.synthesis as synthesis
    from repro.analysis.comparison import compare_at_point
    from repro.channel.gilbert import GilbertChannel
    from repro.store.sqlite import SqliteStore

    before = {
        "batch.synthesize_runs": batch.synthesize_runs,
        "batch.compile_prototype": batch.compile_prototype,
        "synthesis.synthesize_runs": synthesis.synthesize_runs,
        "prototypes.compile_prototype": prototypes.compile_prototype,
        "loss_mask_batch": vars(GilbertChannel)["loss_mask_batch"],
    }
    assert "get" not in vars(SqliteStore)
    tracer = Tracer()
    tracer.install()
    try:
        assert batch.synthesize_runs is not before["batch.synthesize_runs"]
        assert batch.compile_prototype is not before["batch.compile_prototype"]
        assert "get" in vars(SqliteStore)
        compare_at_point(0.01, 0.8, k=100, runs=2, codes=("rse",), tx_models=("tx_model_2",))
    finally:
        tracer.uninstall()
    assert batch.synthesize_runs is before["batch.synthesize_runs"]
    assert batch.compile_prototype is before["batch.compile_prototype"]
    assert synthesis.synthesize_runs is before["synthesis.synthesize_runs"]
    assert prototypes.compile_prototype is before["prototypes.compile_prototype"]
    assert vars(GilbertChannel)["loss_mask_batch"] is before["loss_mask_batch"]
    assert "get" not in vars(SqliteStore)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for value in vars(module).values():
                assert not hasattr(value, "__perfbench_original__")
    layers = summarize(tracer.spans)
    for name in ("fec.build", "pipeline.synthesize", "channel.loss_mask", "fastpath.decode"):
        assert layers[name]["calls"] == 1
    report = tracer.report()
    assert report["counts"]["fastpath.decoded_runs"] == 2


def _write_grid(path: Path, value: str) -> None:
    lines = ["# label: test", "# runs: 2", "p,q,mean_inefficiency,mean_received_ratio,failures,runs"]
    lines += [f"0.{i:06d},0.500000,{value},1.500000,0,2" for i in range(196)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_output_check_rejects_a_perturbed_csv(tmp_path, monkeypatch):
    workload = wl.WORKLOADS["fig09-paper"]
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    for index in range(workload.configs):
        _write_grid(csv_dir / f"grid{index}.csv", "1.010000")
    outcome = workload.check(tmp_path, [""])
    assert outcome.errors == []
    assert outcome.runs == workload.units * wl.FIG09_RUNS
    monkeypatch.setattr(wl, "load_reference", lambda: {"fig09-paper": {"7": outcome.digest}})
    assert wl.reference_errors("fig09-paper", 7, outcome.digest) == []

    _write_grid(csv_dir / "grid3.csv", "1.010001")
    perturbed = workload.check(tmp_path, [""])
    assert perturbed.digest != outcome.digest
    assert wl.reference_errors("fig09-paper", 7, perturbed.digest)

    (csv_dir / "grid5.csv").unlink()
    assert workload.check(tmp_path, [""]).errors


def test_merge_takes_adaptive_accounting_from_the_cold_pass():
    cold = {
        "layers": {"store.get": {"calls": 4, "total": 1.0, "self": 1.0}},
        "counts": {"store.hits": 0, "store.puts": 4},
        "unit_ms": [],
        "adaptive": [{"rounds": 2, "executed_runs": 30, "exhaustive_runs": 100}],
    }
    warm = {
        "layers": {"store.get": {"calls": 4, "total": 0.5, "self": 0.5}},
        "counts": {"store.hits": 4},
        "unit_ms": [],
        "adaptive": [{"rounds": 2, "executed_runs": 30, "exhaustive_runs": 100}],
    }
    metrics = run.layer_metrics(run.merge_reports([cold, warm]), traced_wall=2.0, plain_wall=1.5)
    assert metrics["store.gets"] == 8
    assert metrics["store.hit_ratio"] == 0.5
    assert metrics["adaptive.runs_executed"] == 30
    assert metrics["adaptive.saved_ratio"] == pytest.approx(0.7)
    assert metrics["unattributed_s"] == pytest.approx(0.5)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert set(metrics) == set(run.PER_LAYER)


def test_timings_are_scaled_by_the_blocks_around_them():
    ref = speed.REFERENCE_CHUNK_S
    # The machine runs at half speed around the first timing, and speeds
    # up to the reference speed during the second.
    blocks = [2 * ref, 2 * ref, ref]
    assert speed.scaled_between([10.0, 6.0], blocks) == pytest.approx([5.0, 4.0])
    with pytest.raises(ValueError):
        speed.scaled_between([10.0, 6.0], blocks[:2])
    assert speed.block(0.0) > 0.0


def test_metric_and_workload_names():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert wl.NAME_PATTERN.fullmatch(name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in wl.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
