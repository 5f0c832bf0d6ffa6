"""Tests of the benchmark's tracer: span arithmetic, and that tracing changes
no payload byte and repeats its exact counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from eulergibbs import cli  # noqa: E402

# small versions of the four workloads: (cli args, expected exit code)
SMALL_RUNS = {
    "ensemble-triad": (
        ["invariance", "--threads", "2", "--set", "cutoff=3,3", "--set", "ensemble=100",
         "--set", "t_final=0.002", "--set", "alpha=0.001", "--set", "mean_se_factor=5"],
        0,
    ),
    "ensemble-pseudo": (
        ["invariance", "--set", "cutoff=3,3", "--set", "ensemble=100",
         "--set", "scheme=implicit_midpoint", "--set", "drift_method=pseudo_spectral",
         "--set", "t_final=0.002", "--set", "alpha=0.001", "--set", "mean_se_factor=5"],
        0,
    ),
    "trajectory": (
        ["evolve", "--set", "cutoff=3,3", "--set", "scheme=implicit_midpoint",
         "--set", "t_final=0.01", "--set", "snapshot_stride=1", "--set", "round_trip=true"],
        0,
    ),
    "dyadic-metric": (
        ["cauchy", "--threads", "2", "--set", "levels=1,2", "--set", "ensemble=6",
         "--set", "level_max=2", "--set", "points_per_unit=8"],
        1,
    ),
}


def _run(args: list[str], out_dir: Path, expected_exit: int, traced: bool):
    command = [args[0], "--seed", "7", "--out", str(out_dir), *args[1:]]
    run = tracer.Tracer("test")
    if traced:
        run.install()
    try:
        entry = run.wrap_span("cli", "cli.main", cli.main) if traced else cli.main
        assert entry(command) == expected_exit
    finally:
        run.uninstall()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    written = sum(path.stat().st_size for path in out_dir.iterdir())
    metrics = tracer.layer_metrics(run.spans, run.orphan_counts, written)["metrics"] if traced else None
    return manifest["determinism_hash"], metrics


@pytest.mark.parametrize("workload", sorted(SMALL_RUNS))
def test_tracing_keeps_payload_and_repeats_counts(workload, tmp_path, capsys):
    args, expected_exit = SMALL_RUNS[workload]
    plain, _ = _run(args, tmp_path / "plain", expected_exit, traced=False)
    first_hash, first = _run(args, tmp_path / "traced1", expected_exit, traced=True)
    second_hash, second = _run(args, tmp_path / "traced2", expected_exit, traced=True)
    assert first_hash == plain == second_hash
    for name in (
        "drift.calls",
        "drift.rows",
        "drift.fft_transforms",
        "flow.fixed_point_iters",
        "flow.member_steps",
        "gibbs.draws",
        "harness.ks_tests",
    ):
        assert first[name] == second[name], name


def test_counts_match_the_workload_shape(tmp_path, capsys):
    args, expected_exit = SMALL_RUNS["ensemble-pseudo"]
    _, metrics = _run(args, tmp_path / "out", expected_exit, traced=True)
    modes = (7 * 7 - 1) // 2
    assert metrics["flow.member_steps"][0] == 100 * 2
    assert metrics["flow.fixed_point_iters"][0] >= 100 * 2
    assert metrics["drift.rows"][0] == 100 * 2 + metrics["flow.fixed_point_iters"][0]
    # five transforms per chunk of at most 256 rows, one chunk per drift call here
    assert metrics["drift.fft_transforms"][0] == 5 * metrics["drift.calls"][0]
    # two ensembles of 100 members, one complex draw per mode each
    assert metrics["gibbs.draws"][0] == 2 * 100 * modes
    assert metrics["harness.ks_tests"][0] == 2 * modes + 6


def test_tracer_restores_every_name():
    run = tracer.Tracer("test")
    before = {(m, a): tracer.resolve(m, a)[2] for m, a, _, _ in tracer.BOUNDARIES}
    run.install()
    assert run.missing == []
    run.uninstall()
    assert all(tracer.resolve(m, a)[2] is fn for (m, a), fn in before.items())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "name": "cli.main", "layer": "cli", "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 2, "parent": 1, "name": "flow.evolve_coeffs", "layer": "flow", "start": 1.0, "end": 9.0,
         "counts": {}, "rows": 4, "steps": 2, "scheme": "rk4", "failed": 0},
        # two worker threads whose drift calls overlap
        {"id": 3, "parent": 2, "name": "drift.drift_batch", "layer": "drift", "start": 2.0, "end": 6.0,
         "counts": {}, "rows": 2},
        {"id": 4, "parent": 2, "name": "drift.drift_batch", "layer": "drift", "start": 4.0, "end": 8.0,
         "counts": {}, "rows": 2},
    ]
    result = tracer.layer_metrics(spans, {}, 0)
    metrics = result["metrics"]
    assert metrics["drift.busy_s"][0] == pytest.approx(8.0)
    assert metrics["flow.self_s"][0] == pytest.approx(8.0 - 6.0)
    assert metrics["cli.self_s"][0] == pytest.approx(10.0 - 8.0)
    assert metrics["drift.first_call_s"][0] == pytest.approx(4.0)
    assert metrics["flow.member_steps"][0] == 8
    assert result["shares"]["drift"] == pytest.approx(0.6)


def test_planned_steps_counts_the_remainder():
    assert tracer.planned_steps(1e-3, 0.003) == 3
    assert tracer.planned_steps(1e-3, -0.8) == 800
    assert tracer.planned_steps(0.3, 1.0) == 4
    assert tracer.planned_steps(1e-3, 0.0) == 0
