"""The eulergibbs benchmark: four CLI workloads, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout. Each experiment is a fresh
``eulergibbs`` CLI process (``perfbench/launch.py``) with ``src/`` on its
path; experiments repeat until T seconds have passed. The workload seed is
turned into the CLI ``--seed``, which with the workload's ``--set`` values is
all the CLI receives. Every run's exit code, verdicts, output files and
determinism hash are checked; all runs of one invocation must share one hash.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (medians over the runs). With ``--trace 1``
untraced and traced runs alternate: traced runs must reproduce the untraced
hash and repeat every exact count, and the metrics are the per-layer ones.
A results file with every sample, the hash, the machine and, for traced runs,
the layer shares and a comparison with reference figures goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# An invocation must end within 180 s; no process it starts runs past this
# point, which leaves time to gather and write the results.
RUNS_END_BY_S = 150.0


@dataclass(frozen=True)
class Workload:
    subcommand: str
    settings: dict[str, str]
    threads: int
    exit_code: int
    verdicts: dict[str, bool]
    outputs: tuple[str, ...]
    work: int  # units of work per run
    work_unit: str
    members: int | None = None  # ensemble members that must all survive
    snapshots: int | None = None  # trajectory snapshots written

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        args = [self.subcommand, "--seed", str(seed), "--out", str(out_dir)]
        args += ["--threads", str(self.threads)]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={value}"]
        return args


INVARIANCE_VERDICTS = {"marginal_pass_rate": True, "energy_mean": True, "enstrophy_mean": True}
# Verdict thresholds for the invariance workloads: with alpha 0.001 and means
# within 5 standard errors a statistical false alarm has probability of about
# 1e-6 per seed (about 5e-3 at the defaults), so a failed verdict points at
# the program. The cost of a run does not depend on them.
INVARIANCE_THRESHOLDS = {"alpha": "0.001", "mean_se_factor": "5"}

TRIAD_MEMBERS, TRIAD_STEPS = 512, 3
PSEUDO_MEMBERS, PSEUDO_STEPS = 1000, 6
TRAJECTORY_STEPS = 400
CAUCHY_PAIRS, CAUCHY_LEVELS = 80, 3

WORKLOADS = {
    "ensemble-triad": Workload(
        subcommand="invariance",
        settings={
            "cutoff": "8,8",
            "scheme": "rk4",
            "drift_method": "triad_sum",
            "dt": "0.001",
            "t_final": repr(TRIAD_STEPS * 0.001),
            "ensemble": str(TRIAD_MEMBERS),
            **INVARIANCE_THRESHOLDS,
        },
        threads=2,
        exit_code=0,
        verdicts=INVARIANCE_VERDICTS,
        outputs=("report.json", "summary.csv"),
        work=TRIAD_MEMBERS * TRIAD_STEPS,
        work_unit="member-step",
        members=TRIAD_MEMBERS,
    ),
    "ensemble-pseudo": Workload(
        subcommand="invariance",
        settings={
            "cutoff": "6,6",
            "scheme": "implicit_midpoint",
            "drift_method": "pseudo_spectral",
            "grid": "24",
            "dt": "0.001",
            "t_final": repr(PSEUDO_STEPS * 0.001),
            "ensemble": str(PSEUDO_MEMBERS),
            **INVARIANCE_THRESHOLDS,
        },
        threads=1,
        exit_code=0,
        verdicts=INVARIANCE_VERDICTS,
        outputs=("report.json", "summary.csv"),
        work=PSEUDO_MEMBERS * PSEUDO_STEPS,
        work_unit="member-step",
        members=PSEUDO_MEMBERS,
    ),
    "trajectory": Workload(
        subcommand="evolve",
        settings={
            "cutoff": "8,8",
            "scheme": "implicit_midpoint",
            "drift_method": "triad_sum",
            "dt": "0.001",
            "t_final": repr(TRAJECTORY_STEPS * 0.001),
            "snapshot_stride": "1",
            "round_trip": "true",
        },
        threads=1,
        exit_code=0,
        verdicts={"round_trip_return": True},
        outputs=("trajectory.jsonl",),
        work=2 * TRAJECTORY_STEPS,
        work_unit="step",
        snapshots=TRAJECTORY_STEPS + 1,
    ),
    "dyadic-metric": Workload(
        subcommand="cauchy",
        settings={"levels": "2,3,4", "ensemble": str(CAUCHY_PAIRS)},
        threads=2,
        # the Cauchy scan measures no convergence by design: exit 1, verdict false
        exit_code=1,
        verdicts={"strictly_decreasing": False},
        outputs=("report.json", "summary.csv"),
        work=CAUCHY_PAIRS * CAUCHY_LEVELS,
        work_unit="pair",
    ),
}

# figures the first traced runs are compared with (2-core probe, numpy 2.4)
REFERENCES = {
    "ensemble-triad": {"drift.us_per_row": 770.0},
    "dyadic-metric": {"gibbs.draws_per_s": 1.3e6, "spectral.ms_per_pair@period=16": 27.0},
}

# the layer split each workload was designed for: (share or metric, bound, sense)
DESIGN = {
    "ensemble-triad": [("share.drift", 0.9, ">=")],
    "dyadic-metric": [("share.spectral", 0.9, ">="), ("drift.calls", 0, "==")],
    "trajectory": [("share.cli.serialize", 0.1, ">=")],
}

EXACT_COUNTS = (
    "drift.calls",
    "drift.rows",
    "drift.fft_transforms",
    "flow.member_steps",
    "flow.fixed_point_iters",
    "flow.failed_members",
    "spectral.metric_calls",
    "gibbs.draws",
    "harness.ks_tests",
    "cli.bytes_written",
)


@dataclass
class RunRecord:
    index: int
    traced: bool
    ok: bool = False
    problems: list[str] = field(default_factory=list)
    wall_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    determinism_hash: str | None = None
    versions: dict | None = None
    layers: dict | None = None


def cli_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def check_outputs(workload: Workload, out_dir: Path, exit_code: int) -> tuple[list[str], str | None]:
    """Problems with one run's outputs, and its determinism hash."""
    problems = []
    if exit_code != workload.exit_code:
        problems.append(f"exit code {exit_code}, expected {workload.exit_code}")
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return problems + ["manifest.json missing"], None
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        return problems + ["manifest.json is not JSON"], None
    if manifest.get("verdicts") != workload.verdicts:
        problems.append(f"verdicts {manifest.get('verdicts')}, expected {workload.verdicts}")
    listed = {entry["file"]: entry for entry in manifest.get("outputs", [])}
    if set(listed) != set(workload.outputs):
        problems.append(f"outputs {sorted(listed)}, expected {sorted(workload.outputs)}")
    digest = hashlib.sha256()
    for name in sorted(listed):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != listed[name]["sha256"]:
            problems.append(f"{name} does not match its manifest digest")
        digest.update(name.encode())
        digest.update(b"\n")
        digest.update(payload)
    if digest.hexdigest() != manifest.get("determinism_hash"):
        problems.append("determinism hash does not match the files written")
    measurements = manifest.get("measurements", {})
    if workload.members is not None and measurements.get("surviving") != workload.members:
        problems.append(f"{measurements.get('surviving')} of {workload.members} members survived")
    if workload.snapshots is not None and measurements.get("snapshots") != workload.snapshots:
        problems.append(f"{measurements.get('snapshots')} snapshots, expected {workload.snapshots}")
    return problems, manifest.get("determinism_hash")


def run_once(
    name: str, workload: Workload, seed: int, index: int, traced: bool, work_dir: Path, timeout: float
) -> RunRecord:
    record = RunRecord(index=index, traced=traced)
    out_dir = work_dir / f"run{index}"
    report_path = work_dir / f"run{index}.json"
    log_path = work_dir / f"run{index}.log"
    command = [
        sys.executable,
        str(HERE / "launch.py"),
        str(report_path),
        "1" if traced else "0",
        f"{name}/{seed}/{index}",
        str(SRC),
        *workload.cli_args(cli_seed(name, seed), out_dir),
    ]
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        try:
            subprocess.run(
                command, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            record.problems.append(f"no result within {timeout:.0f} s")
            return record
    if not report_path.is_file():
        record.problems.append(f"launcher wrote no report; see {log_path}")
        return record
    report = json.loads(report_path.read_text())
    record.setup_s = report["ready"] - launched
    record.wall_s = report["end"] - report["dispatch"]
    record.peak_rss_mb = report["peak_rss_kb"] / 1024.0
    record.versions = report["versions"]
    record.problems, record.determinism_hash = check_outputs(workload, out_dir, report["exit_code"])
    if traced:
        written = sum(path.stat().st_size for path in out_dir.iterdir() if path.is_file())
        record.layers = tracer.layer_metrics(report["spans"], report["orphan_counts"], written)
        record.layers["unwrapped"] = report["unwrapped"]
        if record.layers["metrics"]["flow.failed_members"][0]:
            record.problems.append("a member failed to integrate")
    record.ok = not record.problems
    if record.ok:
        shutil.rmtree(out_dir, ignore_errors=True)
        report_path.unlink()
        log_path.unlink()
    return record


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=False)
        for line in lscpu.stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L2 cache", "L3 cache"):
                info[key.strip().lower().replace(" ", "_")] = value.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(workload: Workload, records: list[RunRecord]) -> dict:
    timed = [r for r in records if r.ok and not r.traced]
    walls = [r.wall_s for r in timed]
    return {
        "wall_s": {"value": median(walls), "unit": "s"},
        "work_per_s": {"value": median([workload.work / w for w in walls]), "unit": "1/s"},
        "setup_s": {"value": median([r.setup_s for r in timed]), "unit": "s"},
        "peak_rss_mb": {"value": median([r.peak_rss_mb for r in timed]), "unit": "MB"},
        "ok_frac": {"value": sum(r.ok for r in records) / len(records), "unit": "frac"},
    }


def per_layer(records: list[RunRecord]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics (medians of times, exact counts), count mismatches, extras."""
    traced = [r for r in records if r.ok and r.traced]
    untraced = [r for r in records if r.ok and not r.traced]
    names = traced[0].layers["metrics"]
    metrics, problems = {}, []
    for name, (_, unit) in names.items():
        values = [r.layers["metrics"][name][0] for r in traced]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced runs: {values}")
            value = values[0]
        else:
            value = median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = median([r.wall_s for r in traced])
    metrics["trace.overhead_s"] = {"value": traced_wall - median([r.wall_s for r in untraced]), "unit": "s"}
    extras = {
        "traced_wall_s": traced_wall,
        "unwrapped": traced[0].layers["unwrapped"],
        "shares": {
            layer: median([r.layers["shares"][layer] for r in traced])
            for layer in traced[0].layers["shares"]
        },
        "spectral_ms_per_pair_by_period": {
            period: median([r.layers["spectral_ms_per_pair_by_period"][period] for r in traced])
            for period in traced[0].layers["spectral_ms_per_pair_by_period"]
        },
    }
    return metrics, problems, extras


def design_and_reference(name: str, metrics: dict, extras: dict) -> tuple[list, list]:
    def lookup(key):
        if key.startswith("share."):
            return extras["shares"][key[len("share."):]]
        if "@period=" in key:
            period = key.partition("@period=")[2]
            return extras["spectral_ms_per_pair_by_period"].get(period)
        return metrics[key]["value"]

    design = []
    for key, bound, sense in DESIGN.get(name, []):
        value = lookup(key)
        holds = value >= bound if sense == ">=" else value == bound
        design.append({"check": f"{key} {sense} {bound}", "value": value, "holds": holds})
    reference = []
    for key, expected in REFERENCES.get(name, {}).items():
        value = lookup(key)
        reference.append({
            "metric": key, "measured": value, "reference": expected,
            "gap": None if value is None else value / expected - 1.0,
        })
    return design, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    end_by = time.monotonic() + RUNS_END_BY_S

    if not (SRC / "eulergibbs" / "cli.py").is_file():
        print(f"no eulergibbs sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    # compile the package once so every timed run starts from cached bytecode
    warm = subprocess.run(
        [sys.executable, "-c", "import eulergibbs.cli"], env=child_env(),
        capture_output=True, text=True, timeout=end_by - time.monotonic(), check=False,
    )
    if warm.returncode != 0:
        print(f"cannot import eulergibbs.cli from {SRC}:\n{warm.stderr}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + args.seconds
    records: list[RunRecord] = []
    while True:
        traced = args.trace == 1 and len(records) % 2 == 1
        launched = time.monotonic()
        records.append(run_once(
            args.workload, workload, args.seed, len(records), traced, work_dir,
            timeout=end_by - launched,
        ))
        now = time.monotonic()
        done = {flag: sum(1 for r in records if r.ok and r.traced == flag) for flag in (False, True)}
        enough = done[False] >= 3 if args.trace == 0 else min(done.values()) >= 2
        # stop when the next run would end past the deadline
        if now + (now - launched) > deadline and enough:
            break
        if now + (now - launched) > end_by:
            break  # the next run could not finish in time
        if len(records) >= 2 and not any(r.ok for r in records):
            break  # nothing works; do not spend the budget on it

    # a run whose hash differs from the majority of the set failed
    counts = Counter(r.determinism_hash for r in records if r.determinism_hash)
    common, count = counts.most_common(1)[0] if counts else (None, 0)
    reference = common if count > sum(counts.values()) / 2 else None
    for r in records:
        if r.determinism_hash and r.determinism_hash != reference:
            r.ok = False
            r.problems.append(f"determinism hash {r.determinism_hash} differs from the other runs")
    failed = [r for r in records if not r.ok]
    hashes = sorted(counts)
    problems = [f"run {r.index}: {p}" for r in failed for p in r.problems]
    correct = not failed
    ok_untraced = [r for r in records if r.ok and not r.traced]
    ok_traced = [r for r in records if r.ok and r.traced]

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": cli_seed(args.workload, args.seed),
        "cli_args": workload.cli_args(cli_seed(args.workload, args.seed), Path("OUT")),
        "seconds": args.seconds,
        "trace": args.trace,
        "determinism_hash": hashes[0] if len(hashes) == 1 else hashes,
        "machine": {**machine_info(), **next((r.versions for r in records if r.versions), {})},
        "runs": [
            {
                "index": r.index, "traced": r.traced, "ok": r.ok, "problems": r.problems,
                "wall_s": r.wall_s, "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb,
            }
            for r in records
        ],
    }
    metrics: dict = {}
    if args.trace == 0 and len(ok_untraced) >= 1:
        metrics = end_to_end(workload, records)
        results["wall_s_samples"] = len(ok_untraced)
    elif args.trace == 1 and ok_traced and ok_untraced:
        metrics, count_problems, extras = per_layer(records)
        problems += count_problems
        correct = correct and not count_problems
        results.update(extras)
        results["design_checks"], results["reference_check"] = design_and_reference(
            args.workload, metrics, extras
        )
    else:
        correct = False
    results["problems"] = problems
    results["metrics"] = metrics
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    if correct:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(records)} runs, {len(failed)} failed, "
          f"hash {results['determinism_hash']}")
    print(f"fail_frac {len(failed) / len(records):.4g} frac ({len(failed)} of {len(records)})")
    if args.trace == 0:
        print(f"work per run: {workload.work} {workload.work_unit}s; wall_s median of {len(ok_untraced)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"results: {results_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
