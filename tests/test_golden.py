"""Golden determinism hashes: every subcommand at a small config reproduces the
payload bytes recorded in golden_hashes.json.

A refactor that claims bitwise-identical output leaves every hash here
unchanged, and a numeric move of even one ulp shows up as a fixture diff.
The pooled cases run at one and two threads against the same recorded hash.

    PYTHONPATH=src python tests/test_golden.py

records the cases missing from the fixture and never overwrites one: if a
recorded hash differs, it exits 1 and names the case. When a change moves
numbers on purpose, delete the entries of the cases that moved, run the
script to record them again, and list those cases in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from eulergibbs.cli import EXIT_PASS, EXIT_VERDICT, main

GOLDEN = Path(__file__).with_name("golden_hashes.json")
SEED = 1

# name -> (subcommand argv, thread counts that must all give the recorded hash)
CASES = {
    "sample": (["sample", "--set", "count=20"], (1,)),
    "evolve-rk4": (["evolve", "--set", "dt=0.01", "--set", "t_final=0.05"], (1,)),
    "evolve-midpoint-round-trip": (
        [
            "evolve",
            "--set", "scheme=implicit_midpoint",
            "--set", "snapshot_stride=1",
            "--set", "round_trip=true",
            "--set", "dt=0.01",
            "--set", "t_final=0.1",
        ],
        (1,),
    ),
    "invariance": (
        ["invariance", "--set", "ensemble=100", "--set", "dt=0.01", "--set", "t_final=0.05"],
        (1, 2),
    ),
    "invariance-midpoint-pseudo": (
        [
            "invariance",
            "--set", "ensemble=100",
            "--set", "scheme=implicit_midpoint",
            "--set", "drift_method=pseudo_spectral",
            "--set", "dt=0.01",
            "--set", "t_final=0.03",
        ],
        (1, 2),
    ),
    # at (8, 8) a triad chunk holds 5 rows, so each drift call crosses chunk boundaries
    "invariance-8x8-rk4": (
        [
            "invariance",
            "--set", "cutoff=8,8",
            "--set", "ensemble=100",
            "--set", "scheme=rk4",
            "--set", "t_final=0.02",
        ],
        (1, 2),
    ),
    "evolve-pseudo": (
        [
            "evolve",
            "--set", "drift_method=pseudo_spectral",
            "--set", "dt=0.01",
            "--set", "t_final=0.05",
        ],
        (1, 2),
    ),
    # a non-square box on an odd collocation grid
    "invariance-5x3-pseudo-grid21": (
        [
            "invariance",
            "--set", "cutoff=5,3",
            "--set", "drift_method=pseudo_spectral",
            "--set", "grid=21",
            "--set", "ensemble=100",
            "--set", "dt=0.01",
            "--set", "t_final=0.02",
        ],
        (1, 2),
    ),
    # backwards, with a remainder step and a stride that does not divide the 8 steps
    "evolve-backward-stride3": (
        [
            "evolve",
            "--set", "snapshot_stride=3",
            "--set", "dt=0.01",
            "--set", "t_final=-0.075",
        ],
        (1,),
    ),
    "evolve-zero-horizon": (["evolve", "--set", "t_final=0"], (1,)),
    # the one-row implicit-midpoint triad march at (8, 8), every step written, round trip
    "evolve-8x8-midpoint-triad-every-step": (
        [
            "evolve",
            "--set", "cutoff=8,8",
            "--set", "scheme=implicit_midpoint",
            "--set", "drift_method=triad_sum",
            "--set", "dt=0.001",
            "--set", "t_final=0.05",
            "--set", "snapshot_stride=1",
            "--set", "round_trip=true",
        ],
        (1,),
    ),
    # 2 of the 100 members stall in the fixed-point solve, within failure_tol
    "invariance-partial-failure": (
        [
            "invariance",
            "--set", "cutoff=3,3",
            "--set", "ensemble=100",
            "--set", "scheme=implicit_midpoint",
            "--set", "dt=0.1",
            "--set", "t_final=0.5",
            "--set", "max_fixed_point_iters=12",
            "--set", "failure_tol=0.05",
        ],
        (1, 2),
    ),
    "moments": (["moments", "--set", "cutoffs=4,6", "--set", "ensemble=20"], (1, 2)),
    "moments-triad": (
        [
            "moments",
            "--set", "cutoffs=4,6",
            "--set", "ensemble=20",
            "--set", "drift_method=triad_sum",
        ],
        (1,),
    ),
    "cauchy": (["cauchy", "--set", "levels=2,3", "--set", "ensemble=8"], (1, 2)),
    "continuity": (
        ["continuity", "--set", "ensemble=8", "--set", "dt=0.05", "--set", "t_final=0.1"],
        (1, 2),
    ),
    # every subcommand at its default config, the runs of the hash table in CHANGES.md
    "default-sample": (["sample"], (1,)),
    "default-evolve": (["evolve"], (1,)),
    "default-evolve-midpoint-round-trip": (
        [
            "evolve",
            "--set", "scheme=implicit_midpoint",
            "--set", "snapshot_stride=1",
            "--set", "round_trip=true",
        ],
        (1,),
    ),
    "default-invariance": (["invariance"], (1,)),
    "default-moments": (["moments"], (1,)),
    "default-moments-triad": (["moments", "--set", "drift_method=triad_sum"], (1,)),
    "default-cauchy": (["cauchy"], (1,)),
    "default-continuity": (["continuity"], (1,)),
}


def determinism_hash(argv: list[str], threads: int, out: Path) -> str:
    code = main([*argv, "--seed", str(SEED), "--threads", str(threads), "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_VERDICT), f"{argv} exited {code}"
    return json.loads((out / "manifest.json").read_text())["determinism_hash"]


@pytest.mark.parametrize(
    "name,threads",
    [(name, threads) for name, (_, counts) in CASES.items() for threads in counts],
)
def test_determinism_hash_is_golden(name, threads, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert determinism_hash(CASES[name][0], threads, tmp_path) == expected


def test_fixture_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    hashes, moved = dict(recorded), []
    for name, (argv, _) in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            value = determinism_hash(argv, 1, Path(out))
        if name not in recorded:
            hashes[name] = value
        elif recorded[name] != value:
            moved.append(name)
    if moved:
        sys.exit(f"recorded hashes differ, fixture left as it is: {', '.join(moved)}")
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(GOLDEN.read_text())
