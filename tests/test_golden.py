"""Golden determinism hashes and payload values: every subcommand at a small
config reproduces the payload bytes recorded in golden_hashes.json, and the
manifest measurements recorded in golden_values.json.

A refactor that claims bitwise-identical output leaves every hash here
unchanged, and a numeric move of even one ulp shows up as a fixture diff.
The pooled cases run at one and two threads against the same recorded hash.
The values say how far a declared numeric change moved the numbers: the
measurements that sit at the solver tolerance (conservation drift, round-trip
error) may move by ABS_BOUND, every other float by REL_BOUND of its value,
and counts and member lists not at all.

    PYTHONPATH=src python tests/test_golden.py

records the cases missing from either fixture and never overwrites one: if
a recorded hash differs or a recorded value moved beyond its bound, it exits
1 and names the case. When a change moves numbers on purpose, delete the
entries of the cases that moved from both fixtures, run the script to record
them again, and list those cases in CHANGES.md.
"""

import functools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from eulergibbs.cli import EXIT_PASS, EXIT_VERDICT, main

GOLDEN = Path(__file__).with_name("golden_hashes.json")
VALUES = Path(__file__).with_name("golden_values.json")
SEED = 1

# measurements at the level of the implicit-midpoint tolerance (1e-12 per step
# by default), which a change of the fixed-point solve moves by whole factors
TOLERANCE_LEVEL = frozenset(
    {
        "energy_drift",
        "enstrophy_drift",
        "energy_drift_max",
        "enstrophy_drift_max",
        "round_trip_error",
    }
)
ABS_BOUND = 1e-10
REL_BOUND = 1e-8

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


@functools.cache
def run_case(name: str, threads: int) -> tuple[str, dict]:
    """The determinism hash and manifest measurements of one case, run once."""
    with tempfile.TemporaryDirectory() as out:
        argv = [*CASES[name][0], "--seed", str(SEED), "--threads", str(threads), "--out", out]
        code = main(argv)
        assert code in (EXIT_PASS, EXIT_VERDICT), f"{name} exited {code}"
        manifest = json.loads((Path(out) / "manifest.json").read_text())
    return manifest["determinism_hash"], manifest["measurements"]


def moved_values(recorded: dict, measured: dict) -> list[str]:
    """Each measurement beyond its bound, as 'key: recorded -> measured'."""

    def within(key: str, old, new) -> bool:
        if isinstance(old, list):
            return (
                isinstance(new, list)
                and len(new) == len(old)
                and all(within(key, a, b) for a, b in zip(old, new))
            )
        if isinstance(old, float) and isinstance(new, float):
            bound = ABS_BOUND if key in TOLERANCE_LEVEL else REL_BOUND * abs(old)
            return abs(new - old) <= bound
        return new == old

    keys = sorted(set(recorded) | set(measured))
    return [
        f"{key}: {recorded.get(key)!r} -> {measured.get(key)!r}"
        for key in keys
        if not within(key, recorded.get(key), measured.get(key))
    ]


@pytest.mark.parametrize(
    "name,threads",
    [(name, threads) for name, (_, counts) in CASES.items() for threads in counts],
)
def test_determinism_hash_is_golden(name, threads):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, threads)[0] == expected


@pytest.mark.parametrize("name", list(CASES))
def test_measurements_are_golden(name):
    expected = json.loads(VALUES.read_text())[name]
    assert moved_values(expected, run_case(name, 1)[1]) == []


def test_within_bound_and_beyond():
    recorded = {"energy_drift": 1e-13, "marginal_pass_rate": 0.5, "surviving": 98,
                "failed_members": [70, 98], "median_ratios": [2.0, None]}
    assert moved_values(recorded, dict(recorded, energy_drift=9e-11)) == []
    assert moved_values(recorded, dict(recorded, marginal_pass_rate=0.5 * (1 + 1e-9))) == []
    for key, value in (
        ("energy_drift", 2e-10),
        ("marginal_pass_rate", 0.5 * (1 + 1e-7)),
        ("surviving", 97),
        ("failed_members", [70]),
        ("median_ratios", [2.0, 1.0]),
    ):
        assert moved_values(recorded, dict(recorded, **{key: value})) == [
            f"{key}: {recorded[key]!r} -> {value!r}"
        ]
    assert moved_values(recorded, {k: v for k, v in recorded.items() if k != "surviving"}) == [
        "surviving: 98 -> None"
    ]


def test_fixture_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)
    assert set(json.loads(VALUES.read_text())) == set(CASES)


if __name__ == "__main__":
    fixtures = [
        (path, json.loads(path.read_text()) if path.exists() else {}) for path in (GOLDEN, VALUES)
    ]
    (_, hashes), (_, values) = fixtures
    moved = []
    for name in CASES:
        digest, measured = run_case(name, 1)
        if name in hashes and hashes[name] != digest:
            moved.append(f"{name} (hash)")
        changes = moved_values(values[name], measured) if name in values else []
        if changes:
            moved.append(f"{name} ({'; '.join(changes)})")
        hashes.setdefault(name, digest)
        values.setdefault(name, measured)
    if moved:
        sys.exit("recorded entries differ, fixtures left as they are:\n" + "\n".join(moved))
    for path, recorded in fixtures:
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(GOLDEN.read_text())
