"""End-to-end tests of the command-line front end: config grammar, exit
codes, output files, manifests, and byte-level reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from eulergibbs.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_VERDICT,
    ConfigError,
    _read_config_file,
    main,
    resolve_config,
)
from eulergibbs.gibbs import GibbsParams, variance_oracle
from eulergibbs.spectral import SpectralField, mode_count


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestConfigGrammar:
    def test_file_parsing(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# a comment line\n"
            "\n"
            "gamma = 2.0\n"
            "cutoff = 3,3   # inline comment\n"
            "count=7\n"
        )
        resolved = resolve_config("sample", str(config), [])
        assert resolved["gamma"] == 2.0
        assert resolved["cutoff"] == (3, 3)
        assert resolved["count"] == 7
        assert resolved["period"] == pytest.approx(2.0 * math.pi)

    def test_set_overrides_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = 2.0\n")
        resolved = resolve_config("sample", str(config), ["gamma=3.5"])
        assert resolved["gamma"] == 3.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            resolve_config("sample", None, ["gama=1.0"])

    def test_duplicate_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = 1.0\ngamma = 2.0\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            _read_config_file(str(config))

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma 1.0\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            _read_config_file(str(config))

    def test_typed_validation(self):
        with pytest.raises(ConfigError, match="gamma"):
            resolve_config("sample", None, ["gamma=-1"])
        with pytest.raises(ConfigError, match="cutoff"):
            resolve_config("sample", None, ["cutoff=4"])
        with pytest.raises(ConfigError, match="scheme"):
            resolve_config("evolve", None, ["scheme=euler"])
        with pytest.raises(ConfigError, match="round_trip"):
            resolve_config("evolve", None, ["round_trip=maybe"])
        assert resolve_config("evolve", None, ["grid=none"])["grid"] is None
        assert resolve_config("evolve", None, ["grid=16"])["grid"] == 16
        # no config key has a use for NaN or an infinity
        for subcommand, item in (
            ("moments", "betas=nan"),
            ("evolve", "t_final=nan"),
            ("evolve", "dt=inf"),
            ("sample", "period=inf"),
            ("continuity", "deltas=0.1,-inf"),
        ):
            with pytest.raises(ConfigError, match="not a finite number"):
                resolve_config(subcommand, None, [item])

    def test_exit_codes_for_config_errors(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sample", "--seed", "1", "--out", out, "--set", "bogus=1"]) == EXIT_CONFIG
        assert main(["sample", "--seed", "1", "--out", out, "--set", "gamma=0"]) == EXIT_CONFIG
        assert main(["sample", "--seed", "1", "--out", out, "--set", "nope"]) == EXIT_CONFIG
        assert (
            main(["sample", "--seed", "1", "--out", out, "--threads", "0"]) == EXIT_CONFIG
        )

    def test_cauchy_order_not_below_one_is_a_config_error(self, tmp_path, capsys):
        # the scan's local metric needs order < 1; the schema rejects the rest
        for order in ("1", "2", "nan"):
            out = tmp_path / f"out-{order}"
            code = main(["cauchy", "--seed", "1", "--out", str(out), "--set", f"order={order}"])
            assert code == EXIT_CONFIG
            assert "'order'" in capsys.readouterr().err
            assert not (out / "summary.csv").exists()
        assert resolve_config("cauchy", None, ["order=0.5"])["order"] == 0.5

    def test_moments_needs_two_cutoffs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["moments", "--seed", "1", "--out", str(out), "--set", "cutoffs=4"])
        assert code == EXIT_CONFIG
        assert "'cutoffs'" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert resolve_config("moments", None, ["cutoffs=4,6"])["cutoffs"] == (4, 6)

    @pytest.mark.parametrize(
        "argv, resolved",
        [
            pytest.param(["sample", "--set", "period=inf"], False, id="sample-period-inf"),
            pytest.param(["sample", "--threads", "0"], True, id="sample-threads-0"),
            pytest.param(
                ["evolve", "--set", "drift_method=pseudo_spectral", "--set", "grid=8"],
                True,
                id="evolve-grid-too-coarse",
            ),
            pytest.param(["evolve", "--set", "t_final=nan"], False, id="evolve-t_final-nan"),
            pytest.param(
                ["invariance", "--set", "drift_method=pseudo_spectral", "--set", "grid=8"],
                True,
                id="invariance-grid-too-coarse",
            ),
            pytest.param(["moments", "--set", "betas=nan"], False, id="moments-betas-nan"),
            pytest.param(["cauchy", "--set", "order=1"], False, id="cauchy-order-1"),
            pytest.param(["continuity", "--set", "bogus=1"], False, id="continuity-unknown-key"),
        ],
    )
    def test_config_failure_writes_a_manifest(self, tmp_path, capsys, argv, resolved):
        # schema errors and the library's own argument checks both exit 2
        out = tmp_path / "out"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert manifest["error"]
        assert manifest["passed"] is False
        assert manifest["outputs"] == []
        assert manifest["subcommand"] == argv[0]
        assert (manifest["config"] is not None) == resolved

    def test_unusable_out_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["sample", "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    def test_missing_required_flags_exit_nonzero(self):
        assert main(["sample"]) != EXIT_PASS

    def test_describe_config(self, capsys):
        assert main(["moments", "--describe-config", "--seed", "0", "--out", "x"]) == 0
        printed = capsys.readouterr().out
        assert "betas" in printed
        assert "cutoffs" in printed


class TestSampleCommand:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        argv = ["sample", "--seed", "11", "--set", "count=20", "--set", "cutoff=3,3"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_PASS
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_PASS
        for name in ("ensemble.jsonl", "per_mode_stats.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        first = read_json(tmp_path / "a" / "manifest.json")
        second = read_json(tmp_path / "b" / "manifest.json")
        assert first["determinism_hash"] == second["determinism_hash"]

    def test_ensemble_rows_are_valid_fields(self, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sample",
                    "--seed",
                    "2",
                    "--out",
                    str(out),
                    "--set",
                    "count=3",
                    "--set",
                    "cutoff=2,2",
                    "--set",
                    "gamma=2.0",
                ]
            )
            == EXIT_PASS
        )
        lines = (out / "ensemble.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for index, line in enumerate(lines):
            row = json.loads(line)
            assert row["index"] == index
            f = SpectralField.from_record(row["field"])
            assert f.cutoff == (2, 2)

    def test_variance_file_matches_oracle(self, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sample",
                    "--seed",
                    "20260822",
                    "--out",
                    str(out),
                    "--set",
                    "count=10000",
                    "--set",
                    "cutoff=4,4",
                ]
            )
            == EXIT_PASS
        )
        p = GibbsParams(1.0, 2.0 * math.pi, (4, 4))
        rows = read_csv_rows(out / "per_mode_stats.csv")
        assert len(rows) == mode_count((4, 4))
        for row in rows:
            k = (int(row["k1"]), int(row["k2"]))
            assert float(row["variance_oracle"]) == pytest.approx(
                variance_oracle(k, p), rel=1e-12
            )
            assert abs(float(row["rel_error"])) < 0.03
            assert float(row["fourth_moment_ratio"]) == pytest.approx(2.0, rel=0.15)

    def test_manifest_inventory(self, tmp_path):
        out = tmp_path / "out"
        main(["sample", "--seed", "5", "--out", str(out), "--set", "count=4"])
        manifest = read_json(out / "manifest.json")
        assert manifest["schema"] == "manifest.v1"
        assert manifest["subcommand"] == "sample"
        assert manifest["seed"] == 5
        assert manifest["config"]["count"] == 4
        assert manifest["generator"].startswith("philox4x64-10")
        assert manifest["verdicts"] == {}
        assert manifest["passed"] is True
        assert manifest["started"] <= manifest["finished"]
        import hashlib

        names = {entry["file"] for entry in manifest["outputs"]}
        assert names == {"ensemble.jsonl", "per_mode_stats.csv"}
        for entry in manifest["outputs"]:
            data = (out / entry["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert entry["bytes"] == len(data)


class TestEvolveCommand:
    @pytest.mark.parametrize(
        "slot, row",
        [
            (0, [0, 1, None, 0.0]),
            (1, [1, -1, 0.5]),
            (2, [1, 0, float("nan"), 0.0]),
            (3, [1, 1, 0.0, float("inf")]),
        ],
    )
    def test_malformed_initial_field_is_a_config_error(self, tmp_path, capsys, slot, row):
        record = SpectralField.zeros(2.0 * math.pi, (1, 1)).to_record()
        record["coeffs"][slot] = row
        field_file = tmp_path / "initial.json"
        field_file.write_text(json.dumps(record))
        out = tmp_path / "out"
        code = main(
            ["evolve", "--seed", "1", "--out", str(out), "--set", f"initial={field_file}"]
        )
        assert code == EXIT_CONFIG
        assert "bad field record" in capsys.readouterr().err
        assert not (out / "trajectory.jsonl").exists()

    def test_single_mode_input_is_steady(self, tmp_path):
        field_file = tmp_path / "initial.json"
        f = SpectralField.from_modes(
            2.0 * math.pi, (2, 2), {(1, 1): 0.3 + 0.1j}
        )
        field_file.write_text(json.dumps(f.to_record()))
        out = tmp_path / "out"
        code = main(
            [
                "evolve",
                "--seed",
                "1",
                "--out",
                str(out),
                "--set",
                f"initial={field_file}",
                "--set",
                "t_final=0.5",
                "--set",
                "dt=0.05",
                "--set",
                "snapshot_stride=2",
            ]
        )
        assert code == EXIT_PASS
        records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
        assert len(records) > 2
        assert records[0]["t"] == 0.0
        assert records[-1]["t"] == pytest.approx(0.5)
        for record in records:
            assert record["energy"] == pytest.approx(records[0]["energy"], rel=1e-12)
            final = SpectralField.from_record(record["field"])
            assert np.allclose(final.coeffs, f.coeffs, atol=1e-12)

    def test_round_trip_verdict(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "evolve",
                "--seed",
                "9",
                "--out",
                str(out),
                "--set",
                "cutoff=2,2",
                "--set",
                "t_final=0.2",
                "--set",
                "dt=0.01",
                "--set",
                "round_trip=true",
            ]
        )
        assert code == EXIT_PASS
        manifest = read_json(out / "manifest.json")
        assert manifest["verdicts"]["round_trip_return"] is True
        assert manifest["measurements"]["round_trip_error"] < 1e-6

    def test_integrator_failure_exits_numeric(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "evolve",
                "--seed",
                "1",
                "--out",
                str(out),
                "--set",
                "gamma=1e-8",
                "--set",
                "cutoff=2,2",
                "--set",
                "scheme=implicit_midpoint",
                "--set",
                "dt=0.5",
                "--set",
                "t_final=0.5",
                "--set",
                "max_fixed_point_iters=1",
                "--set",
                "fixed_point_tol=1e-16",
            ]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "Traceback" not in err
        manifest = read_json(out / "manifest.json")
        assert manifest["passed"] is False
        assert manifest["error"]
        assert manifest["outputs"] == []
        assert manifest["config"]["scheme"] == "implicit_midpoint"
        assert not (out / "trajectory.jsonl").exists()


class TestExperimentCommands:
    def test_invariance_null_run_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "invariance",
                "--seed",
                "20260822",
                "--out",
                str(out),
                "--set",
                "cutoff=2,2",
                "--set",
                "ensemble=150",
                "--set",
                "t_final=0",
            ]
        )
        assert code == EXIT_PASS
        manifest = read_json(out / "manifest.json")
        assert manifest["verdicts"]["null_p_uniformity"] is True
        assert manifest["verdicts"]["marginal_pass_rate"] is True
        report = read_json(out / "report.json")
        assert report["schema"] == "report.invariance.v1"
        assert len(report["observables"]) == len(read_csv_rows(out / "summary.csv"))

    def test_moments_negative_control_fails_with_signature(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "moments",
                "--seed",
                "3",
                "--out",
                str(out),
                "--set",
                "cutoffs=2,3,4",
                "--set",
                "betas=-0.9",
                "--set",
                "ensemble=60",
                "--set",
                "expect=stable",
            ]
        )
        assert code == EXIT_VERDICT
        report = read_json(out / "report.json")
        assert report["divergence_signature"] == ["beta=-0.9,q=1"]
        manifest = read_json(out / "manifest.json")
        assert manifest["passed"] is False

    def test_moments_expect_none_always_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "moments",
                "--seed",
                "3",
                "--out",
                str(out),
                "--set",
                "cutoffs=2,3",
                "--set",
                "betas=-0.9",
                "--set",
                "ensemble=20",
                "--set",
                "expect=none",
            ]
        )
        assert code == EXIT_PASS
        manifest = read_json(out / "manifest.json")
        assert manifest["verdicts"] == {}

    def test_cauchy_exit_matches_verdict(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "cauchy",
                "--seed",
                "6",
                "--out",
                str(out),
                "--set",
                "levels=1,2",
                "--set",
                "ensemble=8",
                "--set",
                "level_max=2",
                "--set",
                "points_per_unit=8",
            ]
        )
        manifest = read_json(out / "manifest.json")
        expected = EXIT_PASS if manifest["verdicts"]["strictly_decreasing"] else EXIT_VERDICT
        assert code == expected
        rows = read_csv_rows(out / "summary.csv")
        assert [int(r["level"]) for r in rows] == [1, 2]

    def test_continuity_small_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "continuity",
                "--seed",
                "7",
                "--out",
                str(out),
                "--set",
                "cutoff=2,2",
                "--set",
                "ensemble=6",
                "--set",
                "t_final=0.1",
                "--set",
                "dt=0.02",
                "--set",
                "level_max=2",
                "--set",
                "points_per_unit=8",
            ]
        )
        manifest = read_json(out / "manifest.json")
        assert code == (EXIT_PASS if manifest["verdicts"]["ratio_stabilizes"] else EXIT_VERDICT)
        rows = read_csv_rows(out / "summary.csv")
        assert len(rows) == 3
        assert all(float(r["input_distance"]) > 0.0 for r in rows)


SMALL_CONFIGS = {
    "sample": ["--set", "count=30", "--set", "cutoff=3,3"],
    "evolve": [
        "--set", "cutoff=2,2", "--set", "t_final=0.1",
        "--set", "dt=0.02", "--set", "snapshot_stride=2",
    ],
    "invariance": [
        "--set", "cutoff=2,2", "--set", "ensemble=100",
        "--set", "t_final=0.02", "--set", "dt=0.01",
    ],
    "moments": [
        "--set", "cutoffs=2,3", "--set", "betas=-1.5", "--set", "ensemble=12",
    ],
    "cauchy": [
        "--set", "levels=1,2", "--set", "ensemble=6",
        "--set", "level_max=2", "--set", "points_per_unit=8",
    ],
    "continuity": [
        "--set", "cutoff=2,2", "--set", "ensemble=4", "--set", "t_final=0.05",
        "--set", "dt=0.01", "--set", "level_max=2", "--set", "points_per_unit=8",
        "--set", "deltas=0.1,0.01",
    ],
}


class TestReproducibility:
    @pytest.mark.parametrize("subcommand", sorted(SMALL_CONFIGS))
    def test_same_seed_and_thread_variation_hash(self, tmp_path, subcommand):
        base = [subcommand, "--seed", "123"] + SMALL_CONFIGS[subcommand]
        runs = {
            "first": base + ["--out", str(tmp_path / "first"), "--threads", "1"],
            "again": base + ["--out", str(tmp_path / "again"), "--threads", "1"],
            "pooled": base + ["--out", str(tmp_path / "pooled"), "--threads", "3"],
        }
        codes = {name: main(argv) for name, argv in runs.items()}
        assert len(set(codes.values())) == 1
        hashes = {
            name: read_json(tmp_path / name / "manifest.json")["determinism_hash"]
            for name in runs
        }
        assert len(set(hashes.values())) == 1
