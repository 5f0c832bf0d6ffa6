"""End-to-end tests of the command-line front end: config grammar, exit
codes, output files, manifests, and byte-level reproducibility."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eulergibbs import cli
from eulergibbs.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_VERDICT,
    CommandResult,
    ConfigError,
    _json_bytes,
    _jsonable,
    _jsonl_bytes,
    _read_config_file,
    _write_outputs,
    main,
    resolve_config,
)
from eulergibbs.flow import IntegrationError
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

    def test_cutoff_ladder_and_deltas_must_be_ordered_and_distinct(self):
        for item in ("cutoffs=6,6", "cutoffs=4,8,6", "cutoffs=8,6"):
            with pytest.raises(ConfigError, match="'cutoffs'.*strictly increase"):
                resolve_config("moments", None, [item])
        for item in ("deltas=0.1,0.1", "deltas=0.1,0.01,0.10", "deltas=0,0.1,-0"):
            with pytest.raises(ConfigError, match="'deltas'.*pairwise distinct"):
                resolve_config("continuity", None, [item])
        assert resolve_config("moments", None, ["cutoffs=2,3,8"])["cutoffs"] == (2, 3, 8)
        deltas = resolve_config("continuity", None, ["deltas=0.01,0.1,0"])["deltas"]
        assert deltas == (0.01, 0.1, 0.0)

    def test_importing_the_cli_leaves_scipy_sparse_unloaded(self):
        # the triad table imports scipy.sparse on first use; at import time it
        # would add its load to every run's startup, drift or not
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, eulergibbs.cli; print('scipy.sparse' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "False"

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
            # more than 2^53 steps: a step list of this horizon would not fit in memory
            pytest.param(
                ["evolve", "--set", "dt=1e-12", "--set", "t_final=1e6"],
                True,
                id="evolve-more-than-2^53-steps",
            ),
            # identical rungs or deltas would pass their verdicts by construction
            pytest.param(
                ["moments", "--set", "cutoffs=6,6", "--set", "ensemble=50"],
                False,
                id="moments-identical-rungs",
            ),
            pytest.param(
                [
                    "continuity",
                    "--set", "deltas=0.1,0.1",
                    "--set", "ensemble=8",
                    "--set", "dt=0.05",
                    "--set", "t_final=0.1",
                ],
                False,
                id="continuity-repeated-delta",
            ),
            # a repeated level ties itself, and one level cannot strictly decrease
            pytest.param(
                ["cauchy", "--set", "levels=2,2", "--set", "ensemble=4"],
                False,
                id="cauchy-repeated-level",
            ),
            pytest.param(
                ["cauchy", "--set", "levels=3", "--set", "ensemble=4"],
                True,
                id="cauchy-one-level",
            ),
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

    def test_describe_config_needs_no_seed_or_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["moments", "--describe-config"]) == EXIT_PASS
        assert "betas" in capsys.readouterr().out
        assert main(["evolve", "--set", "dt=0.1", "--describe-config"]) == EXIT_PASS
        assert "t_final" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["moments", "--out", "unused"], "--seed"),
            (["moments", "--seed", "1"], "--out"),
            (["moments"], "--seed, --out"),
        ],
    )
    def test_run_without_seed_or_out_is_a_usage_error(
        self, argv, missing, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"the following arguments are required: {missing}" in err
        assert list(tmp_path.iterdir()) == []


class TestJsonOutput:
    ROWS = [
        {"x": [float("nan"), float("inf"), -float("inf"), 1.5, -0.0]},
        {"a": np.float64(0.1), "b": np.int64(3), "c": np.float32(0.25), "d": np.float64("nan")},
        {"t": (1, (2.5, "s"), ()), "n": None, "ok": True, "big": 10**30},
        {10: "ten", 9: "nine"},
        {"outer": {True: 1, None: 2, 1.5: 3}},
        {"rows": [[1, 2, 0.5, np.int64(7)], [3, {2: "x", 10: "y"}]]},
        SpectralField(2.5, (2, 3), np.linspace(-1, 1, mode_count((2, 3))) * (1 - 2j)).to_record(),
    ]

    def test_bytes_match_the_jsonable_walk(self):
        for row in self.ROWS:
            walked = json.dumps(_jsonable(row), sort_keys=True)
            assert _jsonl_bytes(row) == (walked + "\n").encode()
            indented = json.dumps(_jsonable(row), indent=2, sort_keys=True)
            assert _json_bytes(row) == (indented + "\n").encode()
        assert b"null" in _jsonl_bytes(self.ROWS[0])
        assert _jsonl_bytes(self.ROWS[3]) == b'{"10": "ten", "9": "nine"}\n'

    def test_a_built_record_skips_the_key_walk_for_the_same_bytes(self):
        for row in (self.ROWS[0], self.ROWS[1], self.ROWS[2], self.ROWS[6]):
            assert _jsonl_bytes(row, built=True) == _jsonl_bytes(row)


class TestStreamingWriter:
    PAYLOAD = b"".join(f'{{"index": {i}}}\n'.encode() for i in range(5))

    def test_chunks_write_what_one_bytes_object_writes(self, tmp_path):
        whole = {"z.jsonl": self.PAYLOAD, "a.csv": b"x,y\n1,2\n"}
        pieces = self.PAYLOAD.splitlines(keepends=True)
        chunked = {
            "z.jsonl": (piece for piece in pieces),
            "a.csv": [b"x,y\n", b"", b"1,2\n"],
        }
        (tmp_path / "whole").mkdir()
        (tmp_path / "chunked").mkdir()
        entries, digest = _write_outputs(tmp_path / "whole", whole)
        assert _write_outputs(tmp_path / "chunked", chunked) == (entries, digest)
        for name, payload in whole.items():
            assert (tmp_path / "whole" / name).read_bytes() == payload
            assert (tmp_path / "chunked" / name).read_bytes() == payload
        assert entries == [
            {
                "file": name,
                "sha256": hashlib.sha256(whole[name]).hexdigest(),
                "bytes": len(whole[name]),
            }
            for name in sorted(whole)
        ]
        expected = hashlib.sha256()
        for name in sorted(whole):
            expected.update(name.encode() + b"\n" + whole[name])
        assert digest == expected.hexdigest()

    @pytest.mark.parametrize(
        "error, code",
        [
            (ValueError("stream broke"), EXIT_CONFIG),
            (IntegrationError("stream broke", step=3, members=[0]), EXIT_NUMERIC),
        ],
        ids=["value-error", "integration-error"],
    )
    def test_a_stream_that_raises_leaves_only_a_failure_manifest(
        self, tmp_path, monkeypatch, capsys, error, code
    ):
        def records():
            yield b'{"index": 0}\n'
            raise error

        def command(config, rng, threads):
            # a.csv is written whole before the failing stream starts
            return CommandResult(outputs={"b.jsonl": records(), "a.csv": b"x\n1\n"})

        monkeypatch.setitem(cli.COMMANDS, "sample", command)
        out = tmp_path / "out"
        assert main(["sample", "--seed", "1", "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert manifest["error"] == "stream broke"
        assert manifest["passed"] is False
        assert manifest["outputs"] == []
        assert manifest["determinism_hash"] == hashlib.sha256().hexdigest()


    @pytest.mark.parametrize("streamed", [False, True], ids=["command", "stream"])
    def test_running_out_of_memory_is_a_config_error(self, tmp_path, monkeypatch, capsys, streamed):
        # a cutoff whose arrays do not fit raises MemoryError inside the library
        def records():
            yield b'{"index": 0}\n'
            raise MemoryError()

        def command(config, rng, threads):
            if not streamed:
                raise MemoryError()
            return CommandResult(outputs={"b.jsonl": records()})

        monkeypatch.setitem(cli.COMMANDS, "sample", command)
        out = tmp_path / "out"
        assert main(["sample", "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "out of memory" in err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert manifest["error"] == "out of memory: MemoryError"
        assert manifest["passed"] is False
        assert manifest["outputs"] == []


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

    @staticmethod
    def _field_file(tmp_path: Path) -> Path:
        field_file = tmp_path / "initial.json"
        f = SpectralField.from_modes(5.0, (3, 3), {(1, 1): 0.3 + 0.1j, (2, -1): 0.2})
        field_file.write_text(json.dumps(f.to_record()))
        return field_file

    @pytest.mark.parametrize(
        "settings",
        [
            ["cutoff=8,8", "period=3"],
            ["cutoff=8,8"],
            ["period=3"],
            ["cutoff=4,4"],
            ["period=6.283185307179586"],
        ],
        ids=["both", "cutoff", "period", "cutoff-at-default", "period-at-default"],
    )
    def test_explicit_lattice_must_match_the_field_file(self, tmp_path, capsys, settings):
        # a lattice set explicitly, even to its default value, that the file
        # does not have would be recorded in the manifest but not used
        field_file = self._field_file(tmp_path)
        out = tmp_path / "out"
        overrides = [item for setting in settings for item in ("--set", setting)]
        argv = ["evolve", "--seed", "1", "--out", str(out), "--set", f"initial={field_file}"]
        assert main([*argv, *overrides, "--set", "t_final=0.01"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "disagrees" in err
        assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert "disagrees" in manifest["error"]
        assert manifest["passed"] is False

    def test_manifest_records_the_field_file_lattice(self, tmp_path):
        field_file = self._field_file(tmp_path)
        config = tmp_path / "evolve.cfg"
        config.write_text(f"initial = {field_file}\ncutoff = 3,3\n")
        for argv in (["--config", str(config)], ["--set", f"initial={field_file}"]):
            out = tmp_path / "out"
            argv = ["evolve", "--seed", "1", "--out", str(out), *argv, "--set", "t_final=0.01"]
            assert main(argv) == EXIT_PASS
            manifest = read_json(out / "manifest.json")
            assert manifest["config"]["cutoff"] == [3, 3]
            assert manifest["config"]["period"] == 5.0
            first = json.loads((out / "trajectory.jsonl").read_text().splitlines()[0])
            assert first["field"]["cutoff"] == [3, 3]
            assert first["field"]["period"] == 5.0

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


class TestEvolveMemory:
    @staticmethod
    def peak(out: Path, steps: int) -> int:
        argv = [
            "evolve", "--seed", "3", "--out", str(out), "--set", "cutoff=4,4",
            "--set", "dt=0.001", "--set", f"t_final={steps * 0.001!r}",
            "--set", "snapshot_stride=1",
        ]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_PASS
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_snapshots_cost_little_more_than_their_coefficients(self, tmp_path, capsys):
        # the first run warms the triad table and mode caches; then 150 more
        # snapshots may add at most 3x their coefficient bytes to the peak
        # (measured: about 1.6x; holding the whole file as text took about 22x)
        steps = 50
        self.peak(tmp_path / "warm", steps)
        base = self.peak(tmp_path / "short", steps)
        longer = self.peak(tmp_path / "long", 4 * steps)
        added = 3 * steps * mode_count((4, 4)) * np.dtype(np.complex128).itemsize
        assert longer - base <= 3 * added

    def test_snapshots_are_held_as_coefficient_rows(self, tmp_path, capsys):
        # evolve keeps one array of snapshot rows and builds each field only to
        # write it (measured: about 0.9x; one SpectralField per snapshot took 1.6x)
        steps = 50
        self.peak(tmp_path / "warm", steps)
        base = self.peak(tmp_path / "short", steps)
        longer = self.peak(tmp_path / "long", 4 * steps)
        added = 3 * steps * mode_count((4, 4)) * np.dtype(np.complex128).itemsize
        assert longer - base <= 1.3 * added


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
        assert report["schema"] == "report.invariance.v2"
        assert len(report["observables"]) == len(read_csv_rows(out / "summary.csv"))

    def test_invariance_with_no_survivor_exits_numeric(self, tmp_path, capsys):
        # failure_tol = 1 tolerates every failure, but no member is left to compare
        out = tmp_path / "out"
        code = main(
            [
                "invariance", "--seed", "1", "--out", str(out),
                "--set", "ensemble=100",
                "--set", "scheme=implicit_midpoint",
                "--set", "max_fixed_point_iters=1",
                "--set", "dt=0.01",
                "--set", "t_final=0.02",
                "--set", "failure_tol=1",
            ]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: 100 of 100 members failed to integrate" in err
        assert "Traceback" not in err
        manifest = read_json(out / "manifest.json")
        assert "failed first" in manifest["error"]
        assert "at step 0" in manifest["error"]
        assert manifest["passed"] is False
        assert manifest["outputs"] == []
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    def test_continuity_with_no_survivor_exits_numeric(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "continuity", "--seed", "1", "--out", str(out),
                "--set", "ensemble=8",
                "--set", "scheme=implicit_midpoint",
                "--set", "max_fixed_point_iters=1",
                "--set", "dt=0.01",
                "--set", "t_final=0.02",
            ]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: all 8 members failed to integrate" in err
        assert "Traceback" not in err
        manifest = read_json(out / "manifest.json")
        assert "failed first" in manifest["error"]
        assert "at step 0" in manifest["error"]
        assert manifest["passed"] is False
        assert manifest["outputs"] == []
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

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


# keys a subcommand reads itself or passes under another name; every other key
# reaches the library through cli._from_config, by the parameter of its name
CONSUMED_KEYS = {
    "sample": set(),
    "evolve": {"initial", "sample_index", "round_trip", "round_trip_tol"},
    "invariance": {"ensemble"},
    "moments": {"ensemble", "betas", "cutoffs"},
    "cauchy": {"ensemble", "levels"},
    "continuity": {"ensemble"},
}


class TestConfigPlumbing:
    @pytest.mark.parametrize("subcommand", sorted(SMALL_CONFIGS))
    def test_every_key_is_a_parameter_or_consumed(self, tmp_path, monkeypatch, subcommand):
        # a schema key that nothing reads fails here
        from_config, parameters = cli._from_config, set()

        def spy(target, config, **explicit):
            parameters.update(inspect.signature(target).parameters)
            # a key passed by hand under its own name belongs to _from_config
            assert not [key for key, value in explicit.items() if config.get(key) is value]
            return from_config(target, config, **explicit)

        monkeypatch.setattr(cli, "_from_config", spy)
        argv = [subcommand, "--seed", "1", "--out", str(tmp_path), *SMALL_CONFIGS[subcommand]]
        assert main(argv) in (EXIT_PASS, EXIT_VERDICT)
        schema = set(cli.CONFIG_SCHEMAS[subcommand])
        assert CONSUMED_KEYS[subcommand] <= schema
        assert schema - parameters <= CONSUMED_KEYS[subcommand]


class TestEdgeFailures:
    def test_an_output_that_cannot_be_written_leaves_a_failure_manifest(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        argv = ["cauchy", "--seed", "1", "--out", str(out), *SMALL_CONFIGS["cauchy"]]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        # report.json, written before summary.csv failed, is removed again
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "summary.csv"]
        manifest = read_json(out / "manifest.json")
        assert "summary.csv" in manifest["error"]
        assert manifest["passed"] is False
        assert manifest["outputs"] == []

    def test_a_manifest_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        argv = ["cauchy", "--seed", "1", "--out", str(out), *SMALL_CONFIGS["cauchy"]]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64) + 1])
    def test_a_seed_outside_the_generator_range_is_a_config_error(
        self, tmp_path, capsys, seed
    ):
        # RngStream rejects these seeds too; the CLI checks first, so its message names the flag
        out = tmp_path / "out"
        argv = ["sample", "--seed", str(seed), "--out", str(out), "--set", "count=2"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == seed
        assert manifest["passed"] is False
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_the_ends_of_the_seed_range_run(self, tmp_path, seed):
        argv = ["sample", "--seed", str(seed), "--out", str(tmp_path), "--set", "count=2"]
        assert main(argv) == EXIT_PASS

    @pytest.mark.parametrize("item", ["betas=-0.5,-0.5", "exponents=1,2,1.0"])
    def test_repeated_betas_or_exponents_are_a_config_error(self, tmp_path, capsys, item):
        # a repeated value would pass its stability verdict by construction
        key = item.split("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'.*pairwise distinct"):
            resolve_config("moments", None, [item])
        out = tmp_path / "out"
        argv = [
            "moments", "--seed", "1", "--out", str(out),
            "--set", "cutoffs=4,6,8", "--set", "ensemble=50", "--set", "expect=stable",
            "--set", item,
        ]
        assert main(argv) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
