"""Command-line front end: validated configs, deterministic outputs, manifests.

Every subcommand reads a flat key=value config file ('#' starts a comment,
unknown or duplicate keys are hard errors), applies --set overrides, and
writes its outputs plus a manifest.json into --out. JSONL outputs are
encoded and written one record at a time, and one pass over each file feeds
the file, its sha256 and the determinism digest. The manifest records the
resolved config, the code version, the generator name, per-file sha256
digests, and a determinism hash over the payload bytes of every output file
(the manifest itself, which carries wall-clock timestamps, is excluded).
Nothing that affects numerics is read from the clock or the environment, so
a (config, seed) pair reproduces every payload byte for byte at any thread
count. The four report subcommands write the report's own dataclass fields
and verdicts; the CLI decides no verdict itself.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config error (a bad
key or value, --threads < 1, a --seed outside 0 .. 2^64 - 1, an unreadable
initial field or one whose lattice disagrees with an explicit period or
cutoff, an argument the library rejects, a run that does not fit in memory,
or an output file that cannot be written), 3 numeric failure inside the
integrator. Once --out is a usable directory every run writes manifest.json;
a failed run's manifest records the error, passed false and no outputs. If
manifest.json itself cannot be written, the run removes its outputs, prints
the error and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._meta import VERSION
from .drift import PSEUDO_SPECTRAL, TRIAD_SUM
from .flow import (
    SCHEMES,
    TRAJECTORY_SCHEMA,
    IntegrationError,
    IntegratorConfig,
    evolve,
)
from .gibbs import (
    ENSEMBLE_SCHEMA,
    GENERATOR_NAME,
    GibbsParams,
    RngStream,
    sample,
    sample_coeff_matrix,
    variance_oracle,
)
from .harness import (
    cauchy_scan,
    continuity_probe,
    default_observables,
    moment_scan,
    run_invariance,
)
from .spectral import FIELD_SCHEMA, TWO_PI, SpectralField, _field_record, mode_box, sobolev_norm

MANIFEST_SCHEMA = "manifest.v1"

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """A malformed, unknown, or out-of-range configuration value."""


# ---------------------------------------------------------------------------
# typed config schema


def _float_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def _number(
    minimum: float | None = None, exclusive: bool = False, below: float | None = None
) -> Callable[[str], float]:
    def convert(text: str) -> float:
        value = _float_value(text)
        if minimum is not None:
            if exclusive and not value > minimum:
                raise ConfigError(f"must be > {minimum}, got {value}")
            if not exclusive and not value >= minimum:
                raise ConfigError(f"must be >= {minimum}, got {value}")
        if below is not None and not value < below:
            raise ConfigError(f"must be < {below}, got {value}")
        return value

    return convert


def _integer(minimum: int | None = None) -> Callable[[str], int]:
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise ConfigError(f"not an integer: {text!r}") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value}")
        return value

    return convert


def _optional_integer(minimum: int) -> Callable[[str], int | None]:
    inner = _integer(minimum)

    def convert(text: str) -> int | None:
        if text.lower() in ("none", "auto"):
            return None
        return inner(text)

    return convert


def _choice(*options: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in options:
            raise ConfigError(f"must be one of {', '.join(options)}; got {text!r}")
        return text

    return convert


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _cutoff_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"cutoff must be two comma-separated integers, got {text!r}")
    values = tuple(_integer(1)(part.strip()) for part in parts)
    return (values[0], values[1])


def _list(
    inner: Callable[[str], object],
    min_items: int = 1,
    increasing: bool = False,
    distinct: bool = False,
) -> Callable[[str], tuple]:
    def convert(text: str) -> tuple:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if len(parts) < min_items:
            raise ConfigError(f"need at least {min_items} values, got {len(parts)}")
        values = tuple(inner(part) for part in parts)
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"values must strictly increase, got {text!r}")
        if distinct and len(set(values)) < len(values):
            raise ConfigError(f"values must be pairwise distinct, got {text!r}")
        return values

    return convert


@dataclass(frozen=True)
class Option:
    convert: Callable[[str], object]
    default: object
    help: str


_GIBBS_KEYS = {
    "gamma": Option(_number(0.0, exclusive=True), 1.0, "inverse temperature of the Gibbs law"),
    "period": Option(_number(0.0, exclusive=True), TWO_PI, "side length of the torus"),
    "cutoff": Option(_cutoff_pair, (4, 4), "mode box bounds N1,N2"),
}

_INTEGRATOR_KEYS = {
    "scheme": Option(_choice(*SCHEMES), "rk4", "time stepper"),
    "dt": Option(_number(0.0, exclusive=True), 1e-3, "step size"),
    "t_final": Option(_number(), 1.0, "integration horizon (sign sets direction)"),
    "drift_method": Option(
        _choice(TRIAD_SUM, PSEUDO_SPECTRAL), TRIAD_SUM, "right-hand-side backend"
    ),
    "grid": Option(_optional_integer(4), None, "pseudo-spectral grid size, or auto"),
    "fixed_point_tol": Option(
        _number(0.0, exclusive=True), 1e-12, "implicit solver tolerance"
    ),
    "max_fixed_point_iters": Option(_integer(1), 100, "implicit solver iteration cap"),
}

CONFIG_SCHEMAS: dict[str, dict[str, Option]] = {
    "sample": {
        **_GIBBS_KEYS,
        "count": Option(_integer(1), 100, "number of ensemble members"),
    },
    "evolve": {
        **_GIBBS_KEYS,
        **_INTEGRATOR_KEYS,
        "initial": Option(str, "gibbs", "field file path, or gibbs to sample one"),
        "sample_index": Option(_integer(0), 0, "sample index when initial = gibbs"),
        "snapshot_stride": Option(_integer(0), 0, "record every n-th step (0 = endpoints)"),
        "round_trip": Option(_boolean, False, "also integrate back and check the return"),
        "round_trip_tol": Option(
            _number(0.0, exclusive=True), 1e-6, "relative return tolerance"
        ),
    },
    "invariance": {
        **_GIBBS_KEYS,
        **_INTEGRATOR_KEYS,
        "t_final": replace(_INTEGRATOR_KEYS["t_final"], default=0.5),
        "ensemble": Option(_integer(100), 1000, "ensemble size"),
        "alpha": Option(_number(0.0, exclusive=True), 0.01, "per-test KS level"),
        "pass_fraction": Option(
            _number(0.0, exclusive=True), 0.95, "required marginal pass rate"
        ),
        "mean_se_factor": Option(
            _number(0.0, exclusive=True), 3.0, "allowed mean gap in standard errors"
        ),
        "failure_tol": Option(_number(0.0), 0.01, "tolerated integration failure fraction"),
    },
    "moments": {
        "gamma": _GIBBS_KEYS["gamma"],
        "period": _GIBBS_KEYS["period"],
        "cutoffs": Option(
            _list(_integer(1), min_items=2, increasing=True),
            (4, 6, 8, 10, 12),
            "strictly increasing square cutoff ladder N,N,... (at least two)",
        ),
        "betas": Option(
            _list(_number(), distinct=True), (-2.0, -1.5, -0.9), "Sobolev orders to scan"
        ),
        "exponents": Option(
            _list(_number(0.0, exclusive=True), distinct=True), (1.0,), "norm-square powers q"
        ),
        "ensemble": Option(_integer(2), 400, "samples per cutoff"),
        "stability_tol": Option(
            _number(0.0, exclusive=True), 0.05, "relative tail change for stability"
        ),
        "drift_method": Option(
            _choice(TRIAD_SUM, PSEUDO_SPECTRAL), PSEUDO_SPECTRAL, "drift backend"
        ),
        "expect": Option(
            _choice("auto", "stable", "divergent", "none"),
            "auto",
            "verdict expectation (auto: stable iff beta < -1)",
        ),
    },
    "cauchy": {
        "gamma": _GIBBS_KEYS["gamma"],
        "order": Option(_number(below=1.0), -1.5, "Sobolev order of the local metric (< 1)"),
        "levels": Option(
            _list(_integer(1), distinct=True), (2, 3, 4), "distinct dyadic levels n to compare"
        ),
        "ensemble": Option(_integer(2), 500, "coupled pairs per level"),
        "modes_per_unit": Option(_integer(1), 1, "resolved modes per unit length"),
        "level_max": Option(_integer(1), 4, "largest metric window"),
        "points_per_unit": Option(_integer(1), 64, "quadrature density"),
        "expect": Option(
            _choice("decreasing", "none"), "decreasing", "verdict expectation"
        ),
    },
    "continuity": {
        **_GIBBS_KEYS,
        **_INTEGRATOR_KEYS,
        "dt": replace(_INTEGRATOR_KEYS["dt"], default=1e-2),
        "t_final": replace(_INTEGRATOR_KEYS["t_final"], default=0.5),
        "deltas": Option(
            _list(_number(0.0), distinct=True), (0.1, 0.01, 0.001), "distinct perturbation sizes"
        ),
        "ensemble": Option(_integer(2), 200, "base points per delta"),
        "order": Option(_number(), -1.5, "Sobolev order of the local metric"),
        "level_max": Option(_integer(1), 4, "largest metric window"),
        "points_per_unit": Option(_integer(1), 64, "quadrature density"),
        "ratio_tol": Option(
            _number(0.0, exclusive=True), 0.25, "allowed ratio change between deltas"
        ),
    },
}


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


class ResolvedConfig(dict):
    """A fully typed config; explicit names the keys set in the file or by --set."""

    def __init__(self, values: dict, explicit: Iterable[str]):
        super().__init__(values)
        self.explicit = frozenset(explicit)


def resolve_config(
    subcommand: str, config_path: str | None, overrides: Sequence[str]
) -> ResolvedConfig:
    """Merge file values and --set overrides into a fully typed config dict."""
    schema = CONFIG_SCHEMAS[subcommand]
    raw = _read_config_file(config_path) if config_path else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    resolved = {key: option.default for key, option in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown key {key!r} for {subcommand} (known: {known})")
        try:
            resolved[key] = schema[key].convert(value)
        except ConfigError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return ResolvedConfig(resolved, raw)


# ---------------------------------------------------------------------------
# output helpers


def _jsonable(value):
    """Recursively convert to strict JSON types; non-finite floats become null."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _dumps(value, indent: int | None = None) -> str:
    """json.dumps of _jsonable(value). Payloads are trees built with str keys and
    no cycle, so only one holding a non-finite float or a numpy scalar other than
    float64 (strict json.dumps raises on either) takes the walk."""
    try:
        return json.dumps(
            value, indent=indent, sort_keys=True, allow_nan=False, check_circular=False
        )
    except (TypeError, ValueError):
        return json.dumps(_jsonable(value), indent=indent, sort_keys=True, check_circular=False)


def _json_bytes(payload: dict) -> bytes:
    return (_dumps(payload, indent=2) + "\n").encode()


def _jsonl_bytes(record: dict) -> bytes:
    """One JSONL line. JSONL payloads are generators of these, each encoded
    when the writer asks for it, so no more than one record is held as text."""
    return (_dumps(record) + "\n").encode()


def _csv_bytes(rows: Sequence[dict]) -> bytes:
    """A CSV whose header is the keys of the first row."""
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue().encode()


def _report_csv(rows: Sequence) -> bytes:
    """A report's summary CSV: one column per row field, a pair field split into name1, name2."""
    records = []
    for row in rows:
        record = {}
        for f in fields(row):
            value = getattr(row, f.name)
            if isinstance(value, tuple):
                record.update((f"{f.name}{i}", v) for i, v in enumerate(value, start=1))
            else:
                record[f.name] = value
        records.append(record)
    return _csv_bytes(records)


@dataclass
class CommandResult:
    # file name -> payload: bytes, or an iterable of byte chunks streamed in order
    outputs: dict[str, bytes | Iterable[bytes]]
    verdicts: dict[str, bool] = dataclass_field(default_factory=dict)
    schemas: dict[str, str] = dataclass_field(default_factory=dict)
    measurements: dict = dataclass_field(default_factory=dict)
    notes: list[str] = dataclass_field(default_factory=list)


def _report_result(report, rows: Sequence, measurements: dict, **extra) -> CommandResult:
    """report.json (the report's fields, its schema tag and extra keys) plus
    summary.csv (one line per row), carrying the report's own verdicts."""
    schema = report.manifest["schema"]
    return CommandResult(
        outputs={
            "report.json": _json_bytes({"schema": schema, **asdict(report), **extra}),
            "summary.csv": _report_csv(rows),
        },
        verdicts=dict(report.verdicts),
        schemas={"report": schema},
        measurements=measurements,
    )


def _from_config(target, config: dict, **explicit):
    """Call target, a dataclass or a function, with every config key named like
    one of its parameters; explicit keyword arguments win."""
    names = inspect.signature(target).parameters
    return target(**{**{key: config[key] for key in names if key in config}, **explicit})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(config: dict, rng: RngStream, threads: int) -> CommandResult:
    p = _from_config(GibbsParams, config)
    matrix = _from_config(sample_coeff_matrix, config, p=p, rng=rng)
    records = (
        {"index": index, "field": _field_record(p.period, p.cutoff, row)}
        for index, row in enumerate(matrix)
    )

    abs_sq = matrix.real**2 + matrix.imag**2
    empirical = abs_sq.mean(axis=0)
    fourth = (abs_sq**2).mean(axis=0)
    stats_rows = []
    for position, k in enumerate(mode_box(p.cutoff)):
        oracle = variance_oracle(k, p)
        variance = float(empirical[position])
        ratio = float(fourth[position] / variance**2) if variance > 0.0 else math.nan
        stats_rows.append(
            {
                "k1": k[0],
                "k2": k[1],
                "variance_oracle": oracle,
                "empirical_variance": variance,
                "rel_error": variance / oracle - 1.0,
                "fourth_moment_ratio": ratio,
            }
        )

    return CommandResult(
        outputs={
            "ensemble.jsonl": map(_jsonl_bytes, records),
            "per_mode_stats.csv": _csv_bytes(stats_rows),
        },
        schemas={"ensemble": ENSEMBLE_SCHEMA, "field": FIELD_SCHEMA},
        measurements={
            "max_abs_rel_error": float(np.max(np.abs([r["rel_error"] for r in stats_rows])))
        },
    )


def _load_initial_field(config: ResolvedConfig, rng: RngStream) -> SpectralField:
    """The Gibbs sample or the field file that initial names. A file fixes the
    lattice: an explicit period or cutoff that differs is a config error, and
    the file's values replace the defaults, so the manifest records them."""
    if config["initial"] == "gibbs":
        return sample(_from_config(GibbsParams, config), rng, index=config["sample_index"])
    path = Path(config["initial"])
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load initial field from {path}: {exc}") from exc
    if isinstance(record, dict) and "field" in record:
        record = record["field"]
    try:
        field = SpectralField.from_record(record)
    except ValueError as exc:
        raise ConfigError(f"bad field record in {path}: {exc}") from exc
    for key, value in (("period", field.period), ("cutoff", field.cutoff)):
        if config[key] != value:
            if key in config.explicit:
                raise ConfigError(
                    f"{key} {config[key]} disagrees with {value} of the field in {path}"
                )
            config[key] = value
    return field


def _cmd_evolve(config: ResolvedConfig, rng: RngStream, threads: int) -> CommandResult:
    initial = _load_initial_field(config, rng)
    cfg = _from_config(IntegratorConfig, config)
    trajectory = evolve(initial, cfg)

    verdicts: dict[str, bool] = {}
    measurements = {
        "energy_drift": trajectory.energy_drift,
        "enstrophy_drift": trajectory.enstrophy_drift,
        "snapshots": len(trajectory),
    }
    if config["round_trip"]:
        # only the endpoint is read, so the way back records no snapshots
        back = evolve(trajectory.final, replace(cfg, t_final=-cfg.t_final, snapshot_stride=0))
        gap = back.final - initial
        error = sobolev_norm(gap, 0.0) / max(sobolev_norm(initial, 0.0), 1.0)
        measurements["round_trip_error"] = error
        verdicts["round_trip_return"] = error <= config["round_trip_tol"]

    return CommandResult(
        outputs={"trajectory.jsonl": map(_jsonl_bytes, trajectory.iter_records())},
        verdicts=verdicts,
        schemas={"trajectory": TRAJECTORY_SCHEMA, "field": FIELD_SCHEMA},
        measurements=measurements,
    )


def _cmd_invariance(config: dict, rng: RngStream, threads: int) -> CommandResult:
    p = _from_config(GibbsParams, config)
    report = _from_config(
        run_invariance,
        config,
        p=p,
        cfg=_from_config(IntegratorConfig, config),
        observables=default_observables(p.cutoff),
        ensemble_size=config["ensemble"],
        rng=rng,
        threads=threads,
    )
    measurements = {
        "marginal_pass_rate": report.marginal_pass_rate,
        "surviving": report.surviving,
        "failed_members": list(report.failed_members),
        "energy_drift_max": report.energy_drift_max,
        "enstrophy_drift_max": report.enstrophy_drift_max,
    }
    return _report_result(report, report.observables, measurements, passed=report.passed)


def _cmd_moments(config: dict, rng: RngStream, threads: int) -> CommandResult:
    ladder = tuple((n, n) for n in config["cutoffs"])
    report = _from_config(
        moment_scan,
        config,
        p=_from_config(GibbsParams, config, cutoff=ladder[0]),
        orders=config["betas"],
        ensemble_size=config["ensemble"],
        rng=rng,
        cutoffs=ladder,
        threads=threads,
    )
    measurements = {
        f"means[beta={s.order:g},q={s.exponent:g}]": list(s.means) for s in report.series
    }
    result = _report_result(report, report.rows, measurements)
    result.notes = [f"divergence signature: {label}" for label in report.divergence_signature]
    return result


def _cmd_cauchy(config: dict, rng: RngStream, threads: int) -> CommandResult:
    report = _from_config(
        cauchy_scan,
        config,
        n_values=config["levels"],
        ensemble_size=config["ensemble"],
        rng=rng,
        threads=threads,
    )
    measurements = {"mean_sq_distances": [row.mean_sq_distance for row in report.rows]}
    return _report_result(report, report.rows, measurements)


def _cmd_continuity(config: dict, rng: RngStream, threads: int) -> CommandResult:
    report = _from_config(
        continuity_probe,
        config,
        p=_from_config(GibbsParams, config),
        cfg=_from_config(IntegratorConfig, config),
        ensemble_size=config["ensemble"],
        rng=rng,
        threads=threads,
    )
    measurements = {"median_ratios": [row.median_ratio for row in report.rows]}
    return _report_result(report, report.rows, measurements)


# a subcommand's position here is the stream id of its RngStream
COMMANDS = {
    "sample": _cmd_sample,
    "evolve": _cmd_evolve,
    "invariance": _cmd_invariance,
    "moments": _cmd_moments,
    "cauchy": _cmd_cauchy,
    "continuity": _cmd_continuity,
}


# ---------------------------------------------------------------------------
# orchestration


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_outputs(
    out_dir: Path, outputs: dict[str, bytes | Iterable[bytes]]
) -> tuple[list[dict], str]:
    """Write the outputs in sorted name order; return the manifest entries
    and the determinism hash.

    Each chunk goes to its file, the file's sha256 and the determinism digest
    (name, newline, payload, per file) in one pass; a bytes payload is one
    chunk. If a payload raises while it streams, every file this call wrote
    is removed before the error propagates.
    """
    entries = []
    determinism = hashlib.sha256()
    written: list[Path] = []
    try:
        for name in sorted(outputs):
            payload, path = outputs[name], out_dir / name
            digest = hashlib.sha256()
            size = 0
            determinism.update(name.encode())
            determinism.update(b"\n")
            with path.open("wb") as handle:
                written.append(path)
                for chunk in (payload,) if isinstance(payload, bytes) else payload:
                    handle.write(chunk)
                    digest.update(chunk)
                    determinism.update(chunk)
                    size += len(chunk)
            entries.append({"file": name, "sha256": digest.hexdigest(), "bytes": size})
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return entries, determinism.hexdigest()


def _describe_config(subcommand: str) -> str:
    lines = [f"configuration keys for {subcommand} (key = default): "]
    for key, option in CONFIG_SCHEMAS[subcommand].items():
        default = option.default
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {key} = {default}  # {option.help}")
    return "\n".join(lines)


class _DescribeConfig(argparse.Action):
    """Print the subcommand's config keys and exit 0, before the required flags are checked."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(_describe_config(self.const))
        parser.exit(EXIT_PASS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulergibbs",
        description=(
            "Spectral Galerkin 2D Euler with enstrophy-Gibbs ensembles: "
            "sampling, evolution, and statistical experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--seed", type=int, required=True, help="master seed (mandatory)")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument(
            "--threads", type=int, default=1, help="worker threads (never changes results)"
        )
        sub.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        sub.add_argument(
            "--describe-config",
            action=_DescribeConfig,
            nargs=0,
            const=name,
            help="print the config keys for this subcommand and exit",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot use --out {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "subcommand": args.subcommand,
        "config": None,
        "seed": args.seed,
        "threads": args.threads,
        "version": VERSION,
        "generator": GENERATOR_NAME,
        "started": _utc_now(),
    }
    error: Exception | None = None
    try:
        manifest["config"] = resolve_config(args.subcommand, args.config, args.set)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        # RngStream rejects such a seed too; this message names the flag
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must be in 0 .. 2^64 - 1, got {args.seed}")
        rng = RngStream(args.seed, list(COMMANDS).index(args.subcommand))
        result = COMMANDS[args.subcommand](manifest["config"], rng, args.threads)
        # payloads may be generators: encoding errors surface while writing
        try:
            entries, determinism_hash = _write_outputs(out_dir, result.outputs)
        except OSError as exc:
            raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from exc
    except (ConfigError, ValueError, IntegrationError, MemoryError) as exc:
        error, result = exc, CommandResult(outputs={})
        if isinstance(exc, MemoryError):  # a run too large for this machine
            error = ConfigError(f"out of memory: {type(exc).__name__} {exc}".rstrip())
        entries, determinism_hash = _write_outputs(out_dir, result.outputs)

    manifest.update(
        {
            "schemas": result.schemas,
            "outputs": entries,
            "determinism_hash": determinism_hash,
            "verdicts": result.verdicts,
            "passed": error is None and all(result.verdicts.values()),
            "measurements": result.measurements,
            "finished": _utc_now(),
        }
    )
    if error is not None:
        manifest["error"] = str(error)
    try:
        (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
    except OSError as exc:
        # outputs without their manifest cannot be checked, so none are left
        for entry in entries:
            (out_dir / entry["file"]).unlink(missing_ok=True)
        print(f"config error: cannot write {out_dir / 'manifest.json'}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if isinstance(error, IntegrationError):
        print(f"numeric failure: {error}", file=sys.stderr)
        return EXIT_NUMERIC
    if error is not None:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    for name, ok in result.verdicts.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    for note in result.notes:
        print(note)
    print(f"wrote {len(result.outputs) + 1} files to {out_dir}")
    print(f"determinism sha256: {manifest['determinism_hash']}")
    return EXIT_PASS if manifest["passed"] else EXIT_VERDICT


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
