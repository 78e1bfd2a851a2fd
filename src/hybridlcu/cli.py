"""Command-line entry point: seeded runs, ``key = value`` configs, CSV outputs.

Every subcommand writes CSVs whose final line is a metadata comment with
the seed and package version, and reruns with the same seed reproduce the
files byte for byte. Every subcommand runs in one thread; --workers is
accepted and validated but has no effect. ``demo`` draws its shots from
per-shot counter-based substreams in fixed chunks: each chunk is appended
to the shot CSV and its outcome codes are counted per stream, and the
statistics come from those counts on the sampler's table of g values, so
memory stays bounded in the shot count.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, estimate, gsp, hybrid, lchs, lcu
from . import partition as partition_mod
from . import qcore, qed, qlss
from .qcore import InvariantViolation

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "RunConfig",
    "parse_config_text",
    "build_run_config",
    "cmd_demo",
    "cmd_lchs",
    "cmd_qlss",
    "cmd_gsp",
    "cmd_qed",
    "cmd_partitions",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

DEFAULT_SHOTS = 20000

# Leading term, in standard errors, of the Bernstein half-width that the
# Monte-Carlo mean may sit from the analytic value before the demo
# cross-check is declared broken.
MC_SIGMAS = 6.0


class ConfigError(Exception):
    """Bad flag, unknown or missing config key, out-of-range parameter."""


# ---------------------------------------------------------------------------
# config files

_RUN_KEYS = {"run.seed": "u64", "run.shots": "int", "run.out": "str", "run.workers": "int"}

_PARAM_KEYS: dict[str, dict[str, str]] = {
    "demo": {"demo.m": "int", "demo.dim": "int", "demo.epsilon": "float", "demo.delta": "float"},
    "lchs": {
        "lchs.l_norm": "float",
        "lchs.t": "float",
        "lchs.epsilon": "float",
        "lchs.points": "int",
        "lchs.p_assumed": "float",
    },
    "qlss": {"qlss.kappas": "floats", "qlss.epsilon": "float", "qlss.dim": "int"},
    "gsp": {"gsp.dim": "int", "gsp.delta": "float", "gsp.p0": "float", "gsp.epsilon": "float"},
    "qed": {
        "qed.r_values": "floats",
        "qed.pz_min": "float",
        "qed.pz_max": "float",
        "qed.pz_points": "int",
        "qed.codewords": "int",
    },
    "partitions": {"partitions.m": "int", "partitions.dim": "int"},
}


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key} = {value} is not finite")
    return value


def _coerce(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "u64":
            value = int(raw)
            if not 0 <= value < 2**64:
                raise ConfigError(f"{key} = {raw} outside the 64-bit range")
            return value
        if kind == "float":
            return _finite(key, float(raw))
        if kind == "floats":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"{key} needs at least one value")
            return tuple(_finite(key, float(p)) for p in parts)
        return raw
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind}") from None


def parse_config_text(text: str) -> dict[str, str]:
    """Line-oriented ``key = value`` pairs; '#' comments; dotted keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_MISSING = object()


@dataclass
class RunConfig:
    subcommand: str
    seed: int
    shots: int
    out_dir: pathlib.Path
    params: dict = field(default_factory=dict)
    emit_plot_script: bool = False

    def get(self, key: str, default=_MISSING):
        if key in self.params:
            return self.params[key]
        if default is _MISSING:
            raise ConfigError(f"missing config key {key!r}")
        return default


def build_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict[str, str] = {}
    if args.config is not None:
        path = pathlib.Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        file_cfg = parse_config_text(path.read_text())
    known = dict(_RUN_KEYS)
    known.update(_PARAM_KEYS[args.subcommand])
    unknown = sorted(set(file_cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.subcommand}: {', '.join(unknown)}")
    coerced = {key: _coerce(key, known[key], value) for key, value in file_cfg.items()}

    def pick(flag_value, key, default):
        return flag_value if flag_value is not None else coerced.get(key, default)

    seed = pick(args.seed, "run.seed", 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed {seed} outside the 64-bit range")
    shots = pick(args.shots, "run.shots", DEFAULT_SHOTS)
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    if pick(args.workers, "run.workers", 1) < 1:
        raise ConfigError("workers must be >= 1")
    out_dir = pathlib.Path(pick(args.out, "run.out", "."))
    params = {key: value for key, value in coerced.items() if not key.startswith("run.")}
    return RunConfig(
        subcommand=args.subcommand,
        seed=seed,
        shots=shots,
        out_dir=out_dir,
        params=params,
        emit_plot_script=args.emit_plot_script,
    )


# ---------------------------------------------------------------------------
# random demo instances (artifact plumbing, not part of the numerics)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_instance(m: int, dim: int, rng: np.random.Generator):
    """Decomposition, pure state and unit-norm observable from one stream."""
    coeffs = rng.uniform(0.2, 1.0, size=m)
    dec = lcu.LcuDecomposition.from_terms(coeffs, [_haar_unitary(dim, rng) for _ in range(m)])
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h /= np.abs(np.linalg.eigvalsh(h)).max()
    return dec, psi, h


def _write_partition_csv(path, rows, seed: int) -> None:
    # the partition text form uses commas inside groups, so quote it
    quoted = ((f'"{text}"', *rest) for text, *rest in rows)
    qcore.save_csv(path, "partition,a_star,R,R_minus_P", quoted, seed, __version__)


# ---------------------------------------------------------------------------
# subcommands


def cmd_demo(config: RunConfig) -> None:
    """Random instance, partition scan, three-way cross-check, estimation."""
    m = config.get("demo.m", 4)
    dim = config.get("demo.dim", 4)
    if not 1 <= m <= 6:
        raise ConfigError(f"demo.m = {m} outside 1..6")
    if not 2 <= dim <= 8:
        raise ConfigError(f"demo.dim = {dim} outside 2..8")
    epsilon = config.get("demo.epsilon", 0.05)
    delta = config.get("demo.delta", 0.05)
    rng = np.random.default_rng(config.seed)
    dec, psi, obs = _random_instance(m, dim, rng)

    _write_partition_csv(config.out_dir / "demo_partitions.csv", partition_mod.scan(dec, psi), config.seed)

    # three-way cross-check on a two-group split (richer pair circuits
    # than the coherent or fully randomized extremes)
    if m >= 2:
        half = (m + 1) // 2
        part = partition_mod.Partition([tuple(range(half)), tuple(range(half, m))], m)
    else:
        part = partition_mod.Partition.coherent(m)
    channel = hybrid.HybridChannel(dec, part)
    analytic = hybrid.exact_expectation(channel, psi, obs, backend="analytic")
    circuit = hybrid.exact_expectation(channel, psi, obs, backend="circuit")
    if abs(analytic - circuit) > qcore.TOL.cross_backend:
        raise InvariantViolation(f"analytic {analytic!r} vs circuit {circuit!r} disagree")

    # stream 0 carries the observable, stream 1 the identity whose mean P
    # normalises the ratio estimate. Each stream is drawn in chunks whose
    # outcome codes are counted per table row; stream 0's chunks also go to
    # the shot CSV, moved into place once every check passes.
    samplers = [hybrid.Sampler(channel, psi, obs), hybrid.Sampler(channel, psi, np.eye(dim))]
    counts = [np.zeros(len(sampler.table), dtype=np.int64) for sampler in samplers]

    def chunks(stream: int):
        for lo in range(0, config.shots, hybrid._CSV_CHUNK_ROWS):
            count = min(hybrid._CSV_CHUNK_ROWS, config.shots - lo)
            chunk = samplers[stream].sample_shots(config.seed, count, start=lo, stream=stream)
            counts[stream] += np.bincount(chunk.code, minlength=len(chunk.table))
            yield chunk

    shots_path = config.out_dir / "demo_shots.csv"
    partial = shots_path.with_name(shots_path.name + ".tmp")
    try:
        hybrid.write_shot_csv(partial, chunks(0), __version__)
        for _ in chunks(1):
            pass
        hists = [estimate.Histogram(sampler.table["g"], tally) for sampler, tally in zip(samplers, counts)]
        for checked, hist in zip(samplers, hists):
            # exact variance and |g| <= 1 (unit-norm observables): the bound holds at
            # every N, also when all shots agree and the sample variance is 0
            variance = checked.exact_second - checked.exact_mean**2
            width = estimate.bernstein_half_width(variance, 1.0, hist.n, 2.0 * math.exp(-MC_SIGMAS**2 / 2.0))
            if abs(hist.mean - checked.exact_mean) > width:
                raise InvariantViolation(
                    f"monte-carlo mean {hist.mean} is farther than {width:.3g} from {checked.exact_mean}"
                )
        batch = estimate.SampleBatch(*hists, seed=config.seed)
        print(f"cross-check ok: analytic={analytic:.12g} circuit={circuit:.12g} mc={batch.obs.mean:.12g} (N={batch.n})")

        est_cfg = estimate.EstimationConfig(epsilon=epsilon, delta=delta, bound_c=1.0)
        reports = [
            estimate.estimate_numerator(batch, dec.one_norm, est_cfg),
            estimate.estimate_ratio(batch, est_cfg),
        ]
        estimate.write_report_csv(config.out_dir / "demo_reports.csv", reports, config.seed, __version__)
        os.replace(partial, shots_path)
    finally:
        partial.unlink(missing_ok=True)
    print(f"demo: wrote demo_partitions.csv demo_reports.csv demo_shots.csv in {config.out_dir}")


def cmd_partitions(config: RunConfig) -> None:
    """Exhaustive table of partition, ancilla width a*, R, R - P."""
    m = config.get("partitions.m", 5)
    dim = config.get("partitions.dim", 4)
    if not 1 <= m <= 8:
        raise ConfigError(f"partitions.m = {m} outside 1..8")
    if not 2 <= dim <= 8:
        raise ConfigError(f"partitions.dim = {dim} outside 2..8")
    rng = np.random.default_rng(config.seed)
    dec, psi, _ = _random_instance(m, dim, rng)
    rows = partition_mod.scan(dec, psi)
    _write_partition_csv(config.out_dir / "partitions.csv", rows, config.seed)
    print(f"partitions: {len(rows)} rows for m={m} in {config.out_dir}")


def _count(config: RunConfig, key: str, default=_MISSING) -> int:
    value = config.get(key, default)
    if value < 1:
        raise ConfigError(f"{key} must be >= 1")
    return value


def cmd_lchs(config: RunConfig) -> None:
    rows = lchs.fig_sweep(
        l_norm=config.get("lchs.l_norm", 2.0),
        t=config.get("lchs.t", 3.0),
        epsilon=config.get("lchs.epsilon", 5e-5),
        points=_count(config, "lchs.points", 60),
        p_assumed=config.get("lchs.p_assumed", 1e-2),
    )
    lchs.write_sweep_csv(config.out_dir / "lchs_bound.csv", rows, config.seed, __version__)
    print(f"lchs: {len(rows)} rows, M from {rows[0].m} to {rows[-1].m}, in {config.out_dir}")


def cmd_qlss(config: RunConfig) -> None:
    kappas = config.get("qlss.kappas", (4.0, 8.0, 16.0, 32.0))
    dim = config.get("qlss.dim", 8)
    if not 1 <= dim <= qcore.MAX_PURE_DIM:
        raise ConfigError(f"qlss.dim = {dim} outside 1..{qcore.MAX_PURE_DIM}")
    rows = qlss.sweep(kappas, epsilon=config.get("qlss.epsilon", 1e-2), dim=dim, seed=config.seed)
    qlss.write_table_csv(config.out_dir / "qlss_table.csv", rows, config.seed, __version__)
    line = f"qlss: {len(rows)} rows"
    if len(rows) >= 2:
        slope_int, slope_conv = qlss.fit_exponents(rows)
        line += f", log-log slopes R_int {slope_int:.3f} P {slope_conv:.3f}"
    print(line + f", in {config.out_dir}")


def cmd_gsp(config: RunConfig) -> None:
    dim = config.get("gsp.dim", 16)
    if not 2 <= dim <= qcore.MAX_PURE_DIM:
        raise ConfigError(f"gsp.dim = {dim} outside 2..{qcore.MAX_PURE_DIM}")
    delta = config.get("gsp.delta", 0.2)
    p0 = config.get("gsp.p0", 0.5)
    epsilon = config.get("gsp.epsilon", 1e-3)
    h_matrix, psi = gsp.random_gsp_instance(dim, delta, p0, seed=config.seed)
    report = gsp.hybrid_gsp(gsp.GspConfig(h_matrix=h_matrix, p0=p0, epsilon=epsilon), psi)
    gsp.write_report_rows_csv(config.out_dir / "gsp_report.csv", [report], config.seed, __version__)
    print(f"gsp: final distance {report.final_distance:.3e}, R {report.r_factor:.6f}, in {config.out_dir}")


def cmd_qed(config: RunConfig) -> None:
    r_values = config.get("qed.r_values", (0.1, 0.2, 0.3))
    grid_keys = ("qed.pz_min", "qed.pz_max", "qed.pz_points")
    if any(key in config.params for key in grid_keys):
        # a partial grid spec is an error naming the absent key
        pz_grid = np.geomspace(
            config.get("qed.pz_min"), config.get("qed.pz_max"), _count(config, "qed.pz_points")
        )
    else:
        pz_grid = np.geomspace(1e-3, 1e-1, 10)
    rows = qed.fig_sweep(r_values, pz_grid, _count(config, "qed.codewords", 32), config.seed)
    qed.write_sweep_csv(config.out_dir / "qed_sweep.csv", rows, config.seed, __version__)
    print(f"qed: {len(rows)} rows, in {config.out_dir}")


# ---------------------------------------------------------------------------
# plot stubs

_PLOT_STUB = '''#!/usr/bin/env python3
"""Plot stub; reads the CSVs next to this file. Edit freely."""

import csv
import pathlib

import matplotlib.pyplot as plt

HERE = pathlib.Path(__file__).resolve().parent
FILES = {files!r}

for name in FILES:
    rows = list(csv.reader((HERE / name).open()))
    header, body = rows[0], [r for r in rows[1:] if not r[0].startswith("#")]
    try:
        xs = [float(r[0]) for r in body]
    except ValueError:
        print("skipping", name, "(non-numeric first column)")
        continue
    fig, ax = plt.subplots()
    for col in range(1, len(header)):
        try:
            ax.plot(xs, [float(r[col]) for r in body], label=header[col])
        except ValueError:
            continue
    ax.set_xlabel(header[0])
    ax.legend(fontsize=7)
    out = HERE / (pathlib.Path(name).stem + ".png")
    fig.savefig(out, dpi=150)
    print("wrote", out)
'''

_OUTPUT_FILES = {
    "demo": ["demo_partitions.csv", "demo_reports.csv", "demo_shots.csv"],
    "partitions": ["partitions.csv"],
    "lchs": ["lchs_bound.csv"],
    "qlss": ["qlss_table.csv"],
    "gsp": ["gsp_report.csv"],
    "qed": ["qed_sweep.csv"],
}


def _emit_plot_script(config: RunConfig) -> None:
    path = config.out_dir / f"plot_{config.subcommand}.py"
    path.write_text(_PLOT_STUB.format(files=_OUTPUT_FILES[config.subcommand]))
    print(f"plot stub: {path}")


# ---------------------------------------------------------------------------
# entry point

_HANDLERS = {
    "demo": cmd_demo,
    "lchs": cmd_lchs,
    "qlss": cmd_qlss,
    "gsp": cmd_gsp,
    "qed": cmd_qed,
    "partitions": cmd_partitions,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlcu",
        description="Hybrid coherent/randomized LCU drivers with seeded CSV output.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "demo": "random LCU instance: partition scan, cross-checks, estimation reports",
        "lchs": "Hamiltonian-simulation bound-vs-nodes sweep",
        "qlss": "linear-systems reduction-factor table over condition numbers",
        "gsp": "two-stage ground-state filter report",
        "qed": "Steane-code biased-noise sweep",
        "partitions": "exhaustive partition table with ancilla widths and R",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--seed", type=int, metavar="U64")
        p.add_argument("--shots", type=int, metavar="N")
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--workers", type=int, metavar="N", help="accepted; has no effect")
        p.add_argument("--emit-plot-script", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        _HANDLERS[config.subcommand](config)
        if config.emit_plot_script:
            _emit_plot_script(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantViolation, hybrid.DegenerateRoundError, np.linalg.LinAlgError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, estimate.UndefinedRatioError) as exc:
        # module-level validation (bad kappa, eps >= p0, ...) and too few shots
        # for a ratio estimate are config problems
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
