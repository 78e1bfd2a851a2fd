"""Command-line entry point: seeded runs, ``key = value`` configs, CSV outputs.

Every subcommand writes CSVs whose final line is a metadata comment with
the seed and package version, and reruns with the same seed reproduce the
files byte for byte for one numpy build, BLAS kernel and BLAS thread count:
more BLAS threads round a QR or an eigensolver differently from d = 128
on, so the CLI sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless the caller set them. --workers is accepted and
validated but has no effect. ``demo`` draws its shots from per-shot
counter-based substreams in fixed chunks: each chunk of the observable
stream is appended to the shot CSV, the identity stream is tallied on a
second thread meanwhile, and the outcome codes are counted per stream.
The statistics come from those counts on the sampler's table of g values.
Two chunks are live at once, one per stream, and the identity stream
draws every chunk in one set of buffers made before its thread starts, so
memory stays bounded in the shot count whatever the scheduling. Every
other subcommand runs in one thread.

The command line is ``<subcommand> [flags]``. Besides ``--config`` and
``--emit-plot-script``, each flag ``--NAME`` sets the ``_PARAMS`` key
``run.NAME``. ``--flag value`` and ``--flag=value`` are the same, the last
of a repeated flag wins, and a flag must be spelled whole. A usage error
prints ``usage:`` to stderr and exits 2.
"""

from __future__ import annotations

import gc
import math
import os
import pathlib
import shutil
import sys
import tempfile
import threading
from collections.abc import Callable
from typing import NamedTuple, NoReturn

# set before numpy, imported here or by a package module, loads its BLAS
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, estimate, gsp, hybrid, lchs, lcu
from . import partition as partition_mod
from . import qcore, qed, qlss
from .qcore import InvariantViolation

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "parse_config_text",
    "Args",
    "parse_args",
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

# Leading term, in standard errors, of the Bernstein half-width that the
# Monte-Carlo mean may sit from the analytic value before the demo
# cross-check is declared broken.
MC_SIGMAS = 6.0

# Accuracy target of the demo's estimation reports. Neither report plans a
# sample size from it; it is echoed into the epsilon column of demo_reports.csv.
DEMO_EPSILON = 0.05


class ConfigError(Exception):
    """Bad flag, unknown or missing config key, out-of-range parameter."""


# ---------------------------------------------------------------------------
# config files


class _Param(NamedTuple):
    """One config key: how its text is read, its default, and its inclusive range."""

    kind: str
    default: object
    lo: int | None = None
    hi: int | None = None

    def range_text(self) -> str:
        if self.lo is None:
            return ""
        return f">= {self.lo}" if self.hi is None else f"{self.lo}..{self.hi}"


# The one declaration of every config key and run default (no driver parameter
# a key feeds has a default); a subcommand reads the run.* keys and its own.
# Flags override the run.* keys. Keys without a range here are validated by
# the driver that reads them, and run.out by creating it.
_PARAMS = {
    "run.seed": _Param("int", 0, 0, 2**64 - 1),
    "run.shots": _Param("int", 20000, 1, 2**64),
    "run.out": _Param("str", "."),
    "run.workers": _Param("int", 1, 1),
    "demo.m": _Param("int", 4, 1, 8),
    "demo.dim": _Param("int", 4, 2, 128),
    "demo.delta": _Param("float", 0.05),
    "lchs.l_norm": _Param("float", 2.0),
    "lchs.t": _Param("float", 3.0),
    "lchs.epsilon": _Param("float", 5e-5),
    "lchs.points": _Param("int", 60, 1),
    "lchs.p_assumed": _Param("float", 1e-2),
    "qlss.kappas": _Param("floats", (4.0, 8.0, 16.0, 32.0)),
    "qlss.epsilon": _Param("float", 1e-2),
    "qlss.dim": _Param("int", 8, 1, qcore.MAX_PURE_DIM),
    "gsp.dim": _Param("int", 16, 2, qcore.MAX_PURE_DIM),
    "gsp.delta": _Param("float", 0.2),
    "gsp.p0": _Param("float", 0.5),
    "gsp.epsilon": _Param("float", 1e-3),
    "qed.r_values": _Param("floats", (0.1, 0.2, 0.3)),
    "qed.pz_min": _Param("float", 1e-3),
    "qed.pz_max": _Param("float", 1e-1),
    "qed.pz_points": _Param("int", 10, 1),
    # inert (the sweep reads every code state's all-ones stabilizer table); kept so config files parse
    "qed.codewords": _Param("int", 32, 1),
    "partitions.m": _Param("int", 5, 1, partition_mod.MAX_ENUM_M),
    "partitions.dim": _Param("int", 4, 2, 128),
}


def _table(subcommand: str) -> dict[str, _Param]:
    return {key: param for key, param in _PARAMS.items() if key.split(".")[0] in ("run", subcommand)}


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key} = {value} is not finite")
    return value


def _coerce(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(key, float(raw))
        if kind == "floats":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"{key} needs at least one value")
            return tuple(_finite(key, float(p)) for p in parts)
        return raw
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


class Args(NamedTuple):
    """A parsed command line: the subcommand, --config, the run.* keys set by flags, --emit-plot-script."""

    subcommand: str
    config: str | None
    flags: dict[str, str]
    emit_plot_script: bool


def build_run_config(args: Args) -> dict:
    """Every key of the subcommand's table, coerced and range-checked; ``run.out`` is the created directory."""
    texts: dict[str, str] = {}
    if args.config is not None:
        path = pathlib.Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            texts = parse_config_text(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            # a ValueError, which main would blame on the subcommand's keys
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    table = _table(args.subcommand)
    unknown = sorted(set(texts) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.subcommand}: {', '.join(unknown)}")
    # the qed noise grid is given whole or not at all
    grid = ("qed.pz_min", "qed.pz_max", "qed.pz_points")
    missing = [key for key in grid if key not in texts]
    if 0 < len(missing) < len(grid):
        raise ConfigError(f"missing config key {missing[0]!r}")
    texts.update(args.flags)
    values = {}
    for key, param in table.items():
        value = _coerce(key, param.kind, texts[key]) if key in texts else param.default
        if (param.lo is not None and value < param.lo) or (param.hi is not None and value > param.hi):
            raise ConfigError(f"{key} = {value} out of range ({param.range_text()})")
        values[key] = value
    out = pathlib.Path(values["run.out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        # an existing file, no permission or a NUL byte
        raise ConfigError(f"run.out = {values['run.out']!r}: {exc}") from None
    for name in _SUBCOMMANDS[args.subcommand].outputs:
        if (out / name).is_dir():
            raise ConfigError(f"run.out = {values['run.out']!r}: {name} is a directory, not a file")
    values["run.out"] = out
    return values


# ---------------------------------------------------------------------------
# random demo instances (artifact plumbing, not part of the numerics)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_instance(m: int, dim: int, rng: np.random.Generator):
    """Decomposition, pure state and unit-norm observable from one stream."""
    coeffs = rng.uniform(0.2, 1.0, size=m)
    try:
        dec = lcu.LcuDecomposition.from_terms(coeffs, [_haar_unitary(dim, rng) for _ in range(m)])
    except ValueError as exc:
        # no config value reaches these terms, so a term that fails validation is a numerical fault
        raise InvariantViolation(str(exc)) from exc
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h /= np.abs(np.linalg.eigvalsh(h)).max()
    return dec, psi, h


# One template formats every partitions.csv row, since scan's cells (text, a*,
# R, R - P) have fixed types; the text is quoted, as it holds commas in groups.
_PARTITION_ROW = '"%s",%d,%.17g,%.17g\n'
# Rows per str.join: a join over the whole table would hold all of it in
# memory, about 22 MB of strings at m = 10.
_PARTITION_SLICE_ROWS = 1024


def _write_partition_csv(path, rows, seed: int) -> None:
    slices = range(0, len(rows), _PARTITION_SLICE_ROWS)
    body = ("".join(map(_PARTITION_ROW.__mod__, rows[lo : lo + _PARTITION_SLICE_ROWS])) for lo in slices)
    qcore.frame_table(path, "partition,a_star,R,R_minus_P", body, seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_demo(p: dict, paths: list[pathlib.Path]) -> None:
    """Random instance, partition scan, three-way cross-check, estimation.

    No CSV is written until the cross-check and both Monte-Carlo gates pass.
    """
    # refuses a bad demo.delta before any shot is drawn
    est_cfg = estimate.EstimationConfig(epsilon=DEMO_EPSILON, delta=p["demo.delta"], bound_c=1.0)
    partitions_path, reports_path, shots_path = paths
    m, dim, seed, shots = p["demo.m"], p["demo.dim"], p["run.seed"], p["run.shots"]
    rng = np.random.default_rng(seed)
    dec, psi, obs = _random_instance(m, dim, rng)
    partition_rows = partition_mod.scan(dec, psi)

    # three-way cross-check on a two-group split (richer pair circuits
    # than the coherent or fully randomized extremes); one group at m = 1
    half = (m + 1) // 2
    part = partition_mod.Partition([g for g in (range(half), range(half, m)) if g], m)
    channel = hybrid.HybridChannel(dec, part)
    # stream 0 carries the observable, stream 1 the identity whose mean P
    # normalises the ratio estimate. Each stream is drawn in chunks whose
    # outcome codes are counted per table row; stream 0's chunks also go to
    # the shot CSV, moved into place once every check passes and the other
    # two tables are written.
    samplers = [hybrid.Sampler(channel, psi, obs), hybrid.Sampler(channel, psi, np.eye(dim))]
    # the analytic backend's value, which the observable's sampler already holds
    analytic = samplers[0].exact_mean
    circuit = hybrid.exact_expectation(channel, psi, obs, backend="circuit")
    if abs(analytic - circuit) > qcore.TOL.cross_backend:
        raise InvariantViolation(f"analytic {analytic!r} vs circuit {circuit!r} disagree")
    counts = [np.zeros(len(sampler.table), dtype=np.int64) for sampler in samplers]
    # each stream's exact variance of g, which bounds both the Monte-Carlo gate
    # and the numerator width at every N, also when all shots agree and the
    # sample variance is 0. The clamp drops a rounding-negative difference at
    # zero variance.
    variances = [max(0.0, sampler.exact_second - sampler.exact_mean**2) for sampler in samplers]
    # set by whichever thread fails, so the other stops at its next chunk
    halt = threading.Event()
    identity_failure: list[BaseException] = []

    def chunks(stream: int, buffers=None):
        sampler = samplers[stream]
        for lo in range(0, shots, hybrid._CSV_CHUNK_ROWS):
            if halt.is_set():
                return
            count = min(hybrid._CSV_CHUNK_ROWS, shots - lo)
            codes = sampler.sample_shots(seed, count, start=lo, stream=stream, buffers=buffers)
            counts[stream] += np.bincount(codes, minlength=len(sampler.table))
            yield codes

    # the identity stream is tallied on a helper thread while this one draws
    # and writes the observable stream: the Philox fill and the guide-table
    # gathers release the GIL, so the helper runs beside the writer. The codes
    # depend only on (seed, stream, shot), so the bytes do not depend on how
    # the two threads are scheduled. The helper draws every chunk in one set of
    # buffers, made here and kept to the end, so what it holds is the same at
    # every moment and the run's peak memory does not depend on it either.
    identity_buffers = hybrid.Sampler.shot_buffers(min(shots, hybrid._CSV_CHUNK_ROWS))

    def tally_identity() -> None:
        try:
            for _ in chunks(1, identity_buffers):
                pass
        except BaseException as exc:
            identity_failure.append(exc)
            halt.set()

    helper = threading.Thread(target=tally_identity, name="demo-identity-stream")
    # a fresh name, so no entry already in run.out is written through
    fd, name = tempfile.mkstemp(dir=shots_path.parent, prefix=shots_path.name + ".", suffix=".tmp")
    os.close(fd)
    partial = pathlib.Path(name)
    try:
        helper.start()
        hybrid.write_shot_csv(partial, samplers[0].table, seed, chunks(0))
        helper.join()
        if identity_failure:
            raise identity_failure[0]
        hists = [estimate.Histogram(sampler.table["g"], tally) for sampler, tally in zip(samplers, counts)]
        for checked, hist, variance in zip(samplers, hists, variances):
            # |g| <= 1 (unit-norm observables)
            width = estimate.bernstein_half_width(variance, 1.0, hist.n, 2.0 * math.exp(-MC_SIGMAS**2 / 2.0))
            if abs(hist.mean - checked.exact_mean) > width:
                raise InvariantViolation(
                    f"monte-carlo mean {hist.mean} is farther than {width:.3g} from {checked.exact_mean}"
                )
        batch = estimate.SampleBatch(*hists, seed=seed)
        print(f"cross-check ok: analytic={analytic:.12g} circuit={circuit:.12g} mc={batch.obs.mean:.12g} (N={batch.n})")
        numerator = estimate.estimate_numerator(batch, dec.one_norm, variances[0], est_cfg)
        try:
            ratio = estimate.estimate_ratio(batch, est_cfg)
        except estimate.UndefinedRatioError as exc:
            raise ConfigError(f"run.shots = {shots} is too few: {exc}") from None
        estimate.write_report_csv(reports_path, [numerator, ratio], seed)
        _write_partition_csv(partitions_path, partition_rows, seed)
        # the mode open() gave the report CSV, not mkstemp's owner-only one
        shutil.copymode(reports_path, partial)
        os.replace(partial, shots_path)
    finally:
        # after a failure on this thread the helper is still drawing; it stops
        # at its next chunk, so a run of 2**40 shots does not wait for them all
        halt.set()
        if helper.is_alive():
            helper.join()
        partial.unlink(missing_ok=True)
    print(f"demo: wrote {' '.join(path.name for path in paths)} in {p['run.out']}")


def cmd_partitions(p: dict, paths: list[pathlib.Path]) -> None:
    """Exhaustive table of partition, ancilla width a*, R, R - P."""
    m = p["partitions.m"]
    dec, psi, _ = _random_instance(m, p["partitions.dim"], np.random.default_rng(p["run.seed"]))
    rows = partition_mod.scan(dec, psi)
    _write_partition_csv(*paths, rows, p["run.seed"])
    print(f"partitions: {len(rows)} rows for m={m} in {p['run.out']}")


def cmd_lchs(p: dict, paths: list[pathlib.Path]) -> None:
    # each lchs.* key names a fig_sweep parameter
    rows = lchs.fig_sweep(**{key.removeprefix("lchs."): value for key, value in p.items() if key.startswith("lchs.")})
    lchs.write_sweep_csv(*paths, rows, p["run.seed"])
    print(f"lchs: {len(rows)} rows, M from {rows[0].m} to {rows[-1].m}, in {p['run.out']}")


def cmd_qlss(p: dict, paths: list[pathlib.Path]) -> None:
    rows = qlss.sweep(p["qlss.kappas"], epsilon=p["qlss.epsilon"], dim=p["qlss.dim"], seed=p["run.seed"])
    qlss.write_table_csv(*paths, rows, p["run.seed"])
    line = f"qlss: {len(rows)} rows"
    if len(rows) >= 2:
        slope_int, slope_conv = qlss.fit_exponents(rows)
        line += f", log-log slopes R_int {slope_int:.3f} P {slope_conv:.3f}"
    print(line + f", in {p['run.out']}")


def cmd_gsp(p: dict, paths: list[pathlib.Path]) -> None:
    h_matrix, psi = gsp.random_gsp_instance(p["gsp.dim"], p["gsp.delta"], p["gsp.p0"], seed=p["run.seed"])
    report = gsp.hybrid_gsp(gsp.GspConfig(h_matrix=h_matrix, p0=p["gsp.p0"], epsilon=p["gsp.epsilon"]), psi)
    gsp.write_report_rows_csv(*paths, [report], p["run.seed"])
    print(f"gsp: final distance {report.final_distance:.3e}, R {report.r_factor:.6f}, in {p['run.out']}")


def cmd_qed(p: dict, paths: list[pathlib.Path]) -> None:
    pz_grid = np.geomspace(p["qed.pz_min"], p["qed.pz_max"], p["qed.pz_points"])
    rows = qed.fig_sweep(p["qed.r_values"], pz_grid, p["qed.codewords"], p["run.seed"])
    qed.write_sweep_csv(*paths, rows, p["run.seed"])
    print(f"qed: {len(rows)} rows, in {p['run.out']}")


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


def _emit_plot_script(subcommand: str, out: pathlib.Path) -> None:
    path = out / f"plot_{subcommand}.py"
    path.write_text(_PLOT_STUB.format(files=_SUBCOMMANDS[subcommand].outputs))
    print(f"plot stub: {path}")


# ---------------------------------------------------------------------------
# entry point


class _Subcommand(NamedTuple):
    """What a subcommand runs, its --help line and the CSVs it writes into --out."""

    handler: Callable[[dict, list[pathlib.Path]], None]
    help: str
    outputs: list[str]


# The one declaration of every subcommand, in --help order, and the one place
# a CSV file name is written: main passes each handler its paths in run.out.
_SUBCOMMANDS = {
    "demo": _Subcommand(
        cmd_demo,
        "random LCU instance: partition scan, cross-checks, estimation reports",
        ["demo_partitions.csv", "demo_reports.csv", "demo_shots.csv"],
    ),
    "lchs": _Subcommand(cmd_lchs, "Hamiltonian-simulation bound-vs-nodes sweep", ["lchs_bound.csv"]),
    "qlss": _Subcommand(cmd_qlss, "linear-systems reduction-factor table over condition numbers", ["qlss_table.csv"]),
    "gsp": _Subcommand(cmd_gsp, "two-stage ground-state filter report", ["gsp_report.csv"]),
    "qed": _Subcommand(cmd_qed, "Steane-code biased-noise sweep", ["qed_sweep.csv"]),
    "partitions": _Subcommand(cmd_partitions, "exhaustive partition table with ancilla widths and R", ["partitions.csv"]),
}


_PLOT_FLAG = "--emit-plot-script"


def _usage(subcommand: str | None) -> str:
    if subcommand is None:
        return f"usage: hybridlcu [-h] [--version] {{{','.join(_SUBCOMMANDS)}}} ..."
    return f"usage: hybridlcu {subcommand} [-h] [--config PATH] [--KEY VALUE ...] [{_PLOT_FLAG}]"


def _help(subcommand: str | None) -> str:
    """The --help text; a subcommand's lists its config keys from the parameter table."""
    lines = [_usage(subcommand), ""]
    if subcommand is None:
        lines += ["Hybrid coherent/randomized LCU drivers with seeded CSV output.", "", "subcommands:"]
        lines += [f"  {name:<20} {spec.help}" for name, spec in _SUBCOMMANDS.items()]
        lines += ["", "options:"]
        options = [("--version", "print the version and exit")]
    else:
        lines += ["options (--flag value or --flag=value):"]
        options = [
            ("--config PATH", "key = value config file"),
            ("--KEY VALUE", "set run.KEY, a run.* key below"),
            (_PLOT_FLAG, "write a plot stub for the CSVs"),
        ]
    lines += [f"  {left:<20} {note}" for left, note in [("-h, --help", "show this help and exit"), *options]]
    if subcommand is not None:
        lines += ["", "config keys (key = value lines in --config; flags override run.*):"]
        for key, param in _table(subcommand).items():
            default = ", ".join(map(str, param.default)) if param.kind == "floats" else param.default
            span = param.range_text()
            lines.append(f"  {key:<16} {param.kind:<7} default {default}" + (f", range {span}" if span else ""))
    return "\n".join(lines)


def _usage_error(subcommand: str | None, message: str) -> NoReturn:
    prog = "hybridlcu" if subcommand is None else f"hybridlcu {subcommand}"
    print(f"{_usage(subcommand)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def parse_args(argv=None) -> Args:
    """Read ``<subcommand> [flags]``; --help and --version exit 0, a usage error exits 2.

    Flags are matched whole, so an abbreviated long flag is refused.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    head = argv[0] if argv else None
    if head in ("-h", "--help", "--version"):
        print(__version__ if head == "--version" else _help(None))
        raise SystemExit(EXIT_OK)
    if head is None:
        _usage_error(None, "the following arguments are required: subcommand")
    if head not in _SUBCOMMANDS:
        _usage_error(None, f"invalid choice: {head!r} (choose from {', '.join(map(repr, _SUBCOMMANDS))})")
    values, emit_plot_script = {}, False
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(head))
            raise SystemExit(EXIT_OK)
        if token == _PLOT_FLAG:
            emit_plot_script = True
            continue
        flag, eq, value = token.partition("=")
        key = "config" if flag == "--config" else "run." + flag[2:]
        if not flag.startswith("--") or (key != "config" and key not in _PARAMS):
            _usage_error(head, f"unrecognized arguments: {token}")
        if not eq:
            value = next(tokens, None)
            # a following long flag is not a value; a negative number is
            if value is None or value.startswith("--"):
                _usage_error(head, f"argument {flag}: expected one argument")
        values[key] = value
    return Args(head, values.pop("config", None), values, emit_plot_script)


def main(argv=None) -> int:
    # the objects the imports left outlive the run; unfrozen, whether a 1.4-1.9 ms collection
    # of them falls inside a run of a few ms depends on how many the package source allocates
    gc.freeze()
    try:
        args = parse_args(argv)  # a usage error raises SystemExit, which no handler below takes
        spec = _SUBCOMMANDS[args.subcommand]
        p = build_run_config(args)
        spec.handler(p, [p["run.out"] / name for name in spec.outputs])
        if args.emit_plot_script:
            _emit_plot_script(args.subcommand, p["run.out"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantViolation, np.linalg.LinAlgError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        # a driver refused a value (bad kappa, eps >= p0, ...): name the subcommand's keys it reads
        keys = ", ".join(key for key in _table(args.subcommand) if not key.startswith("run."))
        print(f"config error: {keys}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        gc.unfreeze()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
