"""End-to-end and per-layer benchmark of the hybridlcu CLI subcommands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Every CLI invocation runs ``hybridlcu.cli.main`` in a fresh interpreter
(perfbench/child.py), the way a user runs ``hybridlcu <subcommand>``, with
the package taken from ``src/`` of the checkout the script sits in.

``--trace 0`` repeats the workload's invocations in rounds for about
``--seconds`` seconds (at least three rounds) and reports the mean over
rounds of each end-to-end metric; the printed table adds the median, a high
percentile and the round count. ``--trace 1`` runs the workload once
untraced, once with spans (perfbench/spans.py), once under tracemalloc if it
samples shots, plus ``-X importtime`` imports, and reports the per-layer
metrics. Every round checks the CSVs the CLI wrote and compares their bytes
with the first round's. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with per-round samples, CSV hashes and machine facts, is
written under ``.bench_build/perfbench/results``. ``--workload all`` runs
every workload and prints one table.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_ROUNDS = 3
IMPORTTIME_RUNS = 3
INVOCATION_TIMEOUT_S = 150
DEFAULT_SHOTS = 20000
# roundoff allowance on the P <= R <= 1 and R >= P output checks
CHECK_TOL = 1e-12
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Invocation:
    """One ``hybridlcu <subcommand>`` call; config keys go to a ``key = value`` file."""

    subcommand: str
    config: dict = field(default_factory=dict)
    flags: tuple = ()

    @property
    def shots(self) -> int:
        """N, the rows of demo_shots.csv; 0 for subcommands that draw no shots."""
        if self.subcommand != "demo":
            return 0
        flags = list(self.flags)
        return int(flags[flags.index("--shots") + 1]) if "--shots" in flags else DEFAULT_SHOTS


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple


WORKLOADS = {
    "shots-1m": Workload(
        "one demo at 1M shots, dim 8: shot CSV writing, Philox draws and the sampler lookup dominate",
        (Invocation("demo", {"demo.m": 6, "demo.dim": 8}, ("--shots", "1000000", "--workers", "1")),),
    ),
    "partition-scan": Workload(
        "all 4140 partitions at m=8: reduction-factor evaluation dominates and no shots are drawn",
        (Invocation("partitions", {"partitions.m": 8, "partitions.dim": 8}),),
    ),
    "qed-sweep": Workload(
        "Steane-code noise sweep at defaults: QED density work only, no prng, hybrid or partition",
        (Invocation("qed"),),
    ),
    "cli-defaults": Workload(
        "demo, lchs, qlss and gsp at defaults, one process each: import and fixed set-up costs dominate",
        (Invocation("demo"), Invocation("lchs"), Invocation("qlss"), Invocation("gsp")),
    ),
}

# CSVs each subcommand must write
OUTPUTS = {
    "demo": ("demo_partitions.csv", "demo_reports.csv", "demo_shots.csv"),
    "partitions": ("partitions.csv",),
    "lchs": ("lchs_bound.csv",),
    "qlss": ("qlss_table.csv",),
    "gsp": ("gsp_report.csv",),
    "qed": ("qed_sweep.csv",),
}

END_TO_END = (
    ("wall_s", "s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed with the end-to-end table; the result line carries failures as
# ``failed`` / ``attempted``, and shots/s exists only where shots are drawn
PRINTED_ONLY = (("shots_per_s", "1/s"), ("ops_failed", "share"))


# ---------------------------------------------------------------------------
# output checks


def bell(m: int) -> int:
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def _data_rows(path: pathlib.Path):
    """Rows of a CSV without its trailing comment, streamed.

    A child's ru_maxrss includes this process's high-water RSS at the
    spawn, so the benchmark never holds a whole output file in memory.
    """
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not next(iter(row.values())).startswith("#"):
                yield row


def _last_line(path: pathlib.Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 4096))
        return fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


def check_outputs(inv: Invocation, out_dir: pathlib.Path, seed: int) -> list[str]:
    """Problems found in the CSVs of one invocation; empty when they pass."""
    problems = []
    for name in OUTPUTS[inv.subcommand]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if not _last_line(path).startswith(f"# seed={seed} "):
            problems.append(f"{name} lacks the seed trailer")
    if problems:
        return problems

    if inv.subcommand == "demo":
        rows = sum(1 for _ in _data_rows(out_dir / "demo_shots.csv"))
        if rows != inv.shots:
            problems.append(f"demo_shots.csv has {rows} rows, expected {inv.shots}")
    elif inv.subcommand == "partitions":
        rows = list(_data_rows(out_dir / "partitions.csv"))
        m = inv.config.get("partitions.m", 5)
        if len(rows) != bell(m):
            problems.append(f"partitions.csv has {len(rows)} rows, expected Bell({m}) = {bell(m)}")
        coherent = [float(r["R"]) for r in rows if "|" not in r["partition"]]
        if len(coherent) != 1:
            problems.append("partitions.csv has no single coherent row")
        else:
            p = coherent[0]
            bad = [r["partition"] for r in rows if not p - CHECK_TOL <= float(r["R"]) <= 1.0 + CHECK_TOL]
            if bad:
                problems.append(f"partitions.csv: {len(bad)} rows outside P <= R <= 1, first {bad[0]}")
    elif inv.subcommand == "qed":
        rows = list(_data_rows(out_dir / "qed_sweep.csv"))
        bad = [r for r in rows if float(r["R"]) < float(r["P"]) - CHECK_TOL]
        if not rows or bad:
            problems.append(f"qed_sweep.csv: {len(bad)} of {len(rows)} rows with R < P")
    elif inv.subcommand == "lchs":
        rows = sum(1 for _ in _data_rows(out_dir / "lchs_bound.csv"))
        points = inv.config.get("lchs.points", 60)
        if rows != points:
            problems.append(f"lchs_bound.csv has {rows} rows, expected {points}")
    return problems


def _sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_hashes(out_dir: pathlib.Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(out_dir.glob("*.csv"))}


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: matrices here are at most 128 x 128, where a second
    # thread saves no wall time but spins a second core and adds noise.
    for key in BLAS_THREAD_ENV:
        env.setdefault(key, "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_invocation(inv: Invocation, seed: int, mode: str, run_dir: pathlib.Path, tag: str) -> dict:
    """Run one CLI invocation in a fresh interpreter and check what it wrote."""
    out_dir = run_dir / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [inv.subcommand, "--seed", str(seed), "--out", str(out_dir), *inv.flags]
    if inv.config:
        cfg = run_dir / f"{tag}.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in inv.config.items()))
        argv += ["--config", str(cfg)]
    result_path = run_dir / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), "--", *argv]

    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"subcommand": inv.subcommand, "exit": None, "problems": ["timed out"], "csv": {}}
    wall_s = time.perf_counter() - start

    record = {"subcommand": inv.subcommand, "exit": proc.returncode, "wall_s": wall_s, "problems": []}
    if proc.returncode != 0 or not result_path.is_file():
        record["problems"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        record["csv"] = {}
        return record
    record.update(json.loads(result_path.read_text()))
    for line in proc.stderr.splitlines():
        if "reported as null" in line:
            print(f"warning: {line.strip()}", file=sys.stderr)
    record["problems"] += check_outputs(inv, out_dir, seed)
    record["csv"] = csv_hashes(out_dir)
    return record


def run_round(workload: Workload, seed: int, mode: str, run_dir: pathlib.Path) -> list[dict]:
    return [
        run_invocation(inv, seed, mode, run_dir, f"{mode}-{i}-{inv.subcommand}")
        for i, inv in enumerate(workload.invocations)
    ]


def compare_bytes(reference: list[dict], rounds: list[list[dict]], what: str) -> None:
    """Flag invocations whose CSV bytes differ from the reference round's."""
    for records in rounds:
        for ref, rec in zip(reference, records):
            if rec["csv"] and ref["csv"] and rec["csv"] != ref["csv"]:
                names = ref["csv"].keys() | rec["csv"].keys()
                changed = sorted(k for k in names if ref["csv"].get(k) != rec["csv"].get(k))
                rec["problems"].append(f"{what}: bytes differ in {', '.join(changed)}")


def importtime_setup(runs: int) -> dict[str, float]:
    """Median over runs of the import self time, summed per top-level package."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "hybridlcu": []}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hybridlcu.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
        )
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(parts[0].split(":")[1]) / 1e6
        for key, value in totals.items():
            samples[key].append(value)
    return {f"setup.{key}_s": statistics.median(values) for key, values in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{math.floor(100 * (n - 10) / n)}", ordered[n - 11]


def end_to_end(workload: Workload, rounds: list[list[dict]]) -> dict[str, list[float]]:
    """Per-round samples of every end-to-end metric."""
    # demo draws N shots from each of two Sampler streams
    shots = 2 * sum(inv.shots for inv in workload.invocations)
    samples = {name: [] for name, _ in END_TO_END + PRINTED_ONLY}
    for records in rounds:
        ok = [r for r in records if "run_s" in r]
        failed = sum(1 for r in records if r["problems"])
        samples["ops_failed"].append(failed / len(records))
        if len(ok) != len(records):
            continue
        run_s = sum(r["run_s"] for r in ok)
        samples["wall_s"].append(sum(r["wall_s"] for r in ok))
        samples["run_s"].append(run_s)
        samples["setup_s"].append(sum(r["setup_s"] for r in ok))
        samples["peak_rss_mb"].append(max(r["maxrss_kb"] for r in ok) * 1024 / 1e6)
        if shots:
            samples["shots_per_s"].append(shots / run_s)
    return samples


def layer_metrics(
    traced: list[dict], memory: list[dict], plain_run_s: float, setup: dict[str, float]
) -> tuple[dict[str, float | None], dict]:
    """Per-layer values (None for a name the package no longer has) and per-target stats."""
    dumps = [r["trace"] for r in traced]
    stats = spans.aggregate(dumps)
    values: dict[str, float | None] = {}
    for target, entry in stats.items():
        values[f"{target}.calls"] = entry["calls"]
        values[f"{target}.self_s"] = entry["self_s"]

    # counters: zero for a wrapped target never called, None once any process lost one
    defaults = {"prng.draws": "prng.uniforms", f"{spans.SAMPLE_SHOTS}.table_mb_computed": spans.SAMPLE_SHOTS}
    defaults.update({f"{w}.bytes": w for w in stats if spans.is_writer(w)})
    for key, target in defaults.items():
        if target in stats:
            values[key] = 0
    for dump in dumps:
        for key, value in dump["counters"].items():
            old = values.get(key, 0)
            if value is None or old is None:
                values[key] = None
            elif key.endswith("table_mb_computed"):
                values[key] = max(old, value)
            else:
                values[key] = old + value

    if spans.SAMPLE_SHOTS in stats:
        peaks = [r["memory"]["peak_mb"] for r in memory]
        values[f"{spans.SAMPLE_SHOTS}.peak_mb"] = None if None in peaks else max(peaks, default=0.0)

    writers = [w for w in stats if spans.is_writer(w)]
    if writers:
        sizes = [values.get(f"{w}.bytes") for w in writers]
        values["csv.bytes"] = None if None in sizes else sum(sizes)
        values["csv.self_s"] = sum(stats[w]["self_s"] for w in writers)

    trace_run_s = sum(r["run_s"] for r in traced)
    values["trace.run_s"] = trace_run_s
    values["trace.overhead_s"] = trace_run_s - plain_run_s
    listed = sum(entry["self_s"] for target, entry in stats.items() if target != "cli.main")
    values["trace.listed_share"] = listed / trace_run_s
    values.update(setup)

    missing = sorted({name for dump in dumps for name in dump["missing"]})
    for name in missing:
        print(f"warning: trace target {name} not found in hybridlcu; its metrics are null", file=sys.stderr)
    return {name: values.get(name) for name, _ in spans.LAYER_METRICS}, stats


# ---------------------------------------------------------------------------
# runs


def machine_facts(facts: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": commit,
        **facts,
    }


def warm_up(run_dir: pathlib.Path) -> dict:
    """Untimed import: compiles bytecode, fills the page cache, returns library facts."""
    result_path = run_dir / "facts.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "facts", str(result_path)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import hybridlcu.cli from {SRC}: {proc.stderr.strip()[-400:]}")
    return json.loads(result_path.read_text())["facts"]


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced rounds for about ``seconds``; end-to-end metrics as means over rounds.

    The mean, not the median: a shots-1m run has three or four rounds, so
    its median is a single round, and on a host whose speed swings between
    two levels for seconds at a time the mean of the rounds spread about
    half as much across runs.
    """
    workload = WORKLOADS[name]
    run_dir = WORK / name
    run_dir.mkdir(parents=True, exist_ok=True)
    facts = warm_up(run_dir)
    rounds: list[list[dict]] = []
    begin = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seed, "plain", run_dir))
        elapsed = time.perf_counter() - begin
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    compare_bytes(rounds[0], rounds[1:], "rerun with the same seed")

    samples = end_to_end(workload, rounds)
    summary = {}
    for metric, unit in END_TO_END + PRINTED_ONLY:
        values = samples[metric]
        if values:
            label, high = high_percentile(values)
            summary[metric] = {
                "unit": unit,
                "mean": statistics.fmean(values),
                "median": statistics.median(values),
                label: high,
                "n": len(values),
            }
    records = [r for records in rounds for r in records]
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "machine": machine_facts(facts),
        "summary": summary,
        "samples": samples,
        "rounds": rounds,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "metrics": {
            metric: {"value": summary[metric]["mean"], "unit": unit}
            for metric, unit in END_TO_END
            if metric in summary
        },
    }


def measure_layers(name: str, seed: int) -> dict:
    """One untraced, one traced and (if shots are drawn) one tracemalloc round."""
    workload = WORKLOADS[name]
    run_dir = WORK / name
    run_dir.mkdir(parents=True, exist_ok=True)
    facts = warm_up(run_dir)
    plain = run_round(workload, seed, "plain", run_dir)
    traced = run_round(workload, seed, "trace", run_dir)
    memory = []
    sampled = spans.aggregate([r["trace"] for r in traced if "trace" in r]).get(spans.SAMPLE_SHOTS, {})
    if sampled.get("calls"):
        memory = run_round(workload, seed, "memory", run_dir)
    compare_bytes(plain, [traced, memory], "instrumented pass")
    records = plain + traced + memory
    failed = sum(1 for r in records if r["problems"])

    layers, stats = {}, {}
    if not failed:
        setup = importtime_setup(IMPORTTIME_RUNS)
        layers, stats = layer_metrics(traced, memory, sum(r["run_s"] for r in plain), setup)
    units = dict(spans.LAYER_METRICS)
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "machine": machine_facts(facts),
        "targets": stats,
        "rounds": [
            [{k: v for k, v in r.items() if k not in ("trace", "memory")} for r in records]
            for records in (plain, traced, memory)
        ],
        "attempted": len(records),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in layers.items()},
    }


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    for rec in (r for records in result["rounds"] for r in records):
        for problem in rec["problems"]:
            print(f"  FAILED {rec['subcommand']}: {problem}")
    if result["trace"]:
        for metric, entry in result["metrics"].items():
            value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {metric:<48} {value:>14} {entry['unit']}")
        return
    for metric, entry in result["summary"].items():
        high = next(k for k in entry if k not in ("unit", "mean", "median", "n"))
        print(
            f"  {metric:<14} {entry['unit']:<6} mean {entry['mean']:<12.6g} median {entry['median']:<12.6g}"
            f" {high} {entry[high]:<12.6g} n={entry['n']}"
        )
    for rec in result["rounds"][0]:
        for fname, digest in rec["csv"].items():
            print(f"  sha256 {rec['subcommand']}/{fname} {digest}")


def save(result: dict) -> pathlib.Path:
    path = WORK / "results" / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybridlcu" / "cli.py").is_file():
        print(f"error: {SRC / 'hybridlcu' / 'cli.py'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure_layers(name, args.seed) if args.trace else measure(name, args.seed, args.seconds)
        print_summary(result)
        print(f"  results: {save(result)}")
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all":
        metrics = {r["workload"]: r["metrics"] for r in results}
    else:
        metrics = results[0]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
