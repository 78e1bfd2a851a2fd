"""The traced pass must leave the CLI's outputs unchanged and report every layer.

    python3 -m pytest perfbench/tests -q

Runs each subcommand on a small input once untraced, once traced and, for
the shot path, once under tracemalloc, each in a fresh interpreter, and
compares the CSV bytes.
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SMALL = (
    run.Invocation("demo", {"demo.m": 3, "demo.dim": 2}, ("--shots", "2000")),
    run.Invocation("partitions", {"partitions.m": 4, "partitions.dim": 2}),
    run.Invocation(
        "qed",
        {"qed.r_values": "0.1", "qed.pz_min": 0.001, "qed.pz_max": 0.1, "qed.pz_points": 2, "qed.codewords": 2},
    ),
    run.Invocation("lchs", {"lchs.points": 5}),
    run.Invocation("qlss", {"qlss.kappas": "4, 8"}),
    run.Invocation("gsp"),
)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("perfbench")
    out = {"run_dir": run_dir}
    for mode in ("plain", "trace", "memory"):
        workload = run.Workload("test", SMALL if mode != "memory" else SMALL[:1])
        out[mode] = run.run_round(workload, seed=5, mode=mode, run_dir=run_dir)
    return out


def test_instrumented_csvs_match_untraced(passes):
    for mode in ("plain", "trace", "memory"):
        for rec in passes[mode]:
            assert rec["exit"] == 0 and not rec["problems"], rec
    for mode in ("trace", "memory"):
        for plain, other in zip(passes["plain"], passes[mode]):
            assert plain["csv"], plain["subcommand"]
            assert other["csv"] == plain["csv"], (mode, plain["subcommand"])


def test_every_layer_name_is_wrapped_or_null(passes):
    traced = passes["trace"]
    for rec in traced:
        dump = rec["trace"]
        assert set(spans.TARGETS) <= set(dump["names"]) | set(dump["missing"])
    plain_run_s = sum(r["run_s"] for r in passes["plain"])
    values, stats = run.layer_metrics(traced, passes["memory"], plain_run_s, run.importtime_setup(1))
    assert [name for name, _ in spans.LAYER_METRICS] == list(values)
    missing = {name for rec in traced for name in rec["trace"]["missing"]}
    for name, value in values.items():
        target = name.rsplit(".", 1)[0]
        assert value is not None or target in missing, name
    assert values["hybrid.Sampler.sample_shots.calls"] == 2
    assert values["prng.draws"] == 2 * 2000 * 2
    assert values["hybrid.Sampler.sample_shots.peak_mb"] > 0
    written = sum(p.stat().st_size for p in passes["run_dir"].glob("trace-*/*.csv"))
    assert values["csv.bytes"] == written


def test_missing_target_is_null_with_a_warning(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", ("prng.no_such_function", "hybrid.NoSuchClass.method"))
    monkeypatch.setattr(spans, "MODULES", ("no_such_module",))
    monkeypatch.syspath_prepend(str(run.SRC))
    tracer = spans.Tracer()
    with pytest.warns(UserWarning, match="not found"):
        tracer.install()
    assert tracer.missing == ["prng.no_such_function", "hybrid.NoSuchClass.method"]

    dump = {"names": [], "missing": ["prng.uniforms"], "spans": [], "counters": {}}
    traced = [{"trace": dump, "run_s": 1.0}]
    values, _ = run.layer_metrics(traced, [], 1.0, {})
    assert values["prng.uniforms.calls"] is None
    assert values["prng.draws"] is None


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, w.why) for n, w in run.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert spec["paths"] == [HERE.name]
