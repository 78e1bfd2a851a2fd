"""CLI checks: config parsing, exit codes, CSV shape, worker determinism."""

import dataclasses
import gc
import hashlib
import inspect
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import qed_sweep_at_defaults

import hybridlcu
from hybridlcu import cli, estimate, gsp, hybrid, lchs, partition, qcore, qed, qlss


def run_cli(args, tmp_path, capsys=None):
    code = cli.main([*args, "--out", str(tmp_path)])
    return code


def read_lines(path):
    return path.read_text().splitlines()


def patch_table_g(monkeypatch, transform):
    # rewrite the g column of every sampler's outcome table, which both the
    # shot CSV and the shot statistics read
    unpatched = hybrid.Sampler.__init__

    def init(self, channel, state, obs):
        unpatched(self, channel, state, obs)
        table = self.table.copy()
        table.g = transform(table.g, obs)
        self.table = table

    monkeypatch.setattr(hybrid.Sampler, "__init__", init)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    text = "\n".join(
        [
            "# comment only",
            "",
            "run.seed = 7   # trailing comment",
            "demo.m=3",
            "qed.r_values = 0.1, 0.2",
        ]
    )
    cfg = cli.parse_config_text(text)
    assert cfg == {"run.seed": "7", "demo.m": "3", "qed.r_values": "0.1, 0.2"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("just words\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("= 3\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("a = 1\na = 2\n")


def test_coerce_types():
    assert cli._coerce("x", "int", "12") == 12
    assert cli._coerce("x", "float", "1e-3") == pytest.approx(1e-3)
    assert cli._coerce("x", "floats", "1, 2,3") == (1.0, 2.0, 3.0)
    with pytest.raises(cli.ConfigError):
        cli._coerce("x", "int", "1.5")
    with pytest.raises(cli.ConfigError):
        cli._coerce("x", "floats", " , ")


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.seed = 1\nrun.shots = 500\npartitions.m = 3\n")
    code = cli.main(
        ["partitions", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    assert read_lines(tmp_path / "partitions.csv")[-1] == "# seed=9 version=0.1.0"


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("demo.turbo = yes\n")
    assert cli.main(["demo", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_grid_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("qed.pz_min = 1e-3\nqed.pz_points = 4\n")
    assert cli.main(["qed", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "qed.pz_max" in capsys.readouterr().err


def test_bad_values_are_config_errors(tmp_path, capsys):
    cases = [
        ("demo", "demo.m = 9\n"),  # above the demo cap
        ("demo", "demo.m = banana\n"),
        ("demo", "run.workers = 0\n"),
        ("demo", "run.shots = 0\n"),
        ("demo", "run.shots = 18446744073709551617\n"),  # past the last Philox shot index
        ("lchs", "lchs.points = 0\n"),
        ("lchs", "lchs.p_assumed = 0\n"),
        ("lchs", "lchs.p_assumed = -0.5\n"),
        ("lchs", "lchs.l_norm = -1\n"),
        ("lchs", "lchs.l_norm = inf\n"),
        ("lchs", "lchs.t = inf\n"),
        ("lchs", "lchs.t = nan\n"),
        ("lchs", "lchs.t = 1e300\n"),  # finite, but M overflows
        ("lchs", "lchs.epsilon = 1e-300\n"),  # K1 ~ 1.6e16: M overflows
        ("lchs", "lchs.epsilon = 1\n"),  # K1 = 0
        ("qlss", "qlss.dim = 0\n"),
        ("qed", "qed.pz_min = 1e-3\nqed.pz_max = 1e-2\nqed.pz_points = 0\n"),
        ("qed", "qed.codewords = 0\n"),
    ]
    for subcommand, text in cases:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2, (subcommand, text)
    # a value that passes the key table but that the driver refuses is named by key too
    driver_refused = [
        ("qlss", "qlss.kappas = 1e9\n", "qlss.kappas"),  # 2K+1 ~ 1e11 inner nodes
        ("gsp", "gsp.p0 = 1.5\n", "gsp.p0"),
        ("qed", "qed.pz_min = 1e-3\nqed.pz_max = 2\nqed.pz_points = 4\n", "qed.pz_max"),
        ("lchs", "lchs.t = -1\n", "lchs.t"),
    ]
    for subcommand, text, key in driver_refused:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2, (subcommand, text)
        assert key in capsys.readouterr().err, (subcommand, text)
    # non-finite floats are refused while the config is read, by key
    non_finite = [
        ("demo", "demo.delta", "inf"),
        ("qlss", "qlss.kappas", "4, inf"),
        ("qed", "qed.r_values", "nan"),
    ]
    for subcommand, key, value in non_finite:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"{key} = {value}\n")
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2, (key, value)
        err = capsys.readouterr().err
        assert key in err and "not finite" in err, err
    # a gsp dimension below 2 is refused by key, not by numpy's negative-dimension error
    for value in ("1", "0", "-3"):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"gsp.dim = {value}\n")
        capsys.readouterr()
        assert cli.main(["gsp", "--config", str(cfg), "--out", str(tmp_path)]) == 2, value
        assert "gsp.dim" in capsys.readouterr().err
    # one step past each side of every bound in the key table (so demo.dim = 129,
    # partitions.m = 0, ...) is refused by key, as is a seed below 0
    out_of_range = [("run.seed", -1)]
    for key, param in cli._PARAMS.items():
        out_of_range += [(key, bound + step) for bound, step in ((param.lo, -1), (param.hi, 1)) if bound is not None]
    for key, value in out_of_range:
        subcommand = "demo" if key.startswith("run.") else key.split(".")[0]
        # the qed grid is given whole
        grid = "qed.pz_min = 1e-3\nqed.pz_max = 1e-1\n" if key == "qed.pz_points" else ""
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"{grid}{key} = {value}\n")
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2, (key, value)
        assert key in capsys.readouterr().err, (key, value)
    # flags are checked by the same table
    for flag, key in (("--shots", "run.shots"), ("--workers", "run.workers"), ("--seed", "run.seed")):
        capsys.readouterr()
        assert cli.main(["partitions", flag, "-1", "--out", str(tmp_path)]) == 2, flag
        assert key in capsys.readouterr().err, flag


def test_dimension_above_pure_state_cap_is_config_error(tmp_path, monkeypatch, capsys):
    # refused by key before any instance is built, not by a MemoryError
    def never_built(*args, **kwargs):
        raise AssertionError("instance built for an over-cap dimension")

    monkeypatch.setattr(gsp, "random_gsp_instance", never_built)
    monkeypatch.setattr(qlss, "sweep", never_built)
    for subcommand in ("gsp", "qlss"):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"{subcommand}.dim = {qcore.MAX_PURE_DIM + 1}\n")
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2, subcommand
        assert f"{subcommand}.dim" in capsys.readouterr().err


def test_run_defaults_are_written_only_in_the_key_table():
    # cmd_lchs passes each lchs.* key as the fig_sweep parameter it names, in order
    names = [key.removeprefix("lchs.") for key in cli._PARAMS if key.startswith("lchs.")]
    assert names == list(inspect.signature(lchs.fig_sweep).parameters)
    # no driver parameter that a key feeds keeps a default of its own, which
    # could drift from the table's
    fed = {
        lchs.fig_sweep: names,
        qlss.sweep: ["kappas", "epsilon", "dim", "seed"],
        qlss.random_instance: ["dim", "seed"],
        qed.fig_sweep: ["r_values", "pz_grid", "codewords", "seed"],
    }
    for driver, fed_names in fed.items():
        params = inspect.signature(driver).parameters
        for name in fed_names:
            assert params[name].default is inspect.Parameter.empty, f"{driver.__module__}.{driver.__name__}: {name}"


def test_help_lists_every_config_key(capsys):
    for subcommand in cli._SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            cli.main([subcommand, "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for key, param in cli._table(subcommand).items():
            (line,) = [line for line in lines if line.split()[:1] == [key]]
            assert param.kind in line and "default" in line and param.range_text() in line, line


def test_resolved_table_holds_every_key(tmp_path):
    out = tmp_path / "a" / "b"
    p = cli.build_run_config(cli.parse_args(["qed", "--seed", str(2**64 - 1), "--out", str(out)]))
    assert p.keys() == cli._table("qed").keys()
    assert p["run.seed"] == 2**64 - 1 and p["run.out"] == out and out.is_dir()


def test_unusable_out_is_named(tmp_path, capsys):
    # an existing file and a NUL byte are refused as run.out, with no traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = tmp_path / "nul.cfg"
    cfg.write_text("run.out = a\0b\n")
    for argv in (["qed", "--out", str(afile)], ["gsp", "--config", str(cfg)]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: run.out") and "gsp.p0" not in err and "Traceback" not in err, err


def test_output_path_that_is_a_directory_is_named(tmp_path, capsys):
    # a declared CSV path that is a directory is refused before the run starts
    for subcommand, spec in cli._SUBCOMMANDS.items():
        out = tmp_path / subcommand
        (out / spec.outputs[-1]).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main([subcommand, "--out", str(out)]) == 2, subcommand
        err = capsys.readouterr().err
        assert err.startswith("config error: run.out") and spec.outputs[-1] in err and "Traceback" not in err, err
        assert sorted(path.name for path in out.iterdir()) == [spec.outputs[-1]]


def test_absent_config_file_is_config_error(tmp_path, capsys):
    assert cli.main(["demo", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
    # a file that is not text is named as the fault, not the subcommand's keys
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfe = 1\n")
    capsys.readouterr()
    assert cli.main(["gsp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "binary.cfg" in err and "gsp.p0" not in err, err


def test_utf8_config_read_under_ascii_locale(tmp_path):
    # a fresh interpreter whose locale codec is ASCII: the config file is
    # UTF-8 whatever the locale, so a non-ASCII comment is no fault
    cfg = tmp_path / "qed.cfg"
    cfg.write_text("# p_Z grid for \u03c1\nqed.pz_min = 1e-3\nqed.pz_max = 1e-1\nqed.pz_points = 4\n", "utf-8")
    src = pathlib.Path(hybridlcu.__file__).parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(src)}
    argv = ["-m", "hybridlcu.cli", "qed", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(read_lines(tmp_path / "qed_sweep.csv")) == 12 + 2


def test_bad_demo_delta_refused_before_any_shot(tmp_path, capsys):
    # the estimation config is built first, so a bad demo.delta draws no shot and writes no CSV
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("demo.delta = 1.5\n")
    out = tmp_path / "out"
    assert cli.main(["demo", "--config", str(cfg), "--shots", "1000000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "demo.delta" in captured.err and "cross-check ok" not in captured.out
    assert list(out.glob("*.csv")) == []


def test_module_validation_maps_to_config_error(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("gsp.epsilon = 0.9\ngsp.p0 = 0.5\n")
    assert cli.main(["gsp", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_partitions_m_cap(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("partitions.m = 11\n")
    assert cli.main(["partitions", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_backend_disagreement_exits_three(tmp_path, monkeypatch, capsys):
    def broken(channel, state, obs, backend="analytic"):
        return 1.0 if backend == "analytic" else 0.0

    monkeypatch.setattr(cli.hybrid, "exact_expectation", broken)
    code = cli.main(["demo", "--seed", "1", "--shots", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "invariant violation" in capsys.readouterr().err


def test_numerical_fault_exits_three(tmp_path, monkeypatch, capsys):
    # a pair-weight sum off by more than the tolerance is a numerical fault, not a config error
    monkeypatch.setattr(hybrid, "TOL", dataclasses.replace(qcore.TOL, prob_norm=-1.0))
    code = cli.main(["demo", "--seed", "1", "--shots", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "invariant violation: pair weights sum to" in capsys.readouterr().err
    # a failed run writes none of its CSVs
    assert list(tmp_path.glob("*.csv")) == []

    # LinAlgError subclasses ValueError but a failed factorisation is not a config error
    def failed_factorisation(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(qed, "fig_sweep", failed_factorisation)
    assert cli.main(["qed", "--seed", "1", "--out", str(tmp_path)]) == 3

    # a biased sampler fails the Monte-Carlo cross-check
    monkeypatch.undo()
    patch_table_g(monkeypatch, lambda g, obs: 0.9 * g + 0.02)
    capsys.readouterr()
    assert cli.main(["demo", "--seed", "2", "--out", str(tmp_path)]) == 3
    assert "invariant violation: monte-carlo mean" in capsys.readouterr().err

    # so does one that halves the identity batch (stream 1) behind the ratio estimate
    monkeypatch.undo()
    patch_table_g(monkeypatch, lambda g, obs: g / 2.0 if np.array_equal(obs, np.eye(len(obs))) else g)
    for seed in ("1", "2", "3"):
        assert cli.main(["demo", "--seed", seed, "--out", str(tmp_path)]) == 3
        assert "invariant violation: monte-carlo mean" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_failed_eigensolve_exits_three(tmp_path, monkeypatch, capsys):
    # the observable passed the Hermiticity check, so eigenvectors that do not
    # reconstruct it are a numerical fault, not a config error
    eigh = np.linalg.eigh

    def skewed(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        return w, v * 1.01

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    assert cli.main(["demo", "--seed", "1", "--shots", "10", "--out", str(tmp_path)]) == 3
    assert "invariant violation: spectral reconstruction residual" in capsys.readouterr().err


def test_non_unitary_driver_term_exits_three(tmp_path, monkeypatch, capsys):
    # the driver builds the demo's terms itself, so one that fails the
    # unitarity check is a numerical fault, not a config error
    haar = cli._haar_unitary
    monkeypatch.setattr(cli, "_haar_unitary", lambda dim, rng: 1.0001 * haar(dim, rng))
    assert cli.main(["demo", "--seed", "1", "--shots", "10", "--out", str(tmp_path)]) == 3
    assert "invariant violation: term matrix is not unitary" in capsys.readouterr().err


def test_failed_gate_leaves_no_shot_csv(tmp_path, monkeypatch, capsys):
    # the shot CSV is written under a temporary name and moved into place only
    # after both Monte-Carlo gates pass, and the other two tables after them;
    # a failed gate leaves no file
    patch_table_g(monkeypatch, lambda g, obs: 0.9 * g + 0.02)
    assert cli.main(["demo", "--seed", "2", "--out", str(tmp_path)]) == 3
    assert "invariant violation: monte-carlo mean" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["directory", "file"])
def test_demo_temporary_name_leaves_existing_entry(tmp_path, kind):
    # the shot CSV is written under a fresh temporary name, so an entry that
    # holds the name demo_shots.csv.tmp is neither written through nor in the way
    entry = tmp_path / "demo_shots.csv.tmp"
    if kind == "directory":
        entry.mkdir()
        (entry / "kept").write_text("user data\n")
    else:
        entry.write_text("user data\n")
    assert cli.main(["demo", "--shots", "2000", "--out", str(tmp_path)]) == 0
    outputs = cli._SUBCOMMANDS["demo"].outputs
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*outputs, entry.name])
    assert (entry / "kept" if kind == "directory" else entry).read_text() == "user data\n"
    # the shot CSV gets the mode of the CSVs written in place
    assert {(tmp_path / name).stat().st_mode for name in outputs} == {(tmp_path / outputs[0]).stat().st_mode}


def test_demo_memory_bounded_in_shots(tmp_path):
    # shots are drawn, written and tallied one chunk at a time, at the chunk
    # size that ships: four times the chunks moves the traced peak by under
    # 10 %, and the peak stays within 3 MB (about 2 MB at 4 x 16384 shots; a
    # run that kept 16 B per shot would read 4 MB more at 16 chunks).
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("demo.m = 6\ndemo.dim = 8\n")
    peaks = []
    for chunks in (4, 16):
        shots = str(chunks * hybrid._CSV_CHUNK_ROWS)
        tracemalloc.start()
        try:
            code = cli.main(["demo", "--config", str(cfg), "--seed", "1", "--shots", shots, "--out", str(tmp_path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert peaks[0] <= 3_000_000, peaks


def test_each_subcommand_writes_exactly_its_declared_files(tmp_path):
    small = {
        "demo": "",
        "partitions": "partitions.m = 3\n",
        "lchs": "lchs.points = 2\n",
        "qlss": "qlss.kappas = 4\nqlss.dim = 2\n",
        "gsp": "gsp.dim = 4\n",
        "qed": "qed.r_values = 0.1\nqed.pz_min = 1e-3\nqed.pz_max = 1e-2\nqed.pz_points = 2\nqed.codewords = 2\n",
    }
    assert small.keys() == cli._SUBCOMMANDS.keys()
    trailer = f"# seed={cli._PARAMS['run.seed'].default} version={hybridlcu.__version__}"
    for name, text in small.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert cli.main([name, "--config", str(cfg), "--shots", "200", "--out", str(out)]) == 0, name
        assert sorted(path.name for path in out.iterdir()) == sorted(cli._SUBCOMMANDS[name].outputs), name
        for csv_name in cli._SUBCOMMANDS[name].outputs:
            assert read_lines(out / csv_name)[-1] == trailer, (name, csv_name)


def test_demo_outputs_are_chunk_invariant(tmp_path, monkeypatch):
    # 2500 shots in one chunk, in chunks of 1000 and in chunks of 777 (a
    # partial last chunk) write the same three CSVs, byte for byte
    outputs = []
    for rows in (hybrid._CSV_CHUNK_ROWS, 1000, 777):
        monkeypatch.setattr(hybrid, "_CSV_CHUNK_ROWS", rows)
        out = tmp_path / str(rows)
        assert cli.main(["demo", "--seed", "5", "--shots", "2500", "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in cli._SUBCOMMANDS["demo"].outputs})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class InlineThread(threading.Thread):
    """A thread whose start() runs its target on the caller, to the end."""

    def start(self):
        self.run()

    def join(self, timeout=None):
        pass


@pytest.mark.parametrize("shots", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_demo_identity_thread_matches_inline_run(tmp_path, monkeypatch, shots):
    # the identity stream tallied on its helper thread, beside the observable
    # stream, and tallied inline before it write the same three CSVs, at shot
    # counts around the chunk boundary. The threaded run switches threads
    # every microsecond, so the two streams interleave at many points, and
    # each identity chunk waits 20 ms first, so the writer finishes before
    # the tally does and the reports must wait for it.
    monkeypatch.setattr(hybrid, "_CSV_CHUNK_ROWS", 4096)
    unpatched = hybrid.Sampler.sample_shots

    def sample_shots(self, seed, count, start=0, stream=0, buffers=None):
        if stream == 1:
            time.sleep(0.02)
        return unpatched(self, seed, count, start=start, stream=stream, buffers=buffers)

    monkeypatch.setattr(hybrid.Sampler, "sample_shots", sample_shots)
    switch = sys.getswitchinterval()
    runs = []
    for threaded in (True, False):
        if not threaded:
            monkeypatch.setattr(cli.threading, "Thread", InlineThread)
        out = tmp_path / str(threaded)
        sys.setswitchinterval(1e-6 if threaded else switch)
        try:
            code = cli.main(["demo", "--seed", "3", "--shots", str(shots), "--out", str(out)])
        finally:
            sys.setswitchinterval(switch)
        runs.append((code, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_demo_identity_failure_exits_three_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    # a fault on the helper thread stops the observable stream at its next
    # chunk and exits 3 with its own message; no CSV, no temporary, no thread is left
    unpatched = hybrid.Sampler.sample_shots

    def sample_shots(self, seed, count, start=0, stream=0, buffers=None):
        if stream == 1:
            raise qcore.InvariantViolation("identity stream broke")
        return unpatched(self, seed, count, start=start, stream=stream, buffers=buffers)

    monkeypatch.setattr(hybrid.Sampler, "sample_shots", sample_shots)
    threads = threading.active_count()
    begin = time.perf_counter()
    assert cli.main(["demo", "--shots", str(2**40), "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - begin < 10.0
    assert "invariant violation: identity stream broke" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert sorted(path.name for path in tmp_path.iterdir()) == []


def test_demo_writer_failure_stops_the_identity_thread(tmp_path, monkeypatch):
    # a writer that fails after its first chunk stops the helper at its next
    # chunk: the run raises at once rather than tallying 2**40 identity shots
    def write_shot_csv(path, table, seed, chunks):
        next(iter(chunks))
        raise OSError("disk full")

    monkeypatch.setattr(hybrid, "write_shot_csv", write_shot_csv)
    threads = threading.active_count()
    begin = time.perf_counter()
    with pytest.raises(OSError, match="disk full"):
        cli.main(["demo", "--shots", str(2**40), "--out", str(tmp_path)])
    assert time.perf_counter() - begin < 10.0
    assert threading.active_count() == threads
    assert sorted(path.name for path in tmp_path.iterdir()) == []


def test_demo_few_shots_pass_or_config_error(tmp_path):
    # one or two shots: the Monte-Carlo gate holds at every N, and an identity
    # batch of mean 0 (no ratio estimate) is a config error, not a traceback
    codes = {
        (shots, seed): cli.main(["demo", "--seed", str(seed), "--shots", str(shots), "--out", str(tmp_path)])
        for shots in (1, 2)
        for seed in (1, 2, 3, 4)
    }
    assert set(codes.values()) <= {0, 2}, codes


def test_demo_too_few_shots_for_a_ratio_names_run_shots(tmp_path, capsys):
    # at demo.dim = 2 and seed 0 the one identity shot reads 0, so the ratio
    # estimate is undefined: a config error on run.shots, and no CSV is left
    cfg = tmp_path / "d2.cfg"
    cfg.write_text("demo.dim = 2\n")
    out = tmp_path / "out"
    assert cli.main(["demo", "--config", str(cfg), "--seed", "0", "--shots", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.shots = 1 is too few: "), err
    assert "ratio undefined" in err
    assert list(out.iterdir()) == []


def test_demo_rounding_negative_variance_passes_gate(tmp_path):
    # at m = 1, seed 27 the exact variance E[g^2] - E[g]^2 rounds to -6.7e-16; the
    # Bernstein gate, which refuses a negative variance, must see it as 0
    cfg = tmp_path / "m1.cfg"
    cfg.write_text("demo.m = 1\ndemo.dim = 2\n")
    assert cli.main(["demo", "--config", str(cfg), "--seed", "27", "--shots", "100", "--out", str(tmp_path)]) == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_flag_equals_form_matches_spaced_form():
    assert cli.parse_args(["qed", "--seed=3", "--out=runs"]) == cli.parse_args(["qed", "--seed", "3", "--out", "runs"])
    assert cli.parse_args(["qed", "--seed=3"]).flags == {"run.seed": "3"}


def test_repeated_flag_last_wins(tmp_path):
    args = cli.parse_args(["qed", "--seed", "1", "--config", "a.cfg", "--seed=7", "--config", "b.cfg"])
    assert args.flags == {"run.seed": "7"} and args.config == "b.cfg"
    assert cli.main(["partitions", "--seed", "1", "--seed", "9", "--out", str(tmp_path)]) == 0
    assert read_lines(tmp_path / "partitions.csv")[-1] == "# seed=9 version=0.1.0"


def test_every_run_key_is_a_flag(tmp_path, capsys):
    # the flags are read from the parameter table: --NAME sets run.NAME, whole
    # and in both forms, and --help names each run key once, in the key table
    values = {"run.seed": "5", "run.shots": "7", "run.out": str(tmp_path / "flagged"), "run.workers": "2"}
    run_keys = [key for key in cli._PARAMS if key.startswith("run.")]
    assert sorted(run_keys) == sorted(values)
    with pytest.raises(SystemExit) as exc:
        cli.main(["qed", "--help"])
    assert exc.value.code == 0
    words = capsys.readouterr().out.split()
    for key in run_keys:
        flag = "--" + key.removeprefix("run.")
        for given in ([flag, values[key]], [f"{flag}={values[key]}"]):
            args = cli.parse_args(["qed", "--out", str(tmp_path), *given])
            assert args.flags[key] == values[key]
            assert str(cli.build_run_config(args)[key]) == values[key]
        for wrong in (flag[:-1], "--" + key):
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(["qed", wrong, values[key]])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {wrong}" in capsys.readouterr().err
        assert sum(word in (key, flag) for word in words) == 1, key


def test_run_freezes_the_import_objects_and_thaws_them(tmp_path, monkeypatch):
    # the handler runs with every object older than the run frozen; main leaves no
    # frozen object behind, on success and on a usage error alike
    frozen = []
    unpatched = lchs.fig_sweep
    monkeypatch.setattr(lchs, "fig_sweep", lambda **kw: frozen.append(gc.get_freeze_count()) or unpatched(**kw))
    assert run_cli(["lchs"], tmp_path) == 0
    assert frozen[0] > 10_000 and gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        cli.main(["no-such-subcommand"])
    assert gc.get_freeze_count() == 0


def test_lchs_overflowing_overhead_is_config_error(tmp_path, capsys):
    # P^2 underflows to 0, so the overhead bound has no float value
    cfg = tmp_path / "p.cfg"
    cfg.write_text("lchs.p_assumed = 1e-200\n")
    assert cli.main(["lchs", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "lchs.p_assumed" in err and "Traceback" not in err, err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["qed", "--no-such-flag", "1"],
        ["qed", "--se", "3"],  # abbreviations are refused
        ["qed", "--seed"],
        ["qed", "--seed", "--out", "runs"],
        ["qed", "stray"],
        ["no-such-subcommand"],
        ["--seed", "3", "qed"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hybridlcu") and "error: " in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{cli.__version__}\n"


def test_top_level_help_names_every_subcommand(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, subcommand in cli._SUBCOMMANDS.items():
            assert [name, *subcommand.help.split()] in [line.split() for line in lines], name


# ---------------------------------------------------------------------------
# demo


def test_demo_outputs_and_pass_line(tmp_path, capsys):
    code = cli.main(["demo", "--seed", "11", "--shots", "2000", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cross-check ok" in out
    shots = read_lines(tmp_path / "demo_shots.csv")
    assert shots[0] == "shot,k,kprime,z,b,j,g"
    assert len(shots) == 2000 + 2
    assert shots[-1] == "# seed=11 version=0.1.0"
    reports = read_lines(tmp_path / "demo_reports.csv")
    assert reports[0].startswith("method,target,estimate")
    assert {line.split(",")[0] for line in reports[1:-1]} == {"bernstein", "asymptotic"}
    parts = read_lines(tmp_path / "demo_partitions.csv")
    assert parts[0] == "partition,a_star,R,R_minus_P"


def test_demo_numerator_width_bounds_with_exact_variance(tmp_path, monkeypatch):
    # the numerator row's Bernstein half-width is a finite-sample bound from
    # stream 0's exact variance of g, not a plug-in of the sample R^O
    instances, samplers = [], []
    make_instance, init = cli._random_instance, hybrid.Sampler.__init__

    def spy_instance(*args):
        instances.append(make_instance(*args))
        return instances[-1]

    def spy_init(self, *args):
        init(self, *args)
        samplers.append(self)

    monkeypatch.setattr(cli, "_random_instance", spy_instance)
    monkeypatch.setattr(hybrid.Sampler, "__init__", spy_init)
    assert cli.main(["demo", "--seed", "3", "--shots", "3000", "--out", str(tmp_path)]) == 0
    header, *rows = (line.split(",") for line in read_lines(tmp_path / "demo_reports.csv")[:-1])
    row = dict(zip(header, next(row for row in rows if row[:2] == ["bernstein", "numerator"])))
    variance = max(0.0, samplers[0].exact_second - samplers[0].exact_mean ** 2)
    width = estimate.bernstein_half_width(variance, 1.0, int(row["N"]), float(row["delta"]))
    assert float(row["half_width"]) == instances[0][0].one_norm ** 2 * width


def test_demo_rerun_and_worker_counts_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, workers in zip(dirs, ("1", "1", "4")):
        cli.main(["demo", "--seed", "23", "--shots", "1500", "--workers", workers, "--out", str(d)])
    for name in ("demo_shots.csv", "demo_reports.csv", "demo_partitions.csv"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref


def test_demo_seed_changes_shots(tmp_path):
    cli.main(["demo", "--seed", "1", "--shots", "300", "--out", str(tmp_path / "s1")])
    cli.main(["demo", "--seed", "2", "--shots", "300", "--out", str(tmp_path / "s2")])
    a = (tmp_path / "s1" / "demo_shots.csv").read_bytes()
    b = (tmp_path / "s2" / "demo_shots.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# partitions


def test_partitions_table_m5(tmp_path):
    assert cli.main(["partitions", "--seed", "4", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "partitions.csv")
    body = lines[1:-1]
    assert len(body) == 52  # Bell(5)
    rows = {}
    for line in body:
        text, a_star, r, gap = line.rsplit(",", 3)
        rows[text.strip('"')] = (int(a_star), float(r), float(gap))
    finest = rows["1|2|3|4|5"]
    assert finest[0] == 0
    assert finest[1] == pytest.approx(1.0, abs=1e-12)
    coarsest = rows["1,2,3,4,5"]
    assert coarsest[0] == 3
    assert coarsest[2] == 0.0
    assert min(r for _, r, _ in rows.values()) == pytest.approx(coarsest[1])
    assert all(gap >= -1e-12 for _, _, gap in rows.values())


def indicator_r(g, probs, part):
    # column k of e marks group k, so e^T G e holds the block sums on its diagonal
    e = np.zeros((part.m, part.G))
    for k, grp in enumerate(part.groups):
        e[list(grp), k] = 1.0
    return float(((e.T @ g @ e).diagonal() / (probs @ e)).sum())


def test_partitions_m8_match_indicator_formula(tmp_path):
    cfg = tmp_path / "p8.cfg"
    cfg.write_text("partitions.m = 8\npartitions.dim = 8\n")
    assert cli.main(["partitions", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)]) == 0
    body = read_lines(tmp_path / "partitions.csv")[1:-1]
    dec, psi, _ = cli._random_instance(8, 8, np.random.default_rng(1))
    g = partition.gram(dec, psi)
    p_value = indicator_r(g, dec.probs, partition.Partition.coherent(8))
    parts = partition.enumerate_partitions(8)
    assert len(body) == len(parts) == 4140
    for line, part in zip(body, parts):
        text, a_star, r, gap = line.rsplit(",", 3)
        assert (text, int(a_star)) == (f'"{part.to_text()}"', part.a_star)
        expected = indicator_r(g, dec.probs, part)
        assert abs(float(r) - expected) <= 1e-15
        assert abs(float(gap) - (expected - p_value)) <= 1e-15


def test_partitions_m8_columns_pinned(tmp_path):
    # the partition and a_star columns at m = 8, header included, pinned by
    # sha256; they do not depend on the seed. R is left out: its last bits
    # depend on the BLAS kernel behind the Gram matrix.
    cfg = tmp_path / "p8.cfg"
    cfg.write_text("partitions.m = 8\npartitions.dim = 8\n")
    assert cli.main(["partitions", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "partitions.csv")
    columns = "\n".join(line.rsplit(",", 2)[0] for line in lines[:-1])
    digest = hashlib.sha256(columns.encode()).hexdigest()
    assert digest == "13f8b191cc89b1336b3496fddd6c2f058a236e7872e91e701a67f2f102b7d8a5"
    dec, psi, _ = cli._random_instance(8, 8, np.random.default_rng(3))
    assert lines[1:-1] == ['"%s",%d,%.17g,%.17g' % row for row in partition.scan(dec, psi)]


# ---------------------------------------------------------------------------
# sweep drivers


def test_lchs_csv_shape(tmp_path):
    assert cli.main(["lchs", "--seed", "0", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "lchs_bound.csv")
    assert lines[0] == "K2,M,alpha,s_norm1,rp_bound,overhead_bound_at_P,P_assumed"
    assert len(lines) == 60 + 2


def test_qlss_csv_shape(tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("qlss.kappas = 4, 8\nqlss.dim = 4\n")
    assert cli.main(["qlss", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "qlss_table.csv")
    assert lines[0].startswith("kappa,epsilon,J,K,one_norm")
    assert len(lines) == 2 + 2


def test_gsp_report_row(tmp_path):
    assert cli.main(["gsp", "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "gsp_report.csv")
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert int(fields[0]) == 16  # dim


def test_qed_matches_direct_sweep_and_workers(tmp_path):
    for d, workers in ((tmp_path / "w1", "1"), (tmp_path / "w3", "3")):
        assert cli.main(["qed", "--seed", "5", "--workers", workers, "--out", str(d)]) == 0
    w1 = (tmp_path / "w1" / "qed_sweep.csv").read_bytes()
    assert (tmp_path / "w3" / "qed_sweep.csv").read_bytes() == w1
    rows = qed_sweep_at_defaults(5)
    lines = w1.decode().splitlines()
    assert len(lines) == len(rows) + 2
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(rows[0].p, abs=1e-15)


def test_qed_custom_grid(tmp_path):
    cfg = tmp_path / "qed.cfg"
    cfg.write_text("qed.pz_min = 1e-3\nqed.pz_max = 1e-2\nqed.pz_points = 3\nqed.codewords = 2\nqed.r_values = 0.5\n")
    assert cli.main(["qed", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "qed_sweep.csv")
    assert len(lines) == 3 + 2
    pzs = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert pzs == pytest.approx(list(np.geomspace(1e-3, 1e-2, 3)))


# ---------------------------------------------------------------------------
# plot stub and entry point


def test_emit_plot_script_compiles(tmp_path):
    code = cli.main(["lchs", "--seed", "0", "--out", str(tmp_path), "--emit-plot-script"])
    assert code == 0
    stub = tmp_path / "plot_lchs.py"
    assert stub.is_file()
    text = stub.read_text()
    assert "lchs_bound.csv" in text
    compile(text, str(stub), "exec")


def test_module_entry_point(tmp_path):
    # the package must not import cli eagerly, or runpy warns that it is already in sys.modules
    argv = ["-W", "error::RuntimeWarning", "-m", "hybridlcu.cli", "partitions", "--seed", "2", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "52 rows" in proc.stdout
    assert (tmp_path / "partitions.csv").is_file()


def test_ci_cases_are_runs_the_cli_accepts(tmp_path):
    # every case of the CI workflow's byte-identity table, split as its step
    # splits it, names a subcommand and config keys that the CLI's own reader
    # takes, so a case past a key's range fails here and not only in CI
    workflow = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = [line.strip() for line in workflow.read_text().splitlines()]
    begin, end = lines.index("# cases: begin"), lines.index("# cases: end")
    cases = [line.removeprefix("#").split() for line in lines[begin + 1 : end]]
    assert cases and len({case[0] for case in cases}) == len(cases)
    shots = []
    for name, subcommand, rows, *keys in cases:
        assert subcommand in cli._SUBCOMMANDS, name
        assert rows == "-" or rows.isdigit(), name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(key + "\n" for key in keys))
        p = cli.build_run_config(cli.Args(subcommand, str(cfg), {"run.out": str(tmp_path / name)}, False))
        if subcommand == "demo":
            # the row count of the shot CSV is the shot count
            assert rows == str(p["run.shots"]), name
            shots.append(p["run.shots"])
    # the last chunk of some run is a whole one, and of another a partial one
    chunk = hybrid._CSV_CHUNK_ROWS
    assert any(n > chunk and n % chunk == 0 for n in shots)
    assert any(n > chunk and n % chunk for n in shots)


_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_bytes_do_not_depend_on_cpu_count(tmp_path):
    # a fresh interpreter's BLAS starts a thread per CPU it may use unless told
    # otherwise, and at d = 128 the QR of the instance and the eigensolver round
    # differently with more threads; the CLI's own one-thread default keeps the
    # bytes, so one CPU and every CPU write the same report
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_THREAD_ENV}
    run = "import os, sys\n{}from hybridlcu import cli\nsys.exit(cli.main(sys.argv[1:]))"
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    cfg = tmp_path / "gsp.cfg"
    cfg.write_text("gsp.dim = 128\n")
    for name, prefix in (("all", ""), ("one", pin)):
        argv = ["-c", run.format(prefix), "gsp", "--config", str(cfg), "--out", str(tmp_path / name)]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "all/gsp_report.csv").read_bytes() == (tmp_path / "one/gsp_report.csv").read_bytes()


def test_blas_thread_default_keeps_a_set_value():
    # importing the CLI sets each unset variable to 1 and leaves a set one alone
    probe = "import os\nimport hybridlcu.cli\nprint(*(os.environ[key] for key in {!r}))".format(_BLAS_THREAD_ENV)
    unset = {key: value for key, value in os.environ.items() if key not in _BLAS_THREAD_ENV}
    for env, expected in ((unset, "1 1 1"), ({**unset, **dict.fromkeys(_BLAS_THREAD_ENV, "2")}, "2 2 2")):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected.split()


def test_demo_shot_columns_pinned(tmp_path, monkeypatch):
    # every column of demo_shots.csv but g, pinned by sha256 for a run drawn in
    # chunks of 4096 rows with a partial last chunk. g is left out: its last
    # bits come from the LAPACK eigh of the observable and differ across numpy
    # builds, while the drawn outcome codes may not change at all.
    monkeypatch.setattr(hybrid, "_CSV_CHUNK_ROWS", 4096)
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("demo.m = 6\ndemo.dim = 8\n")
    assert cli.main(["demo", "--config", str(cfg), "--seed", "7", "--shots", "20000", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "demo_shots.csv")
    assert len(lines) == 20000 + 2
    columns = "\n".join(line.rsplit(",", 1)[0] for line in lines[:-1])
    digest = hashlib.sha256(columns.encode()).hexdigest()
    assert digest == "4c7c378315c828bbe082d3f3419d017f9b1871fd09db35b74c3123befd5d5a8a"
