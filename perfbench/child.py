"""One CLI invocation in a fresh interpreter, timed from inside the process.

    python3 perfbench/child.py MODE RESULT_JSON [-- CLI ARGS...]

MODE is ``plain`` (no instrumentation), ``trace`` (spans from spans.Tracer),
``memory`` (tracemalloc peak of Sampler.sample_shots) or ``facts`` (import
the package and record machine and library facts; no CLI call). The
process imports ``hybridlcu.cli`` exactly as the console script does, calls
``cli.main(argv)``, writes its timings to RESULT_JSON and exits with the
CLI's exit code. The package is found through PYTHONPATH, which the
benchmark points at the checkout's ``src``.
"""

import json
import os
import resource
import sys
import time


def _facts() -> dict:
    import hybridlcu
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = None
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "hybridlcu": getattr(hybridlcu, "__version__", None),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": threads,
    }


def main() -> int:
    mode, result_path = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else []

    start = time.perf_counter()
    from hybridlcu import cli

    setup_s = time.perf_counter() - start
    record = {"mode": mode, "setup_s": setup_s}
    probe = None
    if mode == "trace":
        import spans

        probe = spans.Tracer()
    elif mode == "memory":
        import spans

        probe = spans.MemoryProbe()
    if probe is not None:
        probe.install()

    code = 0
    if mode == "facts":
        record["facts"] = _facts()
    else:
        start = time.perf_counter()
        code = cli.main(argv)
        record["run_s"] = time.perf_counter() - start
    record["exit"] = code
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["maxrss_kb"] = usage.ru_maxrss
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    if probe is not None:
        record[mode] = probe.dump()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
