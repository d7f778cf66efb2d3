"""polymg benchmark: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload {lfa,vcycle,twogrid} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run sets up three times (``setup_s`` is
the import time plus the median set-up) and then repeats passes over the
workload's jobs until ``--seconds`` have passed, at least once; every other
time metric is the upper quartile over passes.  With ``--trace 1`` it sets up once, runs a
fixed number of untraced passes and then the same number of traced ones, so
traced counts repeat exactly between runs; ``--seconds`` is not used.  The
last line of standard output is the result; the lines before it record the
environment and every metric with its unit.  The exit code is 1 when any
output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 3
#: untraced, then traced, passes of a traced run
TRACE_PASSES = 2
LIBC = ctypes.CDLL(None)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("lfa", "vcycle", "twogrid"))
    p.add_argument("--seed", type=int, default=1234,
                   help="seeds the initial errors of the multigrid "
                        "workloads; lfa is deterministic and ignores it")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def _blas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS loaded into this process."""
    counts = []
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",  # numpy's
                       "scipy_openblas_get_num_threads"):  # scipy's
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return counts


def _git(*args) -> str | None:
    try:
        # the ceiling keeps git from searching above the checkout
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {"nproc": nproc, "cpu_model": cpu or platform.processor(),
            "l2_cache": caches.get("L2"), "l3_cache": caches.get("L3"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": max(_blas_threads() or [0]),
            "git_commit": commit, "git_dirty": dirty}


def _refuse(reason: str):
    print(f"refusing to run: {reason}", file=sys.stderr)
    sys.exit(2)


def _median(values) -> float:
    return float(statistics.median(values))


def _upper_quartile(values) -> float:
    """The pass time three quarters of the passes do not exceed.

    The host this was tuned on runs in short bursts up to 40% faster than
    its sustained speed, and a median over a few passes lands on either
    speed by chance; the upper quartile stays on the sustained one.
    """
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


def _timed_pass(workload, tracer=None) -> tuple[float, list[float]]:
    t0 = time.perf_counter()
    parts = workload.run_pass(tracer)
    return time.perf_counter() - t0, parts


def timed_run(workload, seconds: float, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        # hand the previous set-up's memory back to the system first, so
        # that repeating the set-up does not raise the peak resident set
        workload.jobs = []
        gc.collect()
        LIBC.malloc_trim(0)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(_timed_pass(workload))
    out = {"setup_s": import_s + _median(setups),
           "wall_s": _upper_quartile(wall for wall, _ in passes),
           "passes": passes}
    for i in range(len(passes[0][1])):
        out[f"part{i + 1}_s"] = _upper_quartile(parts[i]
                                                for _, parts in passes)
    return out


def traced_run(workload) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()
    plain = [_timed_pass(workload)
             for _ in range(TRACE_PASSES)]
    tracer.install()
    traced = [_timed_pass(workload, tracer)
              for _ in range(TRACE_PASSES)]
    tracer.uninstall()
    workload.check_trace(tracer)
    out = tracer.summary()
    smooth = out["multigrid.Multigrid.smooth.calls"]
    apps = tracer.children_per_parent("multigrid.Multigrid.smooth",
                                      "multigrid.apply_operator").sum()
    out["multigrid.operator_apps_per_smooth"] = \
        float(apps / smooth) if smooth else 0.0
    searches = out["lfa.optimal_lambda0_two_grid.calls"]
    evals = tracer.children_per_parent("lfa.optimal_lambda0_two_grid",
                                       "lfa.rho_two_grid").sum()
    out["lfa.rho_evals_per_optimize"] = \
        float(evals / searches) if searches else 0.0
    out["trace.overhead_s"] = (_median(wall for wall, _ in traced)
                               - _median(wall for wall, _ in plain))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
        value = os.environ[var]
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            _refuse(f"{var}={value!r}, nproc is {nproc}")
    if not (SRC / "polymg" / "__init__.py").is_file():
        _refuse(f"no polymg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polymg

    if Path(polymg.__file__).resolve().parent != SRC / "polymg":
        _refuse(f"imported polymg from {polymg.__file__}, not {SRC}")
    from workloads import make_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(HERE / "golden.json") as f:
        golden = json.load(f)
    workload = make_workload(args.workload, golden, args.seed)
    import_s = time.perf_counter() - T_START
    env = environment(nproc)
    if env["blas_threads"] > nproc:
        _refuse(f"BLAS uses {env['blas_threads']} threads, nproc is {nproc}")
    print("# environment " + json.dumps(env), flush=True)

    if args.trace:
        values = traced_run(workload)
        wanted = spec["per_layer"]
        print("# multigrid.apply_operator flops and bytes are computed from "
              "array sizes, not measured")
    else:
        values = timed_run(workload, args.seconds, import_s)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
        for wall, parts in values["passes"]:
            print(f"# pass {wall!r} s, parts {parts!r} s")
    workload.finish()

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]!r} {m['unit']}")
    failed = [job for job in workload.jobs if job.failures]
    attempted = len(workload.jobs)
    print(f"# fail_frac = {len(failed) / attempted!r} "
          f"({len(failed)} of {attempted} jobs)")
    for job in failed:
        for message in job.failures:
            print(f"# FAILED {job.label}: {message}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
