"""One fresh process: set up, then run passes of a workload back to back.

Run by ``run.py`` from the root of a checkout with ``src`` on PYTHONPATH.
It writes JSON lines to stdout: ``{"event": "ready", ...}`` once set-up is
done, then one ``{"event": "pass", ...}`` per pass with the pass's wall time,
CPU time, cases, checked outputs, when traced its per-layer metrics, and on
the first pass, on request, the machine and provenance block.  Passes start
while the longest one so far still ends within ``--budget`` seconds of the
process start; there are at least ``--min-passes``.  All passes of a process
are of one kind, traced or not; a traced process writes the spans of all its
passes to ``--spans`` when it ends.
"""

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def blas_libraries():
    """Every OpenBLAS this process loaded, with its build and thread count."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.lower() and ".so" in line})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
        libs.append(info)
    return libs


def provenance():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_loaded": blas_libraries(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup():
    """Imports, the material and radial grid, one warm-up call per solver kind."""
    import math

    from cylshell import cli, korn  # noqa: F401  (cli imports every study module)
    from cylshell.material import ShellGeometry, derive_material

    t_import = time.perf_counter()
    derive_material(1.0, 0.3)
    geo = ShellGeometry(h=1e-2, L=math.pi)
    grid = korn.radial_grid(geo, N=32)
    korn.min_rayleigh(korn.assemble_mode_forms(1, 5, geo, grid, "strain", "grad"))
    korn.max_rayleigh(korn.assemble_mode_forms(1, 5, geo, grid, "component:rthr", "strain"))
    t_ready = time.perf_counter()
    return t_import - T_START, t_ready - t_import


def run_passes(args):
    import spans
    import workloads

    scans = []
    spans.capture_scans(scans)
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    walls = []
    while len(walls) < args.min_passes or \
            time.perf_counter() - T_START + max(walls) <= args.budget:
        p = workloads.Pass(args.seed, args.artifacts, plant=args.plant)
        p.scans = scans
        if rec is not None:
            rec.pass_id, first_span, wrapper_s = len(walls), len(rec.spans), rec.wrapper_s
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        workloads.WORKLOADS[args.workload](p)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "event": "pass",
            "wall_s": wall,
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            "nivcsw": ru1.ru_nivcsw - ru0.ru_nivcsw,
            # the process's high-water mark so far: after the first pass,
            # that of set-up plus one pass
            "maxrss_mb": ru1.ru_maxrss / 1024.0,
            "cases": p.cases,
            "outputs": p.outputs,
        }
        if rec is not None:
            record["layers"] = spans.layer_metrics(rec.spans, first_span, wall)
            record["wrapper_s"] = rec.wrapper_s - wrapper_s
        if args.provenance and not walls:
            record["provenance"] = provenance()
        walls.append(wall)
        emit(record)
    if rec is not None:
        rec.write(args.spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds from process start within which passes must end")
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--provenance", action="store_true")
    parser.add_argument("--plant", action="store_true")
    parser.add_argument("--artifacts", required=True, help="--out directory of the CLI")
    parser.add_argument("--spans", required=True, help="where a traced process writes its spans")
    args = parser.parse_args()
    import_s, warmup_s = setup()
    emit({"event": "ready", "import_s": import_s, "warmup_s": warmup_s})
    if not args.setup_only:
        run_passes(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
