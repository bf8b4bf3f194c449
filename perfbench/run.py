"""esnode benchmark: fit time, accuracy and free-run throughput per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {harmonic,vdp,lorenz,all} \
        --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
package is imported from the checkout's src/ and nowhere else.
"""
import os

# one BLAS thread: the plain single-threaded baseline, and the only setting
# under which vdp's answer does not depend on the thread count
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# set-up is timed in fresh interpreters; the median of these many is kept
SETUP_REPEATS = 21
# a run makes a fixed number of fits, so the same workload seed always fits
# the same reservoir seeds; at least this many (untraced) or pairs (traced)
MIN_FITS = 2
MIN_PAIRS = 1
COVERAGE_FLOOR = 0.95

SETUP_PROBE = (
    "import json, sys, time\n"
    "from esnode.pipeline import RunConfig\n"
    "from esnode.problems import get_system\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    cfg = RunConfig.from_dict(json.load(fh))\n"
    "get_system(cfg.problem)\n"
    "print(time.monotonic())\n"
)

END_TO_END_UNITS = {
    "setup_s": "s", "fit_s": "s", "freerun_steps_per_s": "1/s",
    "rmse_ratio_trial": "ratio", "pass_frac": "ratio", "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mbytes"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import esnode and the benchmark modules; refuse any other copy."""
    import esnode
    origin = Path(esnode.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ImportError(f"esnode imported from {origin}, not from {SRC}")
    import tracer
    import workloads
    return esnode, tracer, workloads


def _blas_threads_reported():
    """Thread count numpy's bundled OpenBLAS reports, or None if unknown."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                return int(fn())
    return None


def host_facts(esnode_version: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "esnode": esnode_version, "python": platform.python_version(),
    }


def measure_setup(config_copy: Path) -> list:
    """Time from spawning a fresh interpreter until it has imported esnode
    and loaded the config; the child reads the same system-wide clock."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config_copy)], env=env,
            check=True, timeout=120, capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]) - t)
    return times


def _median(values):
    return statistics.median(values) if values else float("nan")


def _high_percentile(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for pct in (50, 90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            best = (pct, statistics.quantiles(values, n=100)[pct - 1])
    return best


def run_untraced(wl, workloads, base, seeds, seconds, work):
    results = []
    for i in range(workloads.n_cycles(wl, seconds, 1, MIN_FITS)):
        out = work / f"fit{i}"
        results.append(workloads.fit_cycle(wl, base, next(seeds), str(out)))
        shutil.rmtree(out, ignore_errors=True)
    return results


def _same_artifacts(dir_a: Path, dir_b: Path) -> bool:
    names = sorted(p.name for p in dir_a.iterdir())
    if names != sorted(p.name for p in dir_b.iterdir()):
        return False
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes()
               for n in names if n != "timing.json")


def run_traced(wl, workloads, tracer_mod, base, seeds, seconds, work):
    """Pairs of an untraced and a traced fit of the same seed, order
    alternating, so the pair gives both the overhead and an artifact check."""
    tr = tracer_mod.Tracer()
    plain, traced, layers, coverage, wrong = [], [], [], [], []
    for i in range(workloads.n_cycles(wl, seconds, 2, MIN_PAIRS)):
        seed = next(seeds)
        dirs = {False: work / f"plain{i}", True: work / f"traced{i}"}
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(workloads.fit_cycle(wl, base, seed,
                                                 str(dirs[False])))
                continue
            tr.reset()
            with tracer_mod.instrument(tr):
                res = workloads.fit_cycle(wl, base, seed, str(dirs[True]))
            traced.append(res)
            if res.fit_s is not None:
                layers.append(workloads.layer_metrics(tr, res))
                coverage.append(workloads.train_coverage(tr))
        if plain[-1].fit_s is not None and traced[-1].fit_s is not None \
                and not _same_artifacts(dirs[False], dirs[True]):
            wrong.append(f"seed {seed}: traced and untraced artifacts differ")
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
    return plain, traced, layers, coverage, wrong


def _table_line(name, value, unit, n, extra=""):
    return f"  {name:<30} {value:>14.6g} {unit:<6} n={n}{extra}"


def end_to_end(results, setup_times):
    fits = [r.fit_s for r in results if r.fit_s is not None]
    rates = [x for r in results for x in r.freerun_rates]
    ratios = [r.rmse_ratio for r in results if r.rmse_ratio is not None]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    values = {
        "setup_s": (_median(setup_times), len(setup_times)),
        "fit_s": (_median(fits), len(fits)),
        "freerun_steps_per_s": (_median(rates), len(rates)),
        "rmse_ratio_trial": (_median(ratios), len(ratios)),
        "pass_frac": (1.0 - failed / attempted, attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    pct = _high_percentile(fits)
    tail = {"fit_s": f"  p{pct[0]}={pct[1]:.6g}"} if pct else {}
    lines = [_table_line(name, value, _unit(name), n, tail.get(name, ""))
             for name, (value, n) in values.items()]
    lines.append(_table_line("failed_frac", failed / attempted, "ratio",
                             attempted))
    return {k: v for k, (v, _) in values.items()}, lines


def per_layer(wl, plain, traced, layers, coverage):
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    fit_plain = _median([r.fit_s for r in plain if r.fit_s is not None])
    fit_traced = _median([r.fit_s for r in traced if r.fit_s is not None])
    metrics["trace.fit_s"] = fit_traced
    metrics["trace.overhead_s"] = fit_traced - fit_plain
    metrics["trace.coverage"] = min(coverage)
    lines = [_table_line(k, v, _unit(k), len(layers))
             for k, v in metrics.items()]
    lines.append(f"  untraced fit_s {fit_plain:.6g} s, traced "
                 f"{fit_traced:.6g} s: tracing overhead "
                 f"{fit_traced - fit_plain:+.6g} s")
    times = {k: v for k, v in metrics.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    expected = " + ".join(wl.top_self)
    top_value = sum(times[k] for k in wl.top_self)
    rival = max((k for k in times if k not in wl.top_self), key=times.get)
    verdict = "matches" if top_value >= times[rival] else "MISMATCH"
    lines.append(f"  largest self time: expected {expected} = "
                 f"{top_value:.4g} s, next {rival} = {times[rival]:.4g} s: "
                 f"{verdict}")
    return metrics, lines


def run_workload(args, esnode, tracer_mod, workloads) -> int:
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        config_copy = work / wl.config
        shutil.copyfile(SRC / "esnode" / "configs" / wl.config, config_copy)
        setup_times = measure_setup(config_copy)
        with open(config_copy, encoding="utf-8") as fh:
            base = json.load(fh)
        seeds = workloads.reservoir_seeds(wl.name, args.seed)
        if args.trace:
            plain, traced, layers, coverage, wrong = run_traced(
                wl, workloads, tracer_mod, base, seeds, args.seconds, work)
            results = plain + traced
        else:
            results = run_untraced(wl, workloads, base, seeds,
                                   args.seconds, work)
            wrong = []
    wrong += [w for r in results for w in r.wrong]
    print(f"workload {wl.name} (seed {args.seed}, {args.seconds:g} s, trace "
          f"{args.trace}): {wl.why}")
    print("host " + json.dumps(host_facts(esnode.__version__), sort_keys=True))
    if args.trace and layers:
        metrics, lines = per_layer(wl, plain, traced, layers, coverage)
        if metrics["trace.coverage"] < COVERAGE_FLOOR:
            wrong.append(f"layer spans cover only "
                         f"{metrics['trace.coverage']:.1%} of pipeline.train "
                         f"(need {COVERAGE_FLOOR:.0%})")
    elif args.trace:
        metrics, lines = {}, []
        wrong.append("no traced fit completed")
    else:
        metrics, lines = end_to_end(results, setup_times)
    print("\n".join(lines))
    for r in results:
        if r.failure:
            print(f"  failed fit (reservoir seed {r.seed}): {r.failure}")
    for w in wrong:
        print(f"error: {w}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }))
    return 1 if wrong else 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        esnode, tracer_mod, workloads = _import_package()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, esnode, tracer_mod, workloads)


if __name__ == "__main__":
    sys.exit(main())
