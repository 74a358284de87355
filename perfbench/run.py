"""patchreg benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload train-swin --seed 1 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the checkout this file sits in; nothing is installed. With ``--trace 0``
the run is untraced and reports the end-to-end metrics; with
``--trace 1`` the measured rounds run with span wrappers installed
(see ``spans.py``), one more round runs under ``tracemalloc``, and the
run reports the per-layer metrics. Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run is: one set-up, whose state is the one measured; one untraced
warm-up round whose check values every later round must repeat exactly;
then whole rounds until ``--seconds`` of rounds have passed. Set-up is
then repeated ``SETUP_REPEATS`` times and ``setup_s`` is their median.
An untraced run spreads the repeats over the rounds, at most one per
``--seconds / SETUP_REPEATS`` of rounds, so that one slow phase of the
machine cannot move the median; the rest follow the rounds. The first
set-up is left out of the median: it runs in a fresh process, whose
allocator still hands out new pages for large arrays, and took about
twice as long as later ones, falling over the first few repeats. It is
printed as ``setup_first_s``. A traced run adds one untraced reference
round before tracing starts, which is the base of
``trace.overhead_frac``, and the memory round after the measured rounds;
it repeats set-up only after the wrappers are removed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
BLAS_IDLE_S = 0.2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PATCHREG_THREADS")


def import_program():
    """Import patchreg from this checkout's ``src``; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import patchreg
    except ImportError:
        return None
    if Path(patchreg.__file__).resolve().parent.parent != SRC:
        return None
    return patchreg


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 20)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def tail(samples: list[float]) -> str:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}={float(np.percentile(samples, p)):.6g}"
    return "none (fewer than 20 samples)"


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    from spans import SETUP_LAYERS, Tracer, per_layer_names
    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[workload_name]
    mismatches: list[str] = []
    attempted = failed = 0
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload_name}-", dir=work_root) as tmp:
        setup_times, setup_layers = [], {k: [] for k in SETUP_LAYERS}

        def set_up():
            t0 = time.perf_counter()
            workdir = Path(tmp) / f"setup{len(setup_times)}"
            state, layers = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            for name, value in layers.items():
                setup_layers[name].append(value)
            return state, workdir

        state, _ = set_up()

        def set_up_again(after_round: bool) -> float:
            """One more set-up whose state is dropped; returns its wall time,
            pause included."""
            t0 = time.perf_counter()
            if after_round:
                # BLAS worker threads spin for a while after a round's last
                # matrix product; on two cores they slowed a set-up started
                # at once by up to half. Let them go idle first.
                time.sleep(BLAS_IDLE_S)
            _, workdir = set_up()
            shutil.rmtree(workdir, ignore_errors=True)
            return time.perf_counter() - t0

        def account(rnd, label):
            nonlocal attempted, failed
            attempted += rnd.attempted
            failed += rnd.failed
            if rnd.check != reference.check or rnd.check is None:
                mismatches.append(f"{label}: {rnd.check!r} != {reference.check!r}")

        reference = workload.round(state)
        account(reference, "warm-up")
        untraced_s = None
        tracer = None
        if traced:
            base = workload.round(state)
            account(base, "untraced reference")
            untraced_s = base.work_s
            tracer = Tracer()
            tracer.install()
        rounds = []
        gap = math.inf if traced else seconds / SETUP_REPEATS
        start = time.perf_counter()
        paused = 0.0  # set-up time inside the window, not counted as rounds
        try:
            while not rounds or time.perf_counter() - start - paused < seconds:
                rounds.append(workload.round(state, tracer))
                account(rounds[-1], f"{'traced ' if traced else ''}round {len(rounds)}")
                repeats = len(setup_times) - 1
                if repeats < SETUP_REPEATS and time.perf_counter() - start - paused >= (repeats + 1) * gap:
                    paused += set_up_again(after_round=True)
            if traced:
                with tracer.memory_round():
                    account(workload.round(state, tracer), "memory round")
        finally:
            restored = tracer.restore() if tracer is not None else True
        if not restored:
            mismatches.append("tracer left a wrapped name in place")
        for k in range(1 + SETUP_REPEATS - len(setup_times)):
            set_up_again(after_round=k == 0)
        checked, bad = workload.final_check(state)
        attempted += checked
        failed += bad
    try:
        work_root.rmdir()
    except OSError:  # another run is still using it
        pass

    e2e, checks = workload.report(rounds, state)
    out = {
        "workload": workload_name,
        "rounds": len(rounds),
        "checks": checks,
        "mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
        "setup": setup_times,
        "process_rss_mb": peak_rss_mb(),
    }
    if traced:
        metrics = tracer.layer_metrics(len(rounds))
        for name, values in setup_layers.items():
            metrics[name] = statistics.median(values[1:])
        traced_s = statistics.median(r.work_s for r in rounds)
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out["metrics"] = {name: (metrics[name], unit) for name, unit in per_layer_names()}
        out["untraced_round_s"] = untraced_s
        out["traced_round_s"] = traced_s
    else:
        out["samples"] = e2e
        out["metrics"] = {k: (value, unit) for k, (_, unit, _, (value, _)) in e2e.items()}
        out["metrics"]["setup_s"] = (statistics.median(setup_times[1:]), "s")
    return out


def print_report(res: dict, traced: bool) -> None:
    print(f"machine {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload {res['workload']}: {res['rounds']} measured rounds")
    if traced:
        print(
            f"trace overhead: median traced round {res['traced_round_s']:.4f} s, "
            f"untraced reference round {res['untraced_round_s']:.4f} s"
        )
        for name, (value, unit) in res["metrics"].items():
            print(f"layer {name} = {value:.6g} {unit}")
    else:
        for key, (label, unit, samples, (value, how)) in res["samples"].items():
            print(
                f"metric {label} = {value:.6g} {unit} "
                f"({how}, n={len(samples)}, tail {tail(samples)}; json key {key})"
            )
            print(f"samples {label} {json.dumps(samples)}")
        first, *setup = res["setup"]
        print(f"metric setup_s = {statistics.median(setup):.6g} s "
              f"(median, n={len(setup)}, tail {tail(setup)}; json key setup_s)")
        print(f"samples setup_s {json.dumps(setup)}")
        print(f"info setup_first_s = {first:.6g} s (first set-up, left out of setup_s)")
    print(f"info process_peak_rss_mb = {res['process_rss_mb']:.1f} MB (ru_maxrss at exit)")
    frac = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"metric failed_frac = {frac:.6g} ratio ({res['failed']} of {res['attempted']})")
    for name, value in res["checks"].items():
        print(f"check {name} = {value!r} (repeated exactly in every round: {not res['mismatches']})")
    for line in res["mismatches"]:
        print(f"MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_program() is None:
        print(f"perfbench: cannot import patchreg from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(res, bool(args.trace))
    result = {
        "correct": not res["mismatches"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
