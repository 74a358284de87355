"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
identical rounds through the entry points users run: ``training.train``
for the ``train-*`` workloads, ``patchreg register`` and ``patchreg
evaluate`` through ``cli.main`` in-process for ``infer-mlp``. A round
returns its wall times, the values that must repeat exactly in every
round of a run (traced or not), and the operations it attempted and
failed. Why each workload exists is in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from patchreg import cli, dataio, models, training
from patchreg.svf import jacobian_determinant, read_field

NPROC = len(os.sched_getaffinity(0))
MAX_DISP = 3.0


@dataclass
class Round:
    """One round: wall times per call kind, exact-repeat check values,
    operations attempted and failed."""

    times: dict[str, list[float]]
    check: tuple | None
    attempted: int
    failed: int

    @property
    def work_s(self) -> float:
        return sum(sum(v) for v in self.times.values())


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(samples: list[float]) -> tuple[float, str]:
    return statistics.median(samples), "median"


def throughput(pairs_per_call: int, times: list[float]) -> tuple[float, str]:
    """All pairs over all call time. On the reference machine speed moves
    in phases of seconds; a run's median jumps with the phase that holds
    most of its calls, while a total moves with the share of time in each.
    Six train-desk runs spread 0.09 this way against 0.16 for the median."""
    return pairs_per_call * len(times) / sum(times), "total pairs / total call time"


def folded(field) -> bool:
    """True when any pixel of a displacement field has det(J) <= 0."""
    return bool((jacobian_determinant(field) <= 0).any())


class TrainWorkload:
    """One epoch of ``training.train`` per round, from the same initial
    parameters and augmentation seed every time."""

    def __init__(self, preset: str, size: int, batch: int, n_train: int):
        self.preset = preset
        self.size = size
        self.batch = batch
        self.n_train = n_train

    def setup(self, seed: int, workdir: Path):
        t0 = time.perf_counter()
        synth = [dataio.synth_pair(seed + i, size=self.size, max_disp=MAX_DISP)
                 for i in range(self.n_train + 1)]
        synth_s = time.perf_counter() - t0
        pairs = [dataio.ImagePair(f"pair{i}", p.fix, p.mov) for i, p in enumerate(synth)]
        cfg = models.preset(self.preset)
        cfg.seed = seed
        model = models.init_model(cfg)
        state = {
            "seed": seed,
            "model": model,
            "initial": model.params.copy_arrays(),
            "train": pairs[:-1],
            "val": pairs[-1:],
        }
        return state, {"dataio.synth_pair.s": synth_s, "models.save_checkpoint.s": 0.0}

    def round(self, state, tracer=None) -> Round:
        model = state["model"]
        model.params.load_arrays(state["initial"])
        cfg = training.TrainConfig(max_epochs=1, patience=1, batch_size=self.batch, seed=state["seed"])
        attempted = math.ceil(self.n_train / self.batch) + 1  # steps plus validation
        if tracer is not None:
            tracer.mem_open()
        t0 = time.perf_counter()
        try:
            result = training.train(model, state["train"], state["val"], cfg)
        except training.TrainingDiverged:
            return Round({"train": [time.perf_counter() - t0]}, None, attempted, attempted)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.mem_close()
        last = result.log[-1]
        return Round({"train": [dt]}, (last.train_loss, last.val_loss), attempted, 0)

    def final_check(self, state) -> tuple[int, int]:
        """The trained model's fields on the validation pair are folding free."""
        val = state["val"][0]
        result = state["model"].register(val.fix, val.mov)
        bad = sum(folded(f) for f in (result.disp_forward, result.disp_inverse))
        return 2, bad

    def report(self, rounds: list[Round], state):
        """End-to-end metrics by JSON key, as (printed name, unit, samples,
        (value, how the value is taken from the samples)), and the check
        values."""
        times = [t for r in rounds for t in r.times["train"]]
        rates = [self.n_train / t for t in times]
        rss = [peak_rss_mb()]
        check = rounds[0].check
        return {
            "pairs_per_s": ("train_pairs_per_s", "pairs/s", rates, throughput(self.n_train, times)),
            "call_s": ("train_call_s", "s", times, (sum(times) / len(times), "total call time / calls")),
            "peak_rss_mb": ("peak_rss_mb", "MB", rss, median(rss)),
        }, {"val_loss": check[1] if check else math.nan}


class InferWorkload:
    """``patchreg register`` on every test pair, then one ``patchreg
    evaluate`` over the split, per round."""

    def __init__(self, preset: str, image_size: int, n_pairs: int):
        self.preset = preset
        self.image_size = image_size
        self.n_pairs = n_pairs

    def setup(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        synth_s = 0.0
        rows = []
        for i in range(self.n_pairs):
            t0 = time.perf_counter()
            pair = dataio.synth_pair(seed + i, size=self.image_size, max_disp=MAX_DISP)
            synth_s += time.perf_counter() - t0
            rows.append(dataio.export_synth_pair(pair, workdir, f"pair{i}", split="test"))
        dataio.write_manifest(rows, workdir / "manifest.csv")
        cfg = models.preset(self.preset)
        cfg.seed = seed
        model = models.init_model(cfg, head_init="random")
        t0 = time.perf_counter()
        models.save_checkpoint(model, workdir / "model.prck")
        save_s = time.perf_counter() - t0
        state = {"dir": workdir}
        return state, {"dataio.synth_pair.s": synth_s, "models.save_checkpoint.s": save_s}

    def _cli(self, argv: list[str]) -> tuple[int, float]:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, time.perf_counter() - t0

    def round(self, state, tracer=None) -> Round:
        d = state["dir"]
        ckpt = str(d / "model.prck")
        times: dict[str, list[float]] = {"register": [], "evaluate": []}
        check: list = []
        attempted = failed = 0
        for i in range(self.n_pairs):
            out = d / f"reg{i}"
            argv = ["register", "--checkpoint", ckpt, "--fix", str(d / f"pair{i}_ed.pgm"),
                    "--mov", str(d / f"pair{i}_es.pgm"), "--out", str(out)]
            if tracer is not None:
                tracer.mem_open()
            rc, dt = self._cli(argv)
            if tracer is not None:
                tracer.mem_close()
            times["register"].append(dt)
            attempted += 3  # the call and its two fields
            if rc != 0:
                failed += 3
                check.append(None)
                continue
            failed += sum(folded(read_field(out / f"disp_{k}.prgf")) for k in ("forward", "inverse"))
            summary = json.loads((out / "summary.json").read_text())
            check.append((summary["mse_warped"], summary["inverse_consistency_residual_px"]))

        # The evaluate pool's peak depends on how glibc places the two
        # threads' arrays in per-thread arenas (413 to 510 MB over six runs
        # of one build), so the bounded peak is taken before the first
        # evaluate: set-up plus single-threaded register calls.
        state.setdefault("register_rss_mb", peak_rss_mb())
        out = d / "eval"
        rc, dt = self._cli(["evaluate", "--checkpoint", ckpt, "--manifest", str(d / "manifest.csv"),
                            "--split", "test", "--out", str(out), "--threads", str(NPROC)])
        times["evaluate"].append(dt)
        attempted += 1 + self.n_pairs
        if rc != 0:
            failed += 1 + self.n_pairs
            check.append(None)
        else:
            summary = json.loads((out / "summary.json").read_text())
            evaluated = summary["n_pairs"]  # skipped pairs are left out
            # jac_neg_frac covers the myocardium only and is nan when a
            # pair has none; final_check tests the whole fields.
            jac = (out / "jacobian.csv").read_text().splitlines()[1:]
            folded_pairs = sum(not float(line.split(",")[-1]) == 0.0 for line in jac)
            failed += (self.n_pairs - evaluated) + folded_pairs
            dice = [s["dice"]["mean"] for s in summary["structures"].values()]
            check.append(sum(dice) / len(dice))
        return Round(times, tuple(check), attempted, failed)

    def final_check(self, state) -> tuple[int, int]:
        """The forward fields ``evaluate`` computes are folding free on
        every pixel, not only on the myocardium its report covers."""
        d = state["dir"]
        model = models.load_checkpoint(d / "model.prck")
        pairs = dataio.load_eval_pairs(d / "manifest.csv", "test", model.config.image_size)
        bad = sum(folded(model.register(p.ed_image, p.es_image).disp_forward) for p in pairs)
        return self.n_pairs, bad + self.n_pairs - len(pairs)

    def report(self, rounds: list[Round], state):
        reg = [t for r in rounds for t in r.times["register"]]
        evals = [t for r in rounds for t in r.times["evaluate"]]
        rates = [self.n_pairs / t for t in evals]
        rss = [state["register_rss_mb"]]
        check = rounds[0].check
        dice = check[-1] if check and check[-1] is not None else math.nan
        return {
            "pairs_per_s": ("eval_pairs_per_s", "pairs/s", rates, throughput(self.n_pairs, evals)),
            "call_s": ("register_p50_s", "s", reg, median(reg)),
            "peak_rss_mb": ("register_peak_rss_mb", "MB", rss, median(rss)),
        }, {"dice_mean": dice}


WORKLOADS = {
    "train-swin": TrainWorkload("swin_trans_s", 128, batch=2, n_train=2),
    "train-mixer": TrainWorkload("mlp_mixer_m", 128, batch=1, n_train=2),
    "infer-mlp": InferWorkload("pure_mlp_s", 160, n_pairs=2),
    "train-desk": TrainWorkload("swin_trans_desk", 64, batch=8, n_train=16),
}
