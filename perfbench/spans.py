"""Span recording for the traced benchmark run.

The program is not edited: :class:`Tracer` replaces public functions and
methods of the ``patchreg`` modules with timing wrappers, in every
``patchreg`` namespace that holds them (``blocks.gelu`` as well as
``gradcore.gelu``), and puts every original back on :meth:`Tracer.restore`.

A span records its wall time and its self time (the span minus the time
of spans opened inside it on the same thread). Spans are aggregated in
memory per name. Gradcore ops also record the bytes of the array they
return. Span wrappers add about 1% to a round; ``tracemalloc`` slows the
many small allocations of a desk-scale round more than twofold, so it
runs only in :meth:`Tracer.memory_round`, whose spans are dropped. There
:meth:`Tracer.mem_open` / :meth:`Tracer.mem_close` bound one whole
``train()`` or ``register`` call, and the call's peak allocation above
the level at its start is reported as ``mem.graph_peak_mb``. A graph one
step leaves referenced into the next step or into validation counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

MB = float(1 << 20)

# gradcore ops reported one by one; every other public op is summed as "other"
GRADCORE_OPS = (
    "linear", "gelu", "layer_norm", "softmax", "matmul", "gather_rows",
    "transpose", "reshape", "add", "cmul", "cadd",
)
GRADCORE_OTHER = ("sub", "mul", "neg", "slice_tensor", "sum_all", "mean_all")

# (module, function) pairs timed as "<module>.<function>"
FUNCTIONS = (
    ("models", "fuse_multiscale"),
    ("models", "load_checkpoint"),
    ("svf", "integrate_svf"),
    ("svf", "compose_displacements"),
    ("svf", "resample_field"),
    ("svf", "warp_image"),
    ("svf", "jacobian_determinant"),
    ("svf", "write_field"),
    ("training", "augment_pair"),
    ("training", "symmetric_loss"),
    ("training", "evaluate_loss"),
    ("metrics", "evaluate_pairs"),
    ("metrics", "warp_mask"),
    ("metrics", "dice"),
    ("metrics", "surface_distances"),
    ("metrics", "jacobian_stats"),
    ("dataio", "read_pgm"),
    ("dataio", "write_pgm"),
    ("dataio", "resize_image"),
    ("dataio", "load_eval_pairs"),
    ("filters", "gaussian_blur"),
)

# (module, class, method, span name)
METHODS = (
    ("blocks", "PatchEmbed", "__call__", "blocks.PatchEmbed"),
    ("blocks", "MlpBlock", "__call__", "blocks.MlpBlock"),
    ("blocks", "MixerBlock", "__call__", "blocks.MixerBlock"),
    ("blocks", "SwinCrossBlock", "__call__", "blocks.SwinCrossBlock"),
    ("models", "RegistrationModel", "register", "models.register"),
    ("models", "RegistrationModel", "child_velocities", "models.child_velocities"),
    ("training", "Adam", "step", "training.Adam.step"),
)

BLOCKS = ("PatchEmbed", "MlpBlock", "MixerBlock", "SwinCrossBlock")

# span names reported by total time alone
TIMED = [f"{module}.{fn}" for module, fn in FUNCTIONS] + [
    name for *_, name in METHODS if not name.startswith("blocks.")
]

# Timed by the benchmark itself around its set-up calls, once per set-up.
SETUP_LAYERS = ("dataio.synth_pair.s", "models.save_checkpoint.s")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    names = []
    for op in GRADCORE_OPS + ("other",):
        names += [
            (f"gradcore.{op}.fwd_s", "s"),
            (f"gradcore.{op}.calls", "count"),
            (f"gradcore.{op}.out_mb", "MB"),
        ]
    names.append(("gradcore.backward.s", "s"))
    for block in BLOCKS:
        names += [(f"blocks.{block}.s", "s"), (f"blocks.{block}.self_s", "s")]
    names += [(f"{name}.s", "s") for name in TIMED]
    names += [(name, "s") for name in SETUP_LAYERS]
    names += [
        ("svf.compose_displacements.calls", "count"),
        ("filters.gaussian_blur.calls", "count"),
        ("metrics.evaluate_pairs.pool_busy_frac", "ratio"),
        ("mem.graph_peak_mb", "MB"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


class _SpanStack(threading.local):
    """Per-thread stack of open spans, each holding its children's time."""

    def __init__(self):
        self.spans: list[float] = []


class Tracer:
    """Installs timing wrappers into the loaded ``patchreg`` modules.

    Use ``install()`` before the traced calls and ``restore()`` after
    them; ``restore()`` reports whether every wrapped name holds its
    original object again.
    """

    def __init__(self):
        # name -> [calls, total seconds, self seconds, output bytes]
        self.stats: dict[str, list] = {}
        self.pool_busy_s = 0.0
        self.pool_capacity_s = 0.0
        self.graph_peak_bytes = 0
        self._mem_base = 0
        self._lock = threading.Lock()
        self._local = _SpanStack()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, name: str, count_bytes: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.spans
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(stack, name, t0, 0)
                raise
            self._close(stack, name, t0, out.data.nbytes if count_bytes else 0)
            return out

        return wrapper

    def _close(self, stack: list[float], name: str, t0: float, nbytes: int) -> None:
        dt = time.perf_counter() - t0
        child = stack.pop()
        if stack:
            stack[-1] += dt
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - child
            entry[3] += nbytes

    # -- memory windows ---------------------------------------------------

    @contextlib.contextmanager
    def memory_round(self):
        """Trace allocations for one round; its spans are not kept."""
        kept = self.stats, self.pool_busy_s, self.pool_capacity_s
        self.stats = {}
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()
            self.stats, self.pool_busy_s, self.pool_capacity_s = kept

    def mem_open(self) -> None:
        """Start a window: its peak is measured from the current level."""
        if not tracemalloc.is_tracing():
            return
        tracemalloc.reset_peak()
        self._mem_base = tracemalloc.get_traced_memory()[0]

    def mem_close(self) -> None:
        """End the window opened by :meth:`mem_open`."""
        if not tracemalloc.is_tracing():
            return
        peak = tracemalloc.get_traced_memory()[1]
        self.graph_peak_bytes = max(self.graph_peak_bytes, peak - self._mem_base)

    # -- install / restore ----------------------------------------------

    def _namespaces(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "patchreg" or n.startswith("patchreg."))
        ]

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from patchreg import blocks, dataio, filters, gradcore, metrics, models, svf, training

        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {
            "blocks": blocks, "dataio": dataio, "filters": filters, "metrics": metrics,
            "models": models, "svf": svf, "training": training,
        }
        for op in GRADCORE_OPS + GRADCORE_OTHER:
            name = f"gradcore.{op}" if op in GRADCORE_OPS else "gradcore.other"
            original = getattr(gradcore, op)
            self._patch_everywhere(original, self._wrap(original, name, count_bytes=True))
        self._patch_everywhere(gradcore.backward, self._wrap(gradcore.backward, "gradcore.backward"))
        for module, fn in FUNCTIONS:
            original = getattr(mods[module], fn)
            self._patch_everywhere(original, self._wrap(original, f"{module}.{fn}"))
        for module, cls_name, method, name in METHODS:
            cls = getattr(mods[module], cls_name)
            self._patch_attr(cls, method, self._wrap(cls.__dict__[method], name))
        self._patch_attr(metrics, "ThreadPoolExecutor", self._timed_pool())

    def restore(self) -> bool:
        """Put every original back; True when each name holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    def _timed_pool(self):
        tracer = self

        class TimedPool(ThreadPoolExecutor):
            """Thread pool that charges each mapped call to pool busy time."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._opened = time.perf_counter()

            def map(self, fn, *iterables, **kwargs):
                def timed(*args):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args)
                    finally:
                        with tracer._lock:
                            tracer.pool_busy_s += time.perf_counter() - t0

                return super().map(timed, *iterables, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                with tracer._lock:
                    tracer.pool_capacity_s += self._max_workers * (
                        time.perf_counter() - self._opened
                    )

        return TimedPool

    # -- report -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Span totals divided by the number of traced rounds.

        Only the span-derived names are filled in; set-up layers and the
        tracing overhead are added by the caller.
        """

        def stat(name: str, i: int) -> float:
            entry = self.stats.get(name)
            return entry[i] / rounds if entry else 0.0

        out: dict[str, float] = {}
        for op in GRADCORE_OPS + ("other",):
            name = f"gradcore.{op}"
            out[f"{name}.fwd_s"] = stat(name, 1)
            out[f"{name}.calls"] = stat(name, 0)
            out[f"{name}.out_mb"] = stat(name, 3) / MB
        out["gradcore.backward.s"] = stat("gradcore.backward", 1)
        for block in BLOCKS:
            out[f"blocks.{block}.s"] = stat(f"blocks.{block}", 1)
            out[f"blocks.{block}.self_s"] = stat(f"blocks.{block}", 2)
        for name in TIMED:
            out[f"{name}.s"] = stat(name, 1)
        out["svf.compose_displacements.calls"] = stat("svf.compose_displacements", 0)
        out["filters.gaussian_blur.calls"] = stat("filters.gaussian_blur", 0)
        out["metrics.evaluate_pairs.pool_busy_frac"] = (
            self.pool_busy_s / self.pool_capacity_s if self.pool_capacity_s else 0.0
        )
        out["mem.graph_peak_mb"] = self.graph_peak_bytes / MB
        return out
