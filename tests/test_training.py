"""Loss contracts, optimizer oracles, augmentation properties, and the
training loop's early-stopping/determinism behavior."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from patchreg import dataio, models, training
from patchreg.dataio import ImagePair
from patchreg.gradcore import ParamSet, Tensor, add, backward, cmul, grad_check
from patchreg.models import ConfigError, RegistrationResult, init_model
from patchreg.svf import DISPLACEMENT, VectorField, random_smooth_velocity
from patchreg.training import (
    Adam,
    AugmentationSpec,
    TrainConfig,
    TrainingDiverged,
    augment_pair,
    diffusion_regularizer,
    symmetric_loss,
    train,
)


def make_result(u: np.ndarray, w: np.ndarray) -> RegistrationResult:
    return RegistrationResult(
        velocity=VectorField(u.copy(), "velocity"),
        disp_forward=VectorField(u, DISPLACEMENT),
        disp_inverse=VectorField(w, DISPLACEMENT),
    )


def smooth_disp(seed, size, mag):
    return random_smooth_velocity(seed, size, size, mag).array


# ---------------------------------------------------------------------------
# symmetric loss


def test_loss_zero_for_identical_pair_and_zero_field():
    img = np.random.default_rng(0).uniform(size=(16, 16))
    zero = np.zeros((2, 16, 16))
    loss = symmetric_loss(img, img.copy(), make_result(zero, zero.copy()), lam=0.01)
    assert loss.item() == 0.0


def test_loss_data_terms_swap_symmetry_bit_exact():
    rng = np.random.default_rng(1)
    fix, mov = rng.uniform(size=(16, 16)), rng.uniform(size=(16, 16))
    u = smooth_disp(2, 16, 1.5)
    w = smooth_disp(3, 16, 1.5)
    forward = symmetric_loss(fix, mov, make_result(u.copy(), w.copy()), lam=0.0)
    swapped = symmetric_loss(mov, fix, make_result(w.copy(), u.copy()), lam=0.0)
    assert forward.item() == swapped.item()


def loop_bilinear(img, x, y):
    h, w = img.shape
    xc = min(max(x, 0.0), w - 1.0)
    yc = min(max(y, 0.0), h - 1.0)
    x0 = min(int(math.floor(xc)), w - 2)
    y0 = min(int(math.floor(yc)), h - 2)
    fx, fy = xc - x0, yc - y0
    return (1 - fy) * ((1 - fx) * img[y0, x0] + fx * img[y0, x0 + 1]) + fy * (
        (1 - fx) * img[y0 + 1, x0] + fx * img[y0 + 1, x0 + 1]
    )


def loop_symmetric_loss(fix, mov, u, w, lam):
    h, wd = fix.shape
    t1 = t2 = 0.0
    for i in range(h):
        for j in range(wd):
            wm = loop_bilinear(mov, j + u[0, i, j], i + u[1, i, j])
            t1 += (wm - fix[i, j]) ** 2
            wf = loop_bilinear(fix, j + w[0, i, j], i + w[1, i, j])
            t2 += (wf - mov[i, j]) ** 2
    reg = 0.0
    for c in range(2):
        for i in range(h):
            for j in range(wd):
                dx = u[c, i, j + 1] - u[c, i, j] if j + 1 < wd else 0.0
                dy = u[c, i + 1, j] - u[c, i, j] if i + 1 < h else 0.0
                reg += dx * dx + dy * dy
    n = h * wd
    return t1 / n + t2 / n + lam * reg / n


def test_loss_matches_loop_level_oracle():
    rng = np.random.default_rng(4)
    fix, mov = rng.uniform(size=(16, 16)), rng.uniform(size=(16, 16))
    u = smooth_disp(5, 16, 2.0)
    w = smooth_disp(6, 16, 2.0)
    loss = symmetric_loss(fix, mov, make_result(u.copy(), w.copy()), lam=0.01)
    expected = loop_symmetric_loss(fix, mov, u, w, lam=0.01)
    assert abs(loss.item() - expected) < 1e-6


# ---------------------------------------------------------------------------
# diffusion regularizer


def test_regularizer_zero_field():
    assert diffusion_regularizer(VectorField(np.zeros((2, 8, 8)), DISPLACEMENT)).item() == 0.0


def test_regularizer_constant_field():
    arr = np.zeros((2, 8, 8))
    arr[0], arr[1] = 1.7, -2.3
    assert diffusion_regularizer(VectorField(arr, DISPLACEMENT)).item() == 0.0


def test_regularizer_linear_field_analytic():
    h = w = 12
    gy, gx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    arr = np.stack([0.1 * gx, np.zeros((h, w))])
    got = diffusion_regularizer(VectorField(arr, DISPLACEMENT)).item()
    expected = 0.1**2 * h * (w - 1) / (h * w)
    assert abs(got - expected) < 1e-6


def test_regularizer_literal_variant():
    h = w = 10
    gy, gx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    arr = np.stack([0.1 * gx, 0.2 * gy])
    literal = diffusion_regularizer(VectorField(arr, DISPLACEMENT), literal=True).item()
    expected = (0.1**2 + 0.2**2) * (h - 1) * (w - 1) / (h * w)
    assert abs(literal - expected) < 1e-6
    standard = diffusion_regularizer(VectorField(arr, DISPLACEMENT)).item()
    expected_std = (0.1**2 * h * (w - 1) + 0.2**2 * (h - 1) * w) / (h * w)
    assert abs(standard - expected_std) < 1e-6


def test_regularizer_is_differentiable():
    t = Tensor(smooth_disp(7, 8, 1.0))
    reg = diffusion_regularizer(VectorField(t, DISPLACEMENT))
    backward(reg)
    assert np.abs(t.grad).sum() > 0


def test_loss_and_terms_always_non_negative():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        fix, mov = rng.uniform(size=(12, 12)), rng.uniform(size=(12, 12))
        u, w = smooth_disp(seed, 12, 2.0), smooth_disp(seed + 99, 12, 2.0)
        assert diffusion_regularizer(VectorField(u.copy(), DISPLACEMENT)).item() >= 0.0
        assert symmetric_loss(fix, mov, make_result(u, w), lam=0.01).item() >= 0.0


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_parameters():
    ps = ParamSet(0, dtype=np.float64)
    p = ps.add("p", (4,))
    before = p.data.copy()
    opt = Adam(ps, lr=0.1)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_single_step_closed_form():
    ps = ParamSet(1, dtype=np.float64)
    p = ps.add("p", (1,), init="ones")
    opt = Adam(ps, lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    # m_hat = 1, v_hat = 1 at t=1, so the step is lr / (1 + eps)
    expected_step = 0.1 / (1.0 + 1e-8)
    assert abs((1.0 - p.data[0]) - expected_step) < 1e-12


def test_adam_converges_on_quadratic_bowl():
    ps = ParamSet(2, dtype=np.float64)
    p = ps.add("p", (4,))
    p.data[...] = np.array([0.5, -0.5, 0.5, -0.5])  # norm 1
    opt = Adam(ps, lr=1e-2)
    for _ in range(500):
        p.grad[...] = 2.0 * p.data
        opt.step()
        p.zero_grad()
    assert np.linalg.norm(p.data) < 1e-3


# ---------------------------------------------------------------------------
# augmentation


def test_augment_all_disabled_returns_pair_unchanged():
    rng = np.random.default_rng(3)
    fix, mov = rng.uniform(size=(24, 24)), rng.uniform(size=(24, 24))
    out_fix, out_mov = augment_pair(fix, mov, AugmentationSpec.none(), np.random.default_rng(0))
    assert np.array_equal(out_fix, fix)
    assert np.array_equal(out_mov, mov)


def test_augment_identical_inputs_stay_identical():
    img = np.random.default_rng(4).uniform(size=(32, 32))
    for seed in range(8):
        a, b = augment_pair(img, img.copy(), AugmentationSpec(), np.random.default_rng(seed))
        assert np.array_equal(a, b)


def test_augment_deterministic_given_seed():
    rng = np.random.default_rng(5)
    fix, mov = rng.uniform(size=(24, 24)), rng.uniform(size=(24, 24))
    a1, b1 = augment_pair(fix, mov, AugmentationSpec(), np.random.default_rng(99))
    a2, b2 = augment_pair(fix, mov, AugmentationSpec(), np.random.default_rng(99))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_augment_output_stays_in_range():
    rng = np.random.default_rng(6)
    fix, mov = rng.uniform(size=(24, 24)), rng.uniform(size=(24, 24))
    for seed in range(10):
        a, b = augment_pair(fix, mov, AugmentationSpec(), np.random.default_rng(seed))
        for im in (a, b):
            assert im.min() >= 0.0 and im.max() <= 1.0


def test_augment_changes_something():
    rng = np.random.default_rng(7)
    fix, mov = rng.uniform(size=(24, 24)), rng.uniform(size=(24, 24))
    changed = any(
        not np.array_equal(augment_pair(fix, mov, AugmentationSpec(), np.random.default_rng(s))[0], fix)
        for s in range(10)
    )
    assert changed


# ---------------------------------------------------------------------------
# full-loss gradient at desk scale (64-bit)


@pytest.mark.parametrize("family", models.FAMILIES)
def test_full_loss_gradient_spot_check(family):
    pair = dataio.synth_pair(11, size=16, max_disp=1.0)
    scale = (
        models.ScaleConfig(patch=4, window=2, heads=4, weight=1.0)
        if family == "swin_trans"
        else models.ScaleConfig(patch=4, weight=1.0)
    )
    cfg = models.ModelConfig(
        family=family, scales=[scale], dim=16, depth_extract=1, depth_cross=1, image_size=16
    )
    model = init_model(cfg, dtype=np.float64, head_init="random")
    fix, mov = pair.fix, pair.mov

    def f(_params):
        return symmetric_loss(fix, mov, model.register(fix, mov), lam=0.01)

    report = grad_check(f, model.params, n_probes=10, step=1e-5, seed=1)
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# training loop


def desk_pair(seed=7, size=64):
    p = dataio.synth_pair(seed, size=size, max_disp=3.0)
    return ImagePair("synth", p.fix, p.mov)


def quick_config(**kw):
    base = dict(
        lr=2e-3,
        max_epochs=5,
        patience=5,
        lam=0.01,
        batch_size=1,
        seed=0,
        augment=AugmentationSpec.none(),
    )
    base.update(kw)
    return TrainConfig(**base)


def test_patience_zero_stops_at_first_flat_epoch():
    # fix == mov with a zero head: loss 0, zero gradients, no movement
    img = dataio.synth_pair(1, size=64, max_disp=0.0)
    pair = ImagePair("flat", img.fix, img.mov)
    model = init_model(models.preset("pure_mlp_desk"))
    result = train(model, [pair], [pair], quick_config(max_epochs=10, patience=0))
    assert result.stopped_early
    assert len(result.log) == 2
    assert result.best_epoch == 1


def test_training_reduces_loss_and_tracks_best():
    pair = desk_pair()
    model = init_model(models.preset("pure_mlp_desk"))
    cfg = quick_config(max_epochs=150, patience=150)
    result = train(model, [pair], [pair], cfg)
    assert result.steps == len(result.log)
    assert result.log[-1].train_loss < 0.7 * result.log[0].train_loss
    assert result.best_val_loss <= min(r.val_loss for r in result.log)


def test_training_deterministic_logs():
    pair = desk_pair()

    def run():
        model = init_model(models.preset("pure_mlp_desk"))
        cfg = quick_config(max_epochs=4, patience=4, augment=AugmentationSpec())
        return train(model, [pair], [pair], cfg)

    r1, r2 = run(), run()
    assert [e.train_loss for e in r1.log] == [e.train_loss for e in r2.log]
    assert [e.val_loss for e in r1.log] == [e.val_loss for e in r2.log]


def test_training_writes_artifacts(tmp_path):
    pair = desk_pair()
    model = init_model(models.preset("pure_mlp_desk"))
    train(model, [pair], [pair], quick_config(max_epochs=2, patience=2), out_dir=tmp_path)
    assert (tmp_path / "log.csv").is_file()
    assert (tmp_path / "checkpoint.prck").is_file()
    assert (tmp_path / "best_checkpoint.prck").is_file()
    header = (tmp_path / "log.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,seconds"


def test_best_checkpoint_holds_the_best_epoch(tmp_path):
    # the best epoch (3 of 7 here) comes before the last, so the final and
    # best parameters differ; a rerun that stops at the best epoch ends
    # with the parameters best_checkpoint.prck must hold
    train_pairs = [desk_pair(seed) for seed in (1, 2, 3, 4)]
    val_pairs = [desk_pair(5)]

    def run(max_epochs, out):
        model = init_model(models.preset("pure_mlp_desk"))
        cfg = quick_config(max_epochs=max_epochs, patience=min(3, max_epochs), batch_size=2,
                           augment=AugmentationSpec())
        return train(model, train_pairs, val_pairs, cfg, out_dir=out)

    full = run(12, tmp_path / "full")
    assert full.best_epoch < len(full.log)
    run(full.best_epoch, tmp_path / "rerun")
    best = (tmp_path / "full" / "best_checkpoint.prck").read_bytes()
    assert (tmp_path / "rerun" / "checkpoint.prck").read_bytes() == best
    assert (tmp_path / "full" / "checkpoint.prck").read_bytes() != best


def test_training_without_out_dir_copies_no_parameters(monkeypatch):
    def refuse(*args):
        raise AssertionError("train() copied the parameter arrays")

    monkeypatch.setattr(ParamSet, "copy_arrays", refuse)
    monkeypatch.setattr(ParamSet, "load_arrays", refuse)
    pair = desk_pair()
    model = init_model(models.preset("pure_mlp_desk"))
    result = train(model, [pair], [pair], quick_config(max_epochs=2, patience=2))
    assert len(result.log) == 2


def test_validation_runs_in_the_model_dtype():
    model = init_model(models.preset("pure_mlp_desk"), head_init="random")
    pair = desk_pair(5)
    assert pair.fix.dtype == np.float64
    cfg = quick_config()
    assert training._pair_loss(model, pair.fix, pair.mov, cfg).dtype == np.float32
    cast = training._pair_loss(model, pair.fix.astype(np.float32), pair.mov.astype(np.float32), cfg)
    assert training.evaluate_loss(model, [pair], cfg) == cast.item()


def test_per_pair_backward_matches_single_batch_graph():
    pairs = [desk_pair(seed) for seed in (3, 4, 5)]
    cfg = quick_config(max_epochs=1, patience=1, batch_size=3)
    model = init_model(models.preset("swin_trans_desk"), dtype=np.float64, head_init="random")
    ref = init_model(models.preset("swin_trans_desk"), dtype=np.float64, head_init="random")
    train(model, pairs, pairs[:1], cfg)  # one batch: grads are those at the initial params
    # the single-graph recipe: mean of the pair losses, one backward
    losses = [
        training._pair_loss(ref, p.fix.astype(np.float64), p.mov.astype(np.float64), cfg) for p in pairs
    ]
    backward(cmul(add(add(losses[0], losses[1]), losses[2]), 1.0 / 3))
    for name in ref.params.names():
        want = ref.params[name].grad
        np.testing.assert_allclose(
            model.params[name].grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name
        )


@pytest.mark.parametrize("name", [n for n in models.PRESET_NAMES if n.endswith("_desk")])
def test_pair_backward_leaves_no_grad_on_non_parameter_leaves(name):
    model = init_model(models.preset(name), head_init="random")
    pair = desk_pair(5)
    loss = training._pair_loss(model, pair.fix, pair.mov, quick_config())
    backward(loss)
    params = {id(t) for t in model.params.tensors()}
    seen, stack, stray = set(), [loss], []
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward is None and id(node) not in params and node.grad is not None:
            stray.append(node.shape)
    assert stray == []
    assert all(t.grad is not None for t in model.params.tensors())


def test_loaded_checkpoint_has_no_grads_and_still_trains(tmp_path):
    path = tmp_path / "m.prck"
    models.save_checkpoint(init_model(models.preset("pure_mlp_desk"), head_init="random"), path)
    model = models.load_checkpoint(path)
    assert all(t.grad is None for t in model.params.tensors())
    pair = desk_pair(6)
    result = train(model, [pair], [pair], quick_config(max_epochs=1, patience=1))
    assert len(result.log) == 1 and math.isfinite(result.log[0].train_loss)
    assert all(t.grad is not None for t in model.params.tensors())


_PEAK_RSS_SCRIPT = """
import resource, sys
from patchreg import dataio, models
from patchreg.dataio import ImagePair
from patchreg.training import AugmentationSpec, TrainConfig, train

n = int(sys.argv[1])
pairs = []
for i in range(n):
    p = dataio.synth_pair(i, size=128, max_disp=3.0)
    pairs.append(ImagePair(str(i), p.fix, p.mov))
model = models.init_model(models.preset("swin_trans_s"))
cfg = TrainConfig(max_epochs=1, patience=0, batch_size=n, augment=AugmentationSpec.none())
train(model, pairs, pairs[:1], cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_training_memory_does_not_grow_with_batch():
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def peak_rss(n_pairs):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(n_pairs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1])

    assert peak_rss(4) <= 1.2 * peak_rss(2)


def _pair_step_peak(name):
    """tracemalloc peak of one 128x128 pair loss plus backward of ``name``."""
    model = init_model(models.preset(name))
    p = dataio.synth_pair(0, size=128, max_disp=3.0)
    cfg = TrainConfig(augment=AugmentationSpec.none())
    tracemalloc.start()
    try:
        backward(training._pair_loss(model, p.fix, p.mov, cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_swin_pair_step_graph_peak_is_bounded():
    # tracemalloc peak of one swin_trans_s 128x128 pair loss plus backward:
    # 461 MB with the attention logits kept once per op of the unfused
    # chain (matmul, scale, bias, mask, softmax), 236 MB with one buffer
    # per window_attention pass that splits and merges the heads itself,
    # 196 MB once the mlp_branch and layer_norm nodes keep no array they
    # can rebuild, 172 MB once mlp_branch rebuilds tanh(h) in the
    # backward; the bound sits between the last two
    peak = _pair_step_peak("swin_trans_s")
    assert peak < 184 * 2**20, f"{peak / 2**20:.0f} MB"


def test_mlp_pair_step_graph_peak_is_bounded():
    # the same for pure_mlp_s: 116 MB while each mlp_branch node kept x-hat,
    # the fc1 input, h, tanh(h) and gelu(h); 77 MB with h and tanh(h);
    # 53 MB with h only
    peak = _pair_step_peak("pure_mlp_s")
    assert peak < 66 * 2**20, f"{peak / 2**20:.0f} MB"


def test_mixer_pair_step_graph_peak_is_bounded():
    # the same for mlp_mixer_s, whose token MLP runs on a transposed view:
    # 129 MB while each mlp_branch node kept h and tanh(h), 102 MB with h only
    peak = _pair_step_peak("mlp_mixer_s")
    assert peak < 116 * 2**20, f"{peak / 2**20:.0f} MB"


def test_training_aborts_on_non_finite_loss():
    pair = desk_pair()
    bad = ImagePair("poisoned", pair.fix.copy(), pair.mov.copy())
    bad.fix[3, 3] = np.nan
    model = init_model(models.preset("pure_mlp_desk"))
    with pytest.raises(TrainingDiverged) as exc:
        train(model, [bad], [bad], quick_config())
    assert exc.value.epoch == 1
    assert exc.value.pair_id == "poisoned"


def test_training_requires_non_empty_splits():
    model = init_model(models.preset("pure_mlp_desk"))
    with pytest.raises(ConfigError):
        train(model, [], [desk_pair()], quick_config())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=10, max_epochs=5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    TrainConfig().validate()  # paper defaults are valid


def test_train_config_round_trip():
    cfg = TrainConfig(lr=3e-4, augment=AugmentationSpec(rotate=False))
    again = models.config_from_dict(TrainConfig, models.config_to_dict(cfg), "train")
    assert again == cfg
