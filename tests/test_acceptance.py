"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -v -s``).

Wall-time budgets are asserted with generous slack for slow machines;
the measured times on a laptop-class CPU are noted inline.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from patchreg import blocks, dataio, metrics, models, svf, training
from patchreg.cli import main
from patchreg.dataio import ImagePair
from patchreg.metrics import dice, endpoint_error, surface_distances, warp_mask
from patchreg.models import fuse_multiscale, init_model, preset
from patchreg.svf import (
    DISPLACEMENT,
    VELOCITY,
    VectorField,
    compose_displacements,
    integrate_svf,
    jacobian_determinant,
    mean_interior_magnitude,
    random_smooth_velocity,
    warp_image,
)
from patchreg.training import TrainConfig, symmetric_loss, train

GOLDEN = Path(__file__).parent / "data" / "golden_presets.json"
# the paper's augmentation protocol, pinned with the presets
AUGMENTATION = {
    name: getattr(training, name)
    for name in ("AUGMENT_PROB", "ROTATE_DEG", "CROP_MIN_SCALE", "BRIGHTNESS_DELTA",
                 "CONTRAST_RANGE", "SHARPEN_AMOUNT", "BLUR_SIGMA", "SPECKLE_VAR")
}


def ok(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {message}")


# ---------------------------------------------------------------------------
# 1. gradient correctness for all three families via the CLI


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    rc = main(["gradcheck"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    assert elapsed < 300.0  # measured 0.1 s on 2 cores
    with capsys.disabled():
        ok(1, f"gradcheck all families < 1e-4 rel err in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. exponential-map properties


def test_criterion_2_exponential_map_properties():
    t0 = time.perf_counter()

    u0 = integrate_svf(VectorField(np.zeros((2, 32, 32)), VELOCITY))
    assert np.array_equal(u0.array, np.zeros((2, 32, 32)))

    const = np.zeros((2, 32, 32))
    const[0], const[1] = 1.5, -2.0
    uc = integrate_svf(VectorField(const, VELOCITY))
    assert np.allclose(uc.array[0, 3:-3, 3:-3], 1.5, atol=1e-5)
    assert np.allclose(uc.array[1, 3:-3, 3:-3], -2.0, atol=1e-5)

    worst_conv = 0.0
    for seed in range(20):
        v = random_smooth_velocity(seed, 32, 32, 2.0, sigma=8.0)
        d = np.abs(integrate_svf(v, 7).array - integrate_svf(v, 9).array).max()
        worst_conv = max(worst_conv, d)
    assert worst_conv < 1e-3

    worst_inv = 0.0
    for seed in range(100):
        v = random_smooth_velocity(seed, 32, 32, 2.0)
        fwd = integrate_svf(v)
        bwd = integrate_svf(VectorField(-v.array, VELOCITY))
        worst_inv = max(
            worst_inv, mean_interior_magnitude(compose_displacements(bwd, fwd), margin=4)
        )
    assert worst_inv < 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0  # measured ~3 s
    ok(
        2,
        f"exp(0)=Id exact, constant interior 1e-5, 7v9 convergence {worst_conv:.1e} < 1e-3, "
        f"inverse residual {worst_inv:.3f} < 0.05 in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. folding-free guarantee


def test_criterion_3_folding_free():
    folded = 0
    total = 0
    for seed in range(100):
        v = random_smooth_velocity(seed, 32, 32, 3.0)
        jac = jacobian_determinant(integrate_svf(v))[1:-1, 1:-1]
        folded += int((jac <= 0).sum())
        total += jac.size
    assert folded == 0
    ok(3, f"0 of {total} interior pixels with non-positive Jacobian over 100 fields")


# ---------------------------------------------------------------------------
# 4. overfit recovery per family


@pytest.mark.parametrize("family", models.FAMILIES)
def test_criterion_4_overfit_recovery(family, tmp_path):
    t0 = time.perf_counter()
    pair = dataio.synth_pair(7, size=64, max_disp=3.0)
    identity_mse = float(((pair.fix - pair.mov) ** 2).mean())

    model = init_model(preset(f"{family}_desk"))
    cfg = TrainConfig(
        lr=2e-3,
        max_epochs=1500,
        patience=1500,
        lam=0.01,
        batch_size=1,
        seed=0,
        augment=False,
    )
    record = ImagePair("overfit", pair.fix, pair.mov)
    result = train(model, [record], [record], cfg)
    assert result.steps <= 2000

    out = model.register(pair.fix, pair.mov)
    warped = warp_image(pair.mov.astype(np.float32), out.disp_forward).data
    mse_ratio = float(((warped - pair.fix) ** 2).mean()) / identity_mse
    assert mse_ratio <= 0.20

    warped_mask = warp_mask(pair.mov_mask, out.disp_forward)
    dices = {label: dice(pair.fix_mask, warped_mask, label) for label in (1, 2, 3)}
    assert min(dices.values()) >= 0.95

    epe = endpoint_error(out.disp_inverse, pair.gt_disp, mask=pair.fix_mask)
    assert epe < 1.0

    jac = jacobian_determinant(out.disp_forward)
    neg_frac = float((jac <= 0).mean())
    assert neg_frac <= 0.01

    # the trained checkpoint must reproduce the recovery through the CLI
    models.save_checkpoint(model, tmp_path / "overfit.prck")
    dataio.write_pgm(pair.fix, tmp_path / "fix.pgm")
    dataio.write_pgm(pair.mov, tmp_path / "mov.pgm")
    rc = main([
        "register", "--checkpoint", str(tmp_path / "overfit.prck"),
        "--fix", str(tmp_path / "fix.pgm"), "--mov", str(tmp_path / "mov.pgm"),
        "--out", str(tmp_path / "reg"),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "reg" / "summary.json").read_text())
    assert summary["mse_warped"] <= 0.20 * summary["mse_identity"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0  # measured 40-60 s per family
    ok(
        4,
        f"{family}: mse ratio {mse_ratio:.3f}, min dice {min(dices.values()):.3f}, "
        f"epe {epe:.2f}px, neg-jac {neg_frac:.4f} in {elapsed:.0f}s / {result.steps} steps",
    )


# ---------------------------------------------------------------------------
# 5. multi-scale fusion


def test_criterion_5_multiscale_fusion():
    rng = np.random.default_rng(0)
    fields = [VectorField(rng.normal(size=(2, g, g)), VELOCITY) for g in (32, 16, 8)]

    child_only = fuse_multiscale(fields, [1.0, 0.0, 0.0])
    assert np.abs(child_only.array - fields[0].array).max() < 1e-6

    weights = [0.5, 0.3, 0.2]
    fused = fuse_multiscale(fields, weights)
    expected = np.zeros((2, 32, 32))
    for f, w in zip(fields, weights):
        arr = f.array
        if arr.shape[1] != 32:
            h = arr.shape[1]
            up = np.zeros((2, 32, 32))
            for c in range(2):
                unit = 32.0 / h
                for i in range(32):
                    for j in range(32):
                        sy = i * (h - 1) / 31.0
                        sx = j * (h - 1) / 31.0
                        y0 = min(int(np.floor(sy)), h - 2)
                        x0 = min(int(np.floor(sx)), h - 2)
                        fy, fx = sy - y0, sx - x0
                        val = (1 - fy) * (
                            (1 - fx) * arr[c, y0, x0] + fx * arr[c, y0, x0 + 1]
                        ) + fy * ((1 - fx) * arr[c, y0 + 1, x0] + fx * arr[c, y0 + 1, x0 + 1])
                        up[c, i, j] = val * unit
            arr = up
        expected += w * arr
    assert np.abs(fused.array - expected).max() < 1e-6
    ok(5, "weights (1,0,0) reproduce the child; (0.5,0.3,0.2) match the loop oracle to 1e-6")


# ---------------------------------------------------------------------------
# 6. loss contract


def test_criterion_6_loss_contract():
    img = np.random.default_rng(1).uniform(size=(16, 16))
    zero = np.zeros((2, 16, 16))

    def result(u, w):
        return models.RegistrationResult(
            velocity=VectorField(u.copy(), VELOCITY),
            disp_forward=VectorField(u, DISPLACEMENT),
            disp_inverse=VectorField(w, DISPLACEMENT),
        )

    assert symmetric_loss(img, img.copy(), result(zero.copy(), zero.copy()), 0.01).item() == 0.0

    rng = np.random.default_rng(2)
    fix, mov = rng.uniform(size=(16, 16)), rng.uniform(size=(16, 16))
    u = random_smooth_velocity(3, 16, 16, 1.5).array
    w = random_smooth_velocity(4, 16, 16, 1.5).array
    a = symmetric_loss(fix, mov, result(u.copy(), w.copy()), lam=0.0).item()
    b = symmetric_loss(mov, fix, result(w.copy(), u.copy()), lam=0.0).item()
    assert a == b  # bit-exact data-term exchange

    h = wd = 12
    gy, gx = np.meshgrid(np.arange(h, dtype=float), np.arange(wd, dtype=float), indexing="ij")
    lin = np.stack([0.1 * gx, np.zeros((h, wd))])
    reg = training.diffusion_regularizer(VectorField(lin, DISPLACEMENT)).item()
    assert abs(reg - 0.1**2 * h * (wd - 1) / (h * wd)) < 1e-6

    assert TrainConfig().lam == 0.01
    ok(6, "loss zero at identity, swap-symmetric bit-exact, analytic regularizer, lambda 0.01")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metric_oracles():
    import math

    def brute_dice(a, b, label):
        inter = na = nb = 0
        h, w = a.shape
        for i in range(h):
            for j in range(w):
                pa, pb = a[i, j] == label, b[i, j] == label
                na += pa
                nb += pb
                inter += pa and pb
        return 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)

    def brute_surface(a, b, label):
        def boundary(mask):
            h, w = mask.shape
            pts = []
            for i in range(h):
                for j in range(w):
                    if mask[i, j] != label:
                        continue
                    if (
                        i in (0, h - 1)
                        or j in (0, w - 1)
                        or mask[i - 1, j] != label
                        or mask[i + 1, j] != label
                        or mask[i, j - 1] != label
                        or mask[i, j + 1] != label
                    ):
                        pts.append((i, j))
            return pts

        pa, pb = boundary(a), boundary(b)
        ab = [min(math.dist(p, q) for q in pb) for p in pa]
        ba = [min(math.dist(p, q) for q in pa) for p in pb]
        return max(max(ab), max(ba)), 0.5 * (sum(ab) / len(ab) + sum(ba) / len(ba))

    def random_mask(seed):
        rng = np.random.default_rng(seed)
        m = np.zeros((20, 20), dtype=np.int64)
        for _ in range(int(rng.integers(1, 3))):
            cy, cx = rng.uniform(4, 16, size=2)
            ry, rx = rng.uniform(2, 5, size=2)
            gy, gx = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
            m[((gy - cy) / ry) ** 2 + ((gx - cx) / rx) ** 2 <= 1.0] = 1
        return m

    checked = 0
    for seed in range(50):
        a, b = random_mask(seed), random_mask(seed + 1000)
        assert dice(a, b, 1) == brute_dice(a, b, 1)
        if (a == 1).any() and (b == 1).any():
            hd, msd = surface_distances(a, b, 1)
            bhd, bmsd = brute_surface(a, b, 1)
            assert hd == bhd
            assert abs(msd - bmsd) < 1e-12
            checked += 1
    assert checked >= 40

    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[0, 0] = 1
    b[3, 4] = 1
    assert surface_distances(a, b, 1) == (5.0, 5.0)

    from patchreg.svf import identity_grid

    grid = identity_grid(16, 16)
    roi = np.zeros((16, 16), dtype=int)
    roi[3:-3, 3:-3] = 2
    stats = metrics.jacobian_stats(VectorField(0.1 * grid.copy(), DISPLACEMENT), roi, 2)
    assert abs(stats.mean - 1.21) < 1e-3

    ok(7, f"dice/hd/msd equal brute force on {checked} mask pairs; 3-4-5 HD=5; jacobian 1.21")


# ---------------------------------------------------------------------------
# 8. determinism of seeded training runs


def test_criterion_8_training_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--n", "2", "--size", "64", "--out", str(data_dir), "--seed", "5"]) == 0
    config = {
        "model": {"preset": "pure_mlp_desk"},
        "train": {"lr": 1e-3, "max_epochs": 5, "patience": 5, "batch_size": 2},
        "data": {"manifest": str(data_dir / "manifest.csv"), "val_split": "train"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    logs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "11"]) == 0
        rows = (out / "log.csv").read_text().splitlines()
        # wall-clock column is excluded from the determinism contract
        logs.append([",".join(r.split(",")[:3]) for r in rows])
    assert logs[0] == logs[1]
    assert len(logs[0]) == 6  # header + 5 epochs
    ok(8, "two seeded cmd_train runs produced identical 5-epoch logs at 32-bit")


# ---------------------------------------------------------------------------
# 9. configuration fidelity against the golden snapshot


def test_criterion_9_config_fidelity():
    snapshot = {
        "model_presets": {name: models.config_to_dict(preset(name)) for name in models.PRESET_NAMES},
        "train_defaults": models.config_to_dict(TrainConfig()),
        "augmentation": AUGMENTATION,
        # the model constants that are no config field
        "model_constants": {"HIDDEN_RATIO": blocks.HIDDEN_RATIO, "SQUARING_STEPS": svf.SQUARING_STEPS},
    }
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(json.dumps(snapshot)) == golden  # tuples read back as lists

    for fam in ("pure_mlp", "mlp_mixer", "swin_trans"):
        multi = preset(f"{fam}_m")
        assert [s.patch for s in multi.scales] == [4, 8, 16]
        assert [s.weight for s in multi.scales] == [0.5, 0.3, 0.2]
        assert multi.dim == 128
        single = preset(f"{fam}_s")
        assert [s.patch for s in single.scales] == [4]
        assert single.scales[0].weight == 1.0
    swin = preset("swin_trans_m")
    assert [s.window for s in swin.scales] == [8, 4, 2]
    assert [s.heads for s in swin.scales] == [32, 16, 8]

    defaults = TrainConfig()
    assert defaults.lr == 1e-4
    assert defaults.max_epochs == 500
    assert defaults.patience == 30
    assert defaults.lam == 0.01
    ok(9, "presets match golden file and the published configuration values")
