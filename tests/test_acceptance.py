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

from patchreg import blocks, dataio, models, svf, training
from patchreg.cli import main
from patchreg.metrics import dice, surface_distances
from patchreg.models import fuse_multiscale, preset
from patchreg.svf import VELOCITY, VectorField, integrate_svf, random_smooth_velocity
from patchreg.training import TrainConfig, symmetric_loss

# one copy of each oracle and same-data check, shared with the unit suites
import test_metrics
import test_training
from shared import brute_force_surface, load_script, loop_resample_and_scale, make_result, random_mask

GOLDEN = Path(__file__).parent / "data" / "golden_presets.json"
# the paper's augmentation protocol, pinned with the presets
AUGMENTATION = {
    name: getattr(training, name)
    for name in ("AUGMENT_PROB", "ROTATE_DEG", "CROP_MIN_SCALE", "BRIGHTNESS_DELTA",
                 "CONTRAST_RANGE", "SHARPEN_AMOUNT", "BLUR_SIGMA", "SPECKLE_VAR")
}


def ok(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {message}")


# criteria 2-4 run the experiments of ``scripts/``, not copies of them
field_properties = load_script("field_properties")
overfit_synthetic = load_script("overfit_synthetic")


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

    # 7 against 9 squarings
    worst_conv = max(field_properties.field_statistics(20, 32, 2.0, sigma=8.0)["convergence"])
    assert worst_conv < 1e-3

    worst_inv = max(field_properties.field_statistics(100, 32, 2.0)["inverse"])
    assert worst_inv < 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0  # measured 0.3 s on 2 cores
    ok(
        2,
        f"exp(0)=Id exact, constant interior 1e-5, 7v9 convergence {worst_conv:.1e} < 1e-3, "
        f"inverse residual {worst_inv:.3f} < 0.05 in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. folding-free guarantee


def test_criterion_3_folding_free():
    stats = field_properties.field_statistics(100, 32, 3.0)
    assert stats["folded"] == 0
    ok(3, f"0 of {stats['pixels']} interior pixels folded (Jacobian not > 0, NaN included) over 100 fields")


# ---------------------------------------------------------------------------
# 4. overfit recovery per family


@pytest.mark.parametrize("family", models.FAMILIES)
def test_criterion_4_overfit_recovery(family, tmp_path):
    t0 = time.perf_counter()
    pair = dataio.synth_pair(7, size=64, max_disp=3.0)
    row, model = overfit_synthetic.run_family(family, pair, lr=2e-3, iterations=1500, seed=0)
    assert row["steps"] <= 2000
    assert row["mse_ratio"] <= 0.20
    min_dice = min(row["dice_lv"], row["dice_myo"], row["dice_la"])
    assert min_dice >= 0.95
    assert row["epe_px"] < 1.0
    assert row["jac_neg_frac"] <= 0.01

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
    assert elapsed < 900.0  # measured 10-17 s per family on 2 cores
    ok(
        4,
        f"{family}: mse ratio {row['mse_ratio']:.3f}, min dice {min_dice:.3f}, "
        f"epe {row['epe_px']:.2f}px, neg-jac {row['jac_neg_frac']:.4f} in {elapsed:.0f}s / {row['steps']} steps",
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
        expected += w * (arr if arr.shape[1] == 32 else loop_resample_and_scale(arr, 32, 32))
    assert np.abs(fused.array - expected).max() < 1e-6
    ok(5, "weights (1,0,0) reproduce the child; (0.5,0.3,0.2) match the loop oracle to 1e-6")


# ---------------------------------------------------------------------------
# 6. loss contract


def test_criterion_6_loss_contract():
    img = np.random.default_rng(1).uniform(size=(16, 16))
    zero = np.zeros((2, 16, 16))
    assert symmetric_loss(img, img.copy(), make_result(zero.copy(), zero.copy()), 0.01).item() == 0.0

    rng = np.random.default_rng(2)
    fix, mov = rng.uniform(size=(16, 16)), rng.uniform(size=(16, 16))
    u = random_smooth_velocity(3, 16, 16, 1.5).array
    w = random_smooth_velocity(4, 16, 16, 1.5).array
    a = symmetric_loss(fix, mov, make_result(u.copy(), w.copy()), lam=0.0).item()
    b = symmetric_loss(mov, fix, make_result(w.copy(), u.copy()), lam=0.0).item()
    assert a == b  # bit-exact data-term exchange
    test_training.test_regularizer_linear_field_analytic()

    assert TrainConfig().lam == 0.01
    ok(6, "loss zero at identity, swap-symmetric bit-exact, analytic regularizer, lambda 0.01")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metric_oracles():
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

    checked = 0
    for seed in range(50):
        a, b = (random_mask(s, size=20, blobs=2, radius=5) for s in (seed, seed + 1000))
        assert dice(a, b, 1) == brute_dice(a, b, 1)
        if (a == 1).any() and (b == 1).any():
            hd, msd = surface_distances(a, b, 1)
            bhd, bmsd = brute_force_surface(a, b, 1)
            assert hd == bhd
            assert abs(msd - bmsd) < 1e-12
            checked += 1
    assert checked >= 40
    test_metrics.test_surface_distance_three_four_five()
    test_metrics.test_jacobian_stats_linear_expansion()
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
