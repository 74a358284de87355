"""Model assembly: zero-head identity start, multi-scale fusion against a
loop-level oracle, determinism, shared extractor weights, checkpoints."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from patchreg import dataio, gradcore, models, training
from patchreg.models import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    ScaleConfig,
    fuse_multiscale,
    init_model,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from patchreg.svf import (
    VELOCITY,
    VectorField,
    compose_displacements,
    mean_interior_magnitude,
    warp_image,
)


def desk_config(family, image_size=32, **kw):
    scale = (
        ScaleConfig(patch=4, window=4, heads=4, weight=1.0)
        if family == "swin_trans"
        else ScaleConfig(patch=4, weight=1.0)
    )
    return ModelConfig(
        family=family,
        scales=[scale],
        dim=16,
        depth_extract=1,
        depth_cross=1,
        image_size=image_size,
        **kw,
    )


@pytest.fixture(scope="module")
def pair32():
    return dataio.synth_pair(0, size=32, max_disp=2.0)


# ---------------------------------------------------------------------------
# zero head / identity start


@pytest.mark.parametrize("family", models.FAMILIES)
def test_zero_head_model_is_identity_transform(family, pair32):
    model = init_model(desk_config(family))
    result = model.register(pair32.fix, pair32.mov)
    assert np.array_equal(result.velocity.array, np.zeros_like(result.velocity.array))
    assert np.array_equal(result.disp_forward.array, np.zeros((2, 32, 32), dtype=np.float32))
    warped = warp_image(pair32.mov.astype(np.float32), result.disp_forward)
    assert np.array_equal(warped.data, pair32.mov.astype(np.float32))


def test_zero_head_loss_equals_plain_symmetric_mse(pair32):
    model = init_model(desk_config("pure_mlp"), dtype=np.float64)
    result = model.register(pair32.fix, pair32.mov)
    loss = training.symmetric_loss(pair32.fix, pair32.mov, result, lam=0.01)
    plain = 2.0 * float(((pair32.fix - pair32.mov) ** 2).mean())
    assert loss.item() == pytest.approx(plain, abs=1e-15)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_parameters():
    a = init_model(desk_config("swin_trans", seed=5))
    b = init_model(desk_config("swin_trans", seed=5))
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = init_model(desk_config("swin_trans", seed=6))
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params.names()
    )


def test_swin_forward_deterministic_hash(pair32):
    model = init_model(desk_config("swin_trans"), head_init="random")
    img = pair32.fix.astype(np.float32)

    def run():
        v = model.fused_velocity(img, img)
        assert np.isfinite(v.array).all()
        return hashlib.sha256(v.array.tobytes()).hexdigest()

    assert run() == run()


PARAM_TABLES = json.loads((Path(__file__).parent / "data" / "param_tables.json").read_text())


def test_param_tables_cover_every_preset():
    assert sorted(PARAM_TABLES) == sorted(models.PRESET_NAMES)


@pytest.mark.parametrize("name", models.PRESET_NAMES)
def test_preset_parameter_table_is_pinned(name):
    # names, shapes, creation order and seeded float32 values decide
    # whether saved checkpoints still load into the same network
    params = init_model(preset(name)).params
    assert [[n, list(t.shape)] for n, t in params.items()] == PARAM_TABLES[name]["params"]
    digest = hashlib.sha256()
    for _, t in params.items():
        digest.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    assert digest.hexdigest() == PARAM_TABLES[name]["sha256"]


# ---------------------------------------------------------------------------
# geometry


def test_velocity_grid_is_image_over_patch():
    cfg = ModelConfig(
        family="pure_mlp", scales=[ScaleConfig(patch=4, weight=1.0)], dim=128,
        depth_extract=1, depth_cross=1, image_size=128,
    )
    model = init_model(cfg, head_init="random")
    rng = np.random.default_rng(0)
    v = model.fused_velocity(rng.uniform(size=(128, 128)), rng.uniform(size=(128, 128)))
    assert v.array.shape == (2, 32, 32)
    assert v.kind == VELOCITY


def test_paper_swin_presets_construct():
    cfg = preset("swin_trans_m")
    assert [s.patch for s in cfg.scales] == [4, 8, 16]
    assert [s.window for s in cfg.scales] == [8, 4, 2]
    assert [s.heads for s in cfg.scales] == [32, 16, 8]
    model = init_model(cfg)
    assert [c.grid for c in model.children] == [32, 16, 8]


def test_window_not_dividing_grid_is_config_error():
    cfg = ModelConfig(
        family="swin_trans",
        scales=[ScaleConfig(patch=4, window=3, heads=4, weight=1.0)],
        dim=16,
        image_size=32,
    )
    with pytest.raises(ConfigError):
        init_model(cfg)


def test_model_itself_rejects_an_unknown_head_init():
    with pytest.raises(ConfigError, match="unknown head_init 'bogus'"):
        models.RegistrationModel(desk_config("pure_mlp"), head_init="bogus")


def test_wrong_image_size_is_dimension_error(pair32):
    model = init_model(desk_config("pure_mlp", image_size=64))
    from patchreg.gradcore import DimensionError

    with pytest.raises(DimensionError):
        model.register(pair32.fix, pair32.mov)


# ---------------------------------------------------------------------------
# multi-scale fusion


def loop_resample_and_scale(arr, th, tw):
    """Corner-aligned bilinear upsample with unit conversion, explicit loops."""
    _, h, w = arr.shape
    out = np.zeros((2, th, tw))
    for c in range(2):
        unit = tw / w if c == 0 else th / h
        for i in range(th):
            for j in range(tw):
                sy = i * (h - 1) / (th - 1)
                sx = j * (w - 1) / (tw - 1)
                y0 = min(int(np.floor(sy)), h - 2)
                x0 = min(int(np.floor(sx)), w - 2)
                fy, fx = sy - y0, sx - x0
                val = (1 - fy) * ((1 - fx) * arr[c, y0, x0] + fx * arr[c, y0, x0 + 1]) + fy * (
                    (1 - fx) * arr[c, y0 + 1, x0] + fx * arr[c, y0 + 1, x0 + 1]
                )
                out[c, i, j] = val * unit
    return out


def test_fuse_single_child_weight_one_is_exact():
    f = VectorField(np.random.default_rng(1).normal(size=(2, 16, 16)), VELOCITY)
    fused = fuse_multiscale([f], [1.0])
    assert np.array_equal(fused.array, f.array)


def test_fuse_two_identical_fields_half_half():
    arr = np.random.default_rng(2).normal(size=(2, 16, 16))
    f1, f2 = VectorField(arr.copy(), VELOCITY), VectorField(arr.copy(), VELOCITY)
    fused = fuse_multiscale([f1, f2], [0.5, 0.5])
    assert np.allclose(fused.array, arr, atol=1e-6)


def test_fuse_matches_loop_level_oracle():
    rng = np.random.default_rng(3)
    grids = [32, 16, 8]
    weights = [0.5, 0.3, 0.2]
    fields = [VectorField(rng.normal(size=(2, g, g)), VELOCITY) for g in grids]
    fused = fuse_multiscale(fields, weights)
    expected = np.zeros((2, 32, 32))
    for f, w in zip(fields, weights):
        arr = f.array
        up = arr if arr.shape[1] == 32 else loop_resample_and_scale(arr, 32, 32)
        expected += w * up
    assert np.abs(fused.array - expected).max() < 1e-6


def test_fuse_weights_one_zero_zero_matches_first_child():
    rng = np.random.default_rng(4)
    fields = [VectorField(rng.normal(size=(2, g, g)), VELOCITY) for g in (32, 16, 8)]
    fused = fuse_multiscale(fields, [1.0, 0.0, 0.0])
    assert np.abs(fused.array - fields[0].array).max() < 1e-6


def test_fuse_empty_list_is_contract_error():
    from patchreg.gradcore import ContractError

    with pytest.raises(ContractError):
        fuse_multiscale([], [])


def test_multiscale_model_runs_end_to_end(pair32):
    cfg = ModelConfig(
        family="pure_mlp",
        scales=[ScaleConfig(4, weight=0.5), ScaleConfig(8, weight=0.3), ScaleConfig(16, weight=0.2)],
        dim=16,
        depth_extract=1,
        depth_cross=1,
        image_size=32,
    )
    model = init_model(cfg, head_init="random")
    result = model.register(pair32.fix, pair32.mov)
    assert result.disp_forward.array.shape == (2, 32, 32)
    assert np.isfinite(result.disp_forward.array).all()


def test_multiscale_gradients_reach_every_child(pair32):
    cfg = ModelConfig(
        family="pure_mlp",
        scales=[ScaleConfig(4, weight=0.5), ScaleConfig(8, weight=0.5)],
        dim=16,
        depth_extract=1,
        depth_cross=1,
        image_size=32,
    )
    model = init_model(cfg, dtype=np.float64, head_init="random")
    loss = training.symmetric_loss(
        pair32.fix, pair32.mov, model.register(pair32.fix, pair32.mov), lam=0.01
    )
    gradcore.backward(loss)
    for child in ("child0", "child1"):
        total = sum(
            float(np.abs(model.params[n].grad).sum())
            for n in model.params.names()
            if n.startswith(child)
        )
        assert total > 0.0


def test_multiscale_training_improves(pair32):
    from patchreg.dataio import ImagePair
    from patchreg.training import AugmentationSpec, TrainConfig, train

    cfg = ModelConfig(
        family="pure_mlp",
        scales=[ScaleConfig(4, weight=0.7), ScaleConfig(8, weight=0.3)],
        dim=16,
        depth_extract=1,
        depth_cross=1,
        image_size=32,
    )
    model = init_model(cfg)
    pair = ImagePair("ms", pair32.fix, pair32.mov)
    tc = TrainConfig(
        lr=2e-3, max_epochs=60, patience=60, batch_size=1, augment=AugmentationSpec.none()
    )
    result = train(model, [pair], [pair], tc)
    assert result.log[-1].train_loss < result.log[0].train_loss


# ---------------------------------------------------------------------------
# inverse consistency of the full pipeline


@pytest.mark.parametrize("family", models.FAMILIES)
def test_register_forward_inverse_compose_to_near_identity(family, pair32):
    model = init_model(desk_config(family), dtype=np.float64, head_init="random")
    result = model.register(pair32.fix, pair32.mov)
    residual = compose_displacements(result.disp_inverse, result.disp_forward)
    assert mean_interior_magnitude(residual, margin=2) < 0.1


# ---------------------------------------------------------------------------
# shared extractor weights


def test_extractor_weights_are_shared_between_streams(pair32):
    model = init_model(desk_config("swin_trans"), head_init="random")
    child = model.children[0]
    # no stream-specific parameters exist
    for name in model.params.names():
        assert "fix" not in name.split(".")[0] and "mov" not in name.split(".")[0]
    img = pair32.fix.astype(np.float32)
    a = child.extract_features(img).data
    b = child.extract_features(img).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, pair32):
    model = init_model(desk_config("mlp_mixer"), head_init="random")
    path = tmp_path / "m.prck"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert models.config_to_dict(loaded.config) == models.config_to_dict(model.config)
    for name in model.params.names():
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    v1 = model.fused_velocity(pair32.fix.astype(np.float32), pair32.mov.astype(np.float32))
    v2 = loaded.fused_velocity(pair32.fix.astype(np.float32), pair32.mov.astype(np.float32))
    assert np.array_equal(v1.array, v2.array)


@pytest.mark.parametrize("name", ["swin_trans_desk", "mlp_mixer_desk"])
def test_checkpoint_load_takes_saved_values_and_draws_no_init(tmp_path, monkeypatch, name):
    model = init_model(preset(name), head_init="random")
    path = tmp_path / "m.prck"
    save_checkpoint(model, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a seeded init")

    monkeypatch.setattr(gradcore, "_trunc_normal", no_draw)
    loaded = load_checkpoint(path)
    assert loaded.params.names() == model.params.names()
    for n, t in model.params.items():
        got = loaded.params[n]
        assert got.data.dtype == t.data.dtype and got.data.tobytes() == t.data.tobytes(), n
        assert got.data.flags.writeable and not np.any(got.grad), n


def rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint's parameter table and payload with ``edit``,
    a function of the [name, shape, float32 array] list, and rehash."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[4:8])[0]
    header = json.loads(raw[8 : 8 + hlen])
    payload, offset, table = raw[8 + hlen :], 0, []
    for name, shape in header["params"]:
        n = int(np.prod(shape))
        table.append([name, shape, np.frombuffer(payload, "<f4", n, offset).reshape(shape)])
        offset += 4 * n
    table = edit(table)
    payload = b"".join(a.tobytes() for _, _, a in table)
    header["params"] = [[name, shape] for name, shape, _ in table]
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(header).encode()
    path.write_bytes(b"PRCK" + struct.pack("<I", len(blob)) + blob + payload)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t + [["extra", [2], np.zeros(2, "<f4")]], "names do not match"),
        (lambda t: t[1:], "no stored value"),
        (lambda t: [[t[0][0], [t[0][2].size], t[0][2].ravel()]] + t[1:], "stored shape"),
    ],
    ids=["extra", "missing", "reshaped"],
)
def test_checkpoint_table_must_match_the_config(tmp_path, edit, message):
    path = tmp_path / "m.prck"
    save_checkpoint(init_model(preset("pure_mlp_desk")), path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_detects_corruption(tmp_path):
    model = init_model(desk_config("pure_mlp"))
    path = tmp_path / "m.prck"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.prck"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_config_round_trips_through_dict():
    for name in models.PRESET_NAMES:
        cfg = preset(name)
        assert ModelConfig.from_dict(models.config_to_dict(cfg)) == cfg, name
    augment = training.AugmentationSpec(
        contrast_range=(0.5, 2.0), sharpen_amount=(0.1, 0.2), blur_sigma=(1.0, 3.0)
    )
    train_cfg = training.TrainConfig(lr=3e-4, augment=augment)
    again = models.config_from_dict(training.TrainConfig, models.config_to_dict(train_cfg), "train")
    assert again == train_cfg


# ---------------------------------------------------------------------------
# forward without a graph

_RESULT_FIELDS = ("velocity", "disp_forward", "disp_inverse")


@pytest.mark.parametrize("name", ["pure_mlp_desk", "mlp_mixer_desk", "swin_trans_desk", "pure_mlp_s"])
def test_register_under_no_grad_is_bit_identical_to_register_with_a_graph(name):
    cfg = preset(name)
    model = init_model(cfg, head_init="random")
    pair = dataio.synth_pair(5, size=cfg.image_size, max_disp=3.0)
    recorded = model.register(pair.fix, pair.mov)
    with gradcore.no_grad():
        bare = model.register(pair.fix, pair.mov)
    for field in _RESULT_FIELDS:
        a, b = getattr(recorded, field), getattr(bare, field)
        assert a.data.requires_grad and not b.data.requires_grad
        assert np.array_equal(a.array, b.array), field


def test_register_under_no_grad_retains_only_its_result():
    import tracemalloc

    cfg = preset("pure_mlp_s")
    model = init_model(cfg, head_init="random")
    pair = dataio.synth_pair(6, size=cfg.image_size, max_disp=3.0)
    with gradcore.no_grad():
        model.register(pair.fix, pair.mov)  # warm-up: nothing first-call-only counts below
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = model.register(pair.fix, pair.mov)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    result_bytes = sum(getattr(result, f).array.nbytes for f in _RESULT_FIELDS)
    assert retained <= result_bytes + (1 << 20), (retained, result_bytes)


@pytest.mark.parametrize("name", ["pure_mlp_desk", "mlp_mixer_desk", "swin_trans_desk"])
def test_evaluate_loss_equals_the_recorded_pair_loss(name):
    model = init_model(preset(name), head_init="random")
    cfg = training.TrainConfig()
    pairs = [dataio.synth_pair(7 + i, size=64, max_disp=3.0) for i in range(2)]
    recorded = [training._pair_loss(model, p.fix, p.mov, cfg) for p in pairs]
    assert all(loss.requires_grad for loss in recorded)
    assert training.evaluate_loss(model, pairs, cfg) == (recorded[0].item() + recorded[1].item()) / 2


def test_register_evaluate_and_validation_keep_no_graph(monkeypatch, tmp_path):
    from patchreg import cli, metrics

    recorded = []
    displacement = models.RegistrationModel.displacement

    def spy(self, v):
        result = displacement(self, v)
        recorded.append(result.data.requires_grad)
        return result

    # register computes both fields through displacement, evaluate_pairs the forward one
    monkeypatch.setattr(models.RegistrationModel, "displacement", spy)
    model = init_model(preset("pure_mlp_desk"), head_init="random")
    pair = dataio.synth_pair(8, size=64, max_disp=3.0)
    model.register(pair.fix, pair.mov)
    assert recorded == [True, True]
    training.evaluate_loss(model, [pair], training.TrainConfig())
    eval_pairs = [metrics.EvalPair(f"p{i}", pair.fix, pair.mov, pair.fix_mask, pair.mov_mask) for i in range(2)]
    metrics.evaluate_pairs(model, eval_pairs, threads=2)
    save_checkpoint(model, tmp_path / "model.prck")
    for name, img in (("fix", pair.fix), ("mov", pair.mov)):
        dataio.write_pgm(img, tmp_path / f"{name}.pgm")
    argv = ["register", "--checkpoint", str(tmp_path / "model.prck"), "--fix", str(tmp_path / "fix.pgm"),
            "--mov", str(tmp_path / "mov.pgm"), "--out", str(tmp_path / "reg")]
    assert cli.main(argv) == 0
    assert recorded == [True, True] + [False] * 6
