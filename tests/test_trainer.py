import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import handrift
from handrift import pipeline, trainer
from handrift import tensor as tz
from handrift.config import DEFAULTS, config_hash, load_config
from handrift.datagen import generate_sequence, perturb, sample_script
from handrift.denoiser import Denoiser
from handrift.diffusion import DiffusionSchedule, blend_estimate, refine
from handrift.errors import ConfigError, NumericalError, TrainingDivergedError
from handrift.hand import build_hand_model
from handrift.motion import FRAME_DIM, Normalizer
from handrift.motionfile import MotionData, write_motion
from handrift.physics import STATE_COUNT, ObjectTrack, annotate_states
from handrift.pipeline import evaluate_pair, load_bundle, make_bundle, refine_sequence
from handrift.rng import RandomStream
from handrift.tensor import Tensor
from handrift.trainer import CorpusItem, TrainConfig, total_loss, train, train_config_from

from conftest import CACHE, cache_tag


@pytest.fixture(scope="module")
def tiny_cfg():
    return load_config(None, {
        "frames": 14,
        "train": {"epochs": 2, "batch_size": 2, "eval_subset": 0},
        "schedule": {"steps": 3},
        "denoiser": {"layers": 1, "heads": 2, "width": 16, "mesh_widths": [4, 6],
                     "step_features": 8, "ffn_multiplier": 2},
    })


@pytest.fixture(scope="module")
def tiny_corpus(tiny_cfg):
    model = build_hand_model()
    items = []
    for i in range(4):
        script = sample_script(RandomStream(21, f"tiny-{i}"), 14)
        motion, obj, track = generate_sequence(script, model)
        items.append(CorpusItem(motion=motion, object_center=obj.center,
                                contact_threshold=obj.contact_threshold))
    return items


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(constant_accel_baseline=True).validate()
    cfg = TrainConfig(constant_accel_baseline=True, use_state=False, use_kin=False, use_sta=False)
    cfg.validate()
    with pytest.raises(ConfigError):
        TrainConfig(lambda_geo=-1.0).validate()


@pytest.mark.parametrize("train_section", [{"teacher_noise_std": 0.1}, {"epoch": 5}])
def test_load_config_rejects_unknown_keys(tmp_path, train_section):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"train": train_section})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"train": train_section}))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


@pytest.mark.parametrize("preset", [["desk"], ""], ids=["list", "empty"])
def test_load_config_refuses_an_unknown_preset(tmp_path, preset):
    """A preset that is not a preset's name, a non-string or an empty one included, is
    refused naming it, whether the file or the overrides set it."""
    message = re.escape(f"unknown preset {preset!r} (have: ['desk', 'paper'])")
    with pytest.raises(ConfigError, match=message):
        load_config(None, {"preset": preset})
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"preset": preset}))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def _leaves(node, prefix=""):
    if not isinstance(node, dict):
        return [prefix[:-1]]
    return [leaf for k, v in node.items() for leaf in _leaves(v, f"{prefix}{k}.")]


def test_config_surface_is_pinned():
    """Every settable config key; adding or removing a knob is a deliberate change here."""
    assert sorted(_leaves(DEFAULTS)) == [
        "denoiser.ffn_multiplier", "denoiser.heads", "denoiser.layers", "denoiser.mesh_widths",
        "denoiser.step_features", "denoiser.width",
        "frames", "preset",
        "schedule.steps",
        "seed", "train.batch_size", "train.constant_accel_baseline", "train.divergence_threshold",
        "train.epochs", "train.eval_subset", "train.lambda_geo", "train.lr", "train.lr_decay_epochs",
        "train.perturb.burst_mean", "train.perturb.mask_noise_std", "train.perturb.mask_prob",
        "train.perturb.noise_std", "train.probabilistic", "train.self_condition_start_epoch",
        "train.use_kin", "train.use_sta", "train.use_state",
    ]


def test_public_api_is_pinned():
    """Every name ``handrift`` exports; adding or removing one is a deliberate change here."""
    assert sorted(handrift.__all__) == [
        "CorpusItem", "Denoiser", "DenoiserConfig", "DiffusionSchedule", "EvalReport", "HandModel",
        "HandModelConfig", "MotionState", "Normalizer", "ObjectTrack", "PerturbSpec", "RandomStream",
        "RefineBundle", "ScriptSpec", "StateTrack", "TrainConfig",
        "accl_error", "annotate_states", "build_hand_model", "default_config", "f_score",
        "forward_sample", "generate_sequence", "kin_metric", "kinetics_loss", "load_bundle",
        "load_config", "make_schedule", "mje", "p_mje", "perturb", "procrustes_align", "refine",
        "refine_sequence", "reverse_transition", "sample_script", "save_bundle", "sta_metric",
        "stability_loss", "state_loss", "total_loss", "train",
    ]
    for name in handrift.__all__:
        assert getattr(handrift, name) is not None, name


def test_total_loss_oracle_denoiser_is_zero(tiny_cfg, tiny_corpus):
    model = build_hand_model()
    motions = [c.motion for c in tiny_corpus]
    normalizer = Normalizer.fit(motions)
    bundle = make_bundle(tiny_cfg, normalizer, hand_model=model)
    tcfg = train_config_from(tiny_cfg)

    from handrift.physics import ObjectTrack, annotate_states
    item = tiny_corpus[0]
    labels = annotate_states(item.motion, ObjectTrack(item.object_center, item.contact_threshold),
                             model).labels
    x_norm = normalizer.normalize(item.motion)[None]
    perfect_logits = np.full((1, labels.size, STATE_COUNT), -30.0)
    perfect_logits[0, np.arange(labels.size), labels] = 30.0

    def oracle(cond, teacher, lab):
        return Tensor(x_norm.copy()), Tensor(perfect_logits.copy())

    bundle.denoiser.decode_teacher = oracle
    loss, comps = total_loss(bundle, x_norm, x_norm.copy(), np.array([1]), labels[None],
                             tcfg, RandomStream(0, "noise"))
    assert loss.item() <= 1e-5
    assert comps["data"] == 0.0
    assert comps["kinetics"] == 0.0 and comps["stability"] == 0.0 and comps["geo"] <= 1e-12


def test_total_loss_lambdas_zero_reduces_to_data_term(tiny_cfg, tiny_corpus):
    model = build_hand_model()
    normalizer = Normalizer.fit([c.motion for c in tiny_corpus])
    bundle = make_bundle(tiny_cfg, normalizer, hand_model=model)
    tcfg = train_config_from(tiny_cfg)
    tcfg.use_state = tcfg.use_kin = tcfg.use_sta = False
    tcfg.lambda_geo = 0.0

    item = tiny_corpus[0]
    x_norm = normalizer.normalize(item.motion)[None]
    y_norm = x_norm + 0.1
    labels = np.zeros((1, item.motion.shape[0]), dtype=np.int64)
    loss, comps = total_loss(bundle, x_norm, y_norm, np.array([2]), labels, tcfg,
                             RandomStream(1, "noise"))
    assert loss.item() == pytest.approx(comps["data"], rel=1e-15)
    for key in ("state", "kinetics", "stability", "geo", "const_accel"):
        assert comps[key] == 0.0


def test_total_loss_breakdown_sums_to_total(tiny_cfg, tiny_corpus):
    model = build_hand_model()
    normalizer = Normalizer.fit([c.motion for c in tiny_corpus])
    bundle = make_bundle(tiny_cfg, normalizer, hand_model=model)
    tcfg = train_config_from(tiny_cfg)

    from handrift.physics import ObjectTrack, annotate_states
    item = tiny_corpus[1]
    labels = annotate_states(item.motion, ObjectTrack(item.object_center, item.contact_threshold),
                             model).labels[None]
    x_norm = normalizer.normalize(item.motion)[None]
    y_norm = x_norm + RandomStream(2, "y").normal(x_norm.shape) * 0.3
    loss, comps = total_loss(bundle, x_norm, y_norm, np.array([1]), labels, tcfg,
                             RandomStream(3, "noise"))
    parts = sum(v for k, v in comps.items() if k != "total")
    assert comps["total"] == pytest.approx(parts, abs=1e-12)
    assert loss.item() == comps["total"]


def test_train_bitwise_reproducible_checkpoint(tiny_cfg, tiny_corpus, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    train(tiny_corpus, tiny_cfg, out_ckpt=p1, log_path=tmp_path / "a.log")
    train(tiny_corpus, tiny_cfg, out_ckpt=p2, log_path=tmp_path / "b.log")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()


def test_train_leaves_the_callers_corpus_unwritten(tiny_cfg, tiny_corpus):
    """train keeps the annotator's labels to itself: the items' labels stay None, and
    items that carry those labels train to the same weights."""
    assert all(item.labels is None for item in tiny_corpus)
    bundle, _ = train(tiny_corpus, tiny_cfg)
    assert all(item.labels is None for item in tiny_corpus)
    model = build_hand_model()
    labelled = [CorpusItem(motion=i.motion, labels=annotate_states(
        i.motion, ObjectTrack(i.object_center, i.contact_threshold), model).labels) for i in tiny_corpus]
    again, _ = train(labelled, tiny_cfg)
    for name, param in bundle.denoiser.params.items():
        np.testing.assert_array_equal(param.data, again.denoiser.params[name].data)


def test_train_log_rows_structure(tiny_cfg, tiny_corpus, tmp_path):
    log = tmp_path / "run.log"
    bundle, rows = train(tiny_corpus, tiny_cfg, log_path=log, eval_corpus=tiny_corpus[:1])
    assert len(rows) == tiny_cfg["train"]["epochs"]
    for row in rows:
        assert {"epoch", "lr", "loss"} <= set(row)
        assert {"data", "state", "kinetics", "stability", "geo", "total"} <= set(row["loss"])
    parsed = [json.loads(line) for line in log.read_text().splitlines()]
    assert parsed == rows or len(parsed) == len(rows)


def test_train_log_records_gradient_and_parameter_norms(tiny_cfg, tiny_corpus):
    bundle, rows = train(tiny_corpus, tiny_cfg)
    for row in rows:
        for key in ("grad_norm", "param_norm"):
            assert np.isfinite(row[key]) and row[key] > 0
    params = bundle.denoiser.params.values()
    assert rows[-1]["param_norm"] == pytest.approx(np.sqrt(sum(np.sum(p.data**2) for p in params)))


def test_train_divergence_aborts_with_checkpoint(tiny_cfg, tiny_corpus, tmp_path):
    cfg = load_config(None, {**{k: tiny_cfg[k] for k in ("frames", "schedule", "denoiser")},
                             "train": {**tiny_cfg["train"], "divergence_threshold": 1e-9}})
    ckpt = tmp_path / "diverged.ckpt"
    with pytest.raises(TrainingDivergedError, match=r"^loss .* at epoch 0 step 0; kept the initial weights$"):
        train(tiny_corpus, cfg, out_ckpt=ckpt)
    assert ckpt.exists()
    bundle = load_bundle(ckpt)  # still loadable, and holds the weights training started from
    init = bundle.denoiser.init_params(cfg["seed"])
    assert bundle.denoiser.params.keys() == init.keys()
    for name, p in bundle.denoiser.params.items():
        np.testing.assert_array_equal(p.data, init[name].data)


def test_a_training_step_holds_one_graph(monkeypatch):
    """Two consecutive desk steps of ``train`` under tracemalloc: the second step's
    peak is at most 1.2 times the first's, so the first step's graph and gradients are
    gone before the second step builds its own."""
    model = build_hand_model()
    items = []
    for i in range(16):
        motion, obj, _ = generate_sequence(sample_script(RandomStream(31, f"peak-{i}"), 16), model)
        items.append(CorpusItem(motion=motion, object_center=obj.center,
                                contact_threshold=obj.contact_threshold))
    cfg = load_config(None, {"train": {"epochs": 1, "eval_subset": 0}})
    peaks = []

    def loss_from_a_fresh_peak(*args, **kwargs):
        tracemalloc.reset_peak()
        return total_loss(*args, **kwargs)

    def measured_backward(loss):
        tz.backward(loss)
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(trainer, "total_loss", loss_from_a_fresh_peak)
    monkeypatch.setattr(trainer, "backward", measured_backward)
    tracemalloc.start()
    try:
        train(items, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert peaks[1] <= 1.2 * peaks[0], [f"{p / 1e6:.1f} MB" for p in peaks]


def test_checkpoint_stores_normalization_and_config_hash(tiny_cfg, tiny_corpus, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    bundle, _ = train(tiny_corpus, tiny_cfg, out_ckpt=ckpt)
    loaded = load_bundle(ckpt)
    assert loaded.config_hash == config_hash(tiny_cfg)
    np.testing.assert_array_equal(loaded.normalizer.mean, bundle.normalizer.mean)
    np.testing.assert_array_equal(loaded.normalizer.std, bundle.normalizer.std)
    out1, _ = refine_sequence(bundle, tiny_corpus[0].motion)
    out2, _ = refine_sequence(loaded, tiny_corpus[0].motion)
    np.testing.assert_array_equal(out1, out2)


def test_deterministic_baseline_reuses_pipeline(tiny_cfg, tiny_corpus):
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["train"].update({"probabilistic": False, "use_state": False, "use_kin": False,
                         "use_sta": False})
    bundle, rows = train(tiny_corpus, cfg)
    assert not bundle.probabilistic
    refined, track = refine_sequence(bundle, tiny_corpus[0].motion)
    assert refined.shape == tiny_corpus[0].motion.shape
    assert track.labels.shape == (tiny_corpus[0].motion.shape[0],)


@pytest.fixture(scope="module")
def tiny_ckpt(tiny_cfg, tiny_corpus, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("tiny") / "model.ckpt"
    train(tiny_corpus, tiny_cfg, out_ckpt=ckpt)
    return ckpt


def test_inference_on_a_loaded_bundle_builds_no_tensor(tiny_ckpt, tiny_corpus, monkeypatch):
    """Autodiff is for training only: refining (deterministic and stochastic), evaluating
    and annotating with a loaded model construct no Tensor, so FK, skinning and the
    denoiser all take their plain-array paths."""
    bundle = load_bundle(tiny_ckpt)
    item = tiny_corpus[0]
    y_raw = np.concatenate([item.motion, item.motion[::-1]])  # 28 frames: three windows
    made = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    refined, track = refine_sequence(bundle, y_raw)
    refine_sequence(bundle, y_raw, rng=RandomStream(3, "no-tensor"))
    labels = annotate_states(item.motion, ObjectTrack(item.object_center, item.contact_threshold),
                             bundle.hand_model).labels
    evaluate_pair(refined[:14], item.motion, labels, bundle.hand_model)
    assert made == []
    Tensor(np.zeros(1))  # the counter itself works
    assert made == [1]


def test_batched_windows_match_per_window_refine(tiny_ckpt, tiny_corpus):
    bundle = load_bundle(tiny_ckpt)
    den, norm = bundle.denoiser.frozen(np.float32), bundle.normalizer
    m = tiny_corpus[0].motion
    y_raw = np.concatenate([m, m[::-1], m])  # 42 frames: five 14-frame windows
    T, win = y_raw.shape[0], bundle.frames
    acc, votes, weight = np.zeros((T, FRAME_DIM)), np.zeros((T, STATE_COUNT)), np.zeros(T)
    tri = np.minimum(np.arange(1, win + 1), np.arange(win, 0, -1)).astype(np.float64)

    def denoise_fn(x_n, y, n):
        xh, lgt = den.forward_free(x_n[None], y[None], n)
        return xh[0], lgt[0]

    for s in (0, 7, 14, 21, 28):  # one window at a time, blended as refine_sequence does
        out, logits = refine(norm.normalize(y_raw[s : s + win]), denoise_fn, bundle.schedule)
        acc[s : s + win] += tri[:, None] * norm.denormalize(out)
        votes[s : s + win] += tri[:, None] * np.eye(STATE_COUNT)[np.argmax(logits, axis=-1)]
        weight[s : s + win] += tri
    refined, track = refine_sequence(bundle, y_raw)
    ref = acc / weight[:, None]
    # float32 GEMM rounding depends on a batch's row count: measured 3.3e-7 (9e-9 of the
    # clip's max); the bound is 1e-7 of the max, under two float32 unit roundoffs (6e-8)
    assert np.abs(refined - ref).max() <= 1e-7 * np.abs(ref).max()
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


def test_refine_sequence_of_mixed_length_clips_matches_single_clip_refines(
        tiny_ckpt, tiny_corpus, monkeypatch):
    """Clips longer than a window, exactly one window and shorter refine together in
    one reverse chain per window length; each within float32 rounding of its own refine."""
    bundle = load_bundle(tiny_ckpt)
    a, b = tiny_corpus[0].motion, tiny_corpus[1].motion
    clips = [np.concatenate([a, b[::-1]])[:25], b, a[:9], np.concatenate([b, a, b])[:30]]
    assert [min(len(c), bundle.frames) for c in clips] == [14, 14, 9, 14]
    chains = []
    refine_chain = pipeline.refine

    def counted(y, *args, **kwargs):
        chains.append(y.shape[0])
        return refine_chain(y, *args, **kwargs)

    monkeypatch.setattr(pipeline, "refine", counted)
    together = refine_sequence(bundle, clips)
    assert chains == [3 + 1 + 4, 1]  # the 14-frame windows of three clips, then the short clip
    for clip, (refined, track) in zip(clips, together):
        alone, alone_track = refine_sequence(bundle, clip)
        assert refined.shape == clip.shape
        # float32 GEMM rounding depends on a batch's row count: measured 4.1e-7 (1.1e-8 of
        # the clip's max); the bound is 1e-7 of the max, under two float32 unit roundoffs
        assert np.abs(refined - alone).max() <= 1e-7 * np.abs(alone).max()
        np.testing.assert_array_equal(track.labels, alone_track.labels)


@pytest.mark.parametrize("mode", ["deterministic", "stochastic", "steps2"])
def test_refine_encodes_condition_once_per_chain(tiny_ckpt, tiny_corpus, monkeypatch, mode):
    """A refine encodes y's meshes once per chain and x^n's once per step, and gives
    bitwise the result of a chain that encodes y's meshes again at every step: all
    N = 3 trained steps by default, and trained steps 1 and 3 under ``steps=2``."""
    bundle = load_bundle(tiny_ckpt)
    den, norm = bundle.denoiser.frozen(np.float32), bundle.normalizer
    m = tiny_corpus[0].motion
    y_raw = np.concatenate([m, m[::-1], m])  # 42 frames: five 14-frame windows
    T, win, starts = y_raw.shape[0], bundle.frames, (0, 7, 14, 21, 28)
    deterministic = mode == "deterministic"
    steps = 2 if mode == "steps2" else None
    idx = pipeline.respaced_steps(bundle.schedule.steps, steps or bundle.schedule.steps)
    assert list(idx) == ([1, 3] if steps else [1, 2, 3])
    schedule = DiffusionSchedule(eta=bundle.schedule.eta[idx - 1], kappa=bundle.schedule.kappa)

    def stream():
        return None if deterministic else RandomStream(5, f"cond-once-{mode}")

    rows = []
    encode_meshes = Denoiser.encode_meshes

    def counted(self, meshes):
        rows.append(meshes.shape[0])
        return encode_meshes(self, meshes)

    monkeypatch.setattr(Denoiser, "encode_meshes", counted)
    rng = stream()

    def denoise_fn(x_n, y, k):  # no codes: y's meshes are encoded with x^n's at every step
        return den.forward_free(x_n, y, idx[k - 1], rng=rng)

    windows = norm.normalize(np.stack([y_raw[s : s + win] for s in starts]))
    out, logits = refine(windows, denoise_fn, schedule, rng=rng)
    assert rows == [2 * len(starts) * win] * schedule.steps
    acc, votes, weight = np.zeros((T, FRAME_DIM)), np.zeros((T, STATE_COUNT)), np.zeros(T)
    tri = np.minimum(np.arange(1, win + 1), np.arange(win, 0, -1)).astype(np.float64)
    for s, window, labels in zip(starts, norm.denormalize(out), np.argmax(logits, axis=-1)):
        acc[s : s + win] += tri[:, None] * window
        votes[s : s + win, :] += tri[:, None] * np.eye(STATE_COUNT)[labels]
        weight[s : s + win] += tri

    rows.clear()
    refined, track = refine_sequence(bundle, y_raw, rng=stream(), steps=steps)
    # y once per clip frame, then x^n per step; a deterministic chain starts at x^N = y,
    # whose codes it has
    assert rows == [T] + [len(starts) * win] * (schedule.steps - 1 if deterministic else schedule.steps)
    np.testing.assert_array_equal(refined, acc / weight[:, None])
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


def _refine_encoding_y_per_window(bundle, clip, rng):
    """refine_sequence of one clip as it was before y's codes were shared across
    overlapping windows: y's meshes encoded per window row. (refined, StateTrack)."""
    plan = pipeline._windows(bundle, clip)
    _, win, starts = plan
    y_norm = bundle.normalizer.normalize(np.stack([clip[s : s + win] for s in starts]))
    den = bundle.denoiser.frozen(np.float32)
    y_code = den.encode_condition(y_norm)

    def denoise_fn(x_n, y, n):
        return den.forward_free(x_n, y, n, rng=rng, y_code=y_code)

    out, logits = refine(y_norm, denoise_fn, bundle.schedule, rng=rng)
    return pipeline._blend(plan, bundle.normalizer.denormalize(out), np.argmax(logits, axis=-1))


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_condition_codes_encoded_once_per_clip_frame(tiny_ckpt, tiny_corpus, deterministic):
    """y's codes come from each clip frame once, gathered per window row: bitwise the
    per-window codes, and the same refined clips, for a 37- and a 128-frame clip."""
    bundle = load_bundle(tiny_ckpt)
    motions = [item.motion for item in tiny_corpus]
    long = np.concatenate(motions + [m[::-1] for m in motions] + motions)[:128]
    clips = [long[:37], long]
    den = bundle.denoiser.frozen(np.float32)
    for clip in clips:
        _, win, starts = pipeline._windows(bundle, clip)
        rows = np.concatenate([s + np.arange(win) for s in starts])
        per_frame = den.encode_condition(bundle.normalizer.normalize(clip))[rows]
        per_window = den.encode_condition(bundle.normalizer.normalize(clip[rows]))
        np.testing.assert_array_equal(per_frame, per_window)

    for i, clip in enumerate(clips):
        def stream():
            return None if deterministic else RandomStream(13, f"clip-{i}")

        ref, ref_track = _refine_encoding_y_per_window(bundle, clip, stream())
        refined, track = refine_sequence(bundle, clip, rng=stream())
        np.testing.assert_array_equal(refined, ref)
        np.testing.assert_array_equal(track.labels, ref_track.labels)


def test_non_probabilistic_refine_encodes_meshes_once(tiny_cfg, tiny_corpus, monkeypatch):
    """A non-probabilistic refine reuses y's mesh codes for x^n = y, and gives bitwise
    the result of encoding the same meshes a second time."""
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["train"]["probabilistic"] = False
    bundle = make_bundle(cfg, Normalizer.fit([c.motion for c in tiny_corpus]))
    m = tiny_corpus[0].motion
    y_raw = np.concatenate([m, m[::-1], m])  # 42 frames: five 14-frame windows

    rows = []
    encode_meshes, forward_free = Denoiser.encode_meshes, Denoiser.forward_free

    def counted(self, meshes):
        rows.append(meshes.shape[0])
        return encode_meshes(self, meshes)

    monkeypatch.setattr(Denoiser, "encode_meshes", counted)
    monkeypatch.setattr(Denoiser, "forward_free",  # a copy of y is not y: encoded again
                        lambda self, x_n, y, *a, **k: forward_free(self, x_n.copy(), y, *a, **k))
    twice, twice_track = refine_sequence(bundle, y_raw)
    assert rows == [42, 70]  # y's 42 clip frames, then x^n's 70 window rows

    monkeypatch.setattr(Denoiser, "forward_free", forward_free)
    rows.clear()
    refined, track = refine_sequence(bundle, y_raw)
    assert rows == [42]
    np.testing.assert_array_equal(refined, twice)
    np.testing.assert_array_equal(track.labels, twice_track.labels)


def test_failed_refine_leaves_bundle_unchanged(tiny_ckpt, tiny_corpus, monkeypatch):
    bundle = load_bundle(tiny_ckpt)
    y_raw = tiny_corpus[0].motion
    original = Denoiser.forward_free
    calls = []

    def fail_second_call(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalError("forced failure mid-chain")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Denoiser, "forward_free", fail_second_call)
    with pytest.raises(NumericalError):
        refine_sequence(bundle, y_raw, steps=bundle.schedule.steps - 1)
    monkeypatch.undo()
    assert bundle.denoiser.total_steps == bundle.schedule.steps
    out, track = refine_sequence(bundle, y_raw)
    fresh, fresh_track = refine_sequence(load_bundle(tiny_ckpt), y_raw)
    np.testing.assert_array_equal(out, fresh)
    np.testing.assert_array_equal(track.labels, fresh_track.labels)


def test_respaced_steps_are_pinned():
    """K of N trained steps, evenly spaced and ending at N; distinct for every K <= N."""
    assert pipeline.REFINE_STEPS == 4
    assert list(pipeline.respaced_steps(8, 4)) == [2, 4, 6, 8]
    assert list(pipeline.respaced_steps(8, 1)) == [8]
    assert list(pipeline.respaced_steps(8, 2)) == [4, 8]
    for total in range(1, 41):
        for steps in range(1, total + 1):
            idx = pipeline.respaced_steps(total, steps)
            assert len(idx) == steps and idx[-1] == total and idx[0] >= 1
            assert np.all(np.diff(idx) > 0), (total, steps)
        assert list(pipeline.respaced_steps(total, total)) == list(range(1, total + 1))


@pytest.fixture(scope="module")
def eight_step_bundle(tiny_cfg, tiny_corpus):
    """An untrained tiny model with the default N = 8 reverse steps."""
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["schedule"]["steps"] = 8
    bundle = make_bundle(cfg, Normalizer.fit([c.motion for c in tiny_corpus]))
    rng = np.random.default_rng(23)
    for p in bundle.denoiser.params.values():  # larger weights so poses move per step
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3
    return bundle


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_respaced_chain_over_all_steps_is_the_trained_chain(eight_step_bundle, tiny_corpus,
                                                            deterministic):
    """Respacing with all N trained steps gives bitwise the chain over the trained schedule."""
    bundle = eight_step_bundle
    den = bundle.denoiser.frozen(np.float32)
    m = tiny_corpus[0].motion
    clip = bundle.normalizer.normalize(np.concatenate([m, m[::-1], m]))
    rows = np.stack([s + np.arange(14) for s in (0, 7, 14, 21, 28)])  # five 14-frame windows
    y_norm, y_code = clip[rows], den.encode_condition(clip)[rows.reshape(-1)]

    def stream():
        return None if deterministic else RandomStream(29, "all-steps")

    rng = stream()

    def denoise_fn(x_n, y, n):
        return den.forward_free(x_n, y, n, rng=rng, y_code=y_code)

    out, logits = refine(y_norm, denoise_fn, bundle.schedule, rng=rng)
    got, got_logits = pipeline._refine_windows(bundle, den, y_norm, y_code, stream(), steps=8)
    np.testing.assert_array_equal(got, bundle.normalizer.denormalize(out))
    np.testing.assert_array_equal(got_logits, logits)


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_respaced_chain_is_a_loop_over_its_trained_steps(eight_step_bundle, tiny_corpus,
                                                         deterministic):
    """The default refine of an N = 8 model is bitwise this loop over trained steps 8, 6,
    4 and 2: each denoiser call gets its trained n of N, and each transition moves from
    eta_n to the next chosen step's eta (to 0 at the last), with ResShift's mean and
    variance. Twice in a row it gives the same bytes."""
    bundle = eight_step_bundle
    eta, kappa = bundle.schedule.eta, bundle.schedule.kappa
    clip = tiny_corpus[1].motion  # one 14-frame window
    den = bundle.denoiser.frozen(np.float32)
    y = bundle.normalizer.normalize(clip)[None]
    y_code = den.encode_condition(y[0])

    def stream():
        return None if deterministic else RandomStream(31, "respaced-loop")

    rng = stream()
    x = y if deterministic else y + kappa * rng.normal(y.shape)
    chosen = [8, 6, 4, 2]
    for n, prev in zip(chosen, chosen[1:] + [0]):
        x_hat, logits = den.forward_free(x, y, n, rng=rng, y_code=y_code)
        x_hat = np.asarray(x_hat, dtype=np.float64)
        if prev == 0:
            x = x_hat
            break
        e, e_prev = float(eta[n - 1]), float(eta[prev - 1])
        if deterministic:
            x_hat = blend_estimate(x, y, x_hat, e)
        alpha = e - e_prev
        x = (e_prev / e) * x + (alpha / e) * x_hat
        if not deterministic:
            x = x + np.sqrt(kappa**2 * e_prev * alpha / e) * rng.normal(x.shape)

    refined, track = refine_sequence(bundle, clip, rng=stream())
    np.testing.assert_array_equal(refined, bundle.normalizer.denormalize(x)[0])
    np.testing.assert_array_equal(track.labels, np.argmax(logits, axis=-1)[0])
    again, _ = refine_sequence(bundle, clip, rng=stream())
    assert again.tobytes() == refined.tobytes()
    alone, _ = refine_sequence(bundle, clip, rng=stream(), steps=8)
    assert not np.array_equal(alone, refined)  # all eight steps give another chain


def _noisy_clips(bundle, corpus):
    """A 42- and a 128-frame noisy clip: held-out motions end to end, perturbed as in training."""
    long = np.concatenate([item.motion for item in corpus["test"][:8]])
    noisy = perturb(long, train_config_from(bundle.config).perturb, RandomStream(17, "precision"),
                    channel_scale=bundle.normalizer.std)
    return [noisy[:42], noisy]


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_float32_refine_matches_the_float64_chain(trained_full, desk_corpus, deterministic):
    """refine_sequence runs on the float32 view. The same chain, the default respaced
    one over trained steps 2, 4, 6 and 8, built by hand on the float64 ``frozen()`` view
    differs by at most 5e-4 raw units and flips no state label, on the trained model's
    42- and 128-frame refines, deterministic and stochastic.

    Over 16 noisy 128-frame clips the largest difference measured was 5.9e-5 mm, on a
    translation channel (1e-6 in normalized units), and 1.5e-7 rad on an angle; refined
    poses are judged against errors of 7-11 mm."""
    bundle, _ = trained_full
    den = bundle.denoiser.frozen()
    idx = pipeline.respaced_steps(bundle.schedule.steps, pipeline.REFINE_STEPS)
    assert list(idx) == [2, 4, 6, 8]
    chain = DiffusionSchedule(eta=bundle.schedule.eta[idx - 1], kappa=bundle.schedule.kappa)
    for i, clip in enumerate(_noisy_clips(bundle, desk_corpus)):
        def stream():
            return None if deterministic else RandomStream(19, f"precision-{i}")

        plan = pipeline._windows(bundle, clip)
        _, win, starts = plan
        rows = np.stack([s + np.arange(win) for s in starts])
        frames_norm = bundle.normalizer.normalize(clip)
        y_code = den.encode_condition(frames_norm)[rows.reshape(-1)]
        rng = stream()

        def denoise_fn(x_n, y, k):
            return den.forward_free(x_n, y, idx[k - 1], rng=rng, y_code=y_code)

        out, logits = refine(frames_norm[rows], denoise_fn, chain, rng=rng)
        ref, ref_track = pipeline._blend(plan, bundle.normalizer.denormalize(out),
                                         np.argmax(logits, axis=-1))
        refined, track = refine_sequence(bundle, clip, rng=stream())
        assert np.abs(refined - ref).max() <= 5e-4
        np.testing.assert_array_equal(track.labels, ref_track.labels)


def test_refine_bytes_do_not_depend_on_blas_threads(trained_full, desk_corpus, tmp_path):
    """The float32 refine writes the same bytes under one and two BLAS threads,
    deterministic and stochastic (the thread count is read when numpy loads, so each
    refine runs in its own process)."""
    bundle, _ = trained_full
    clip = tmp_path / "clip.hmf"
    write_motion(clip, MotionData(frames=_noisy_clips(bundle, desk_corpus)[1]))
    ckpt = CACHE / f"{cache_tag('full')}.ckpt"
    src = str(Path(handrift.__file__).parent.parent)
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for mode in ([], ["--stochastic", "--seed", "3"]):
            out = tmp_path / f"out-{threads}-{len(mode)}.hmf"
            subprocess.run([sys.executable, "-m", "handrift.cli", "refine", "--ckpt", str(ckpt),
                            "--in", str(clip), "--out", str(out), *mode], env=env, check=True,
                           capture_output=True)
            outputs[threads, len(mode)] = out.read_bytes()
    for mode in (0, 3):
        assert outputs["1", mode] == outputs["2", mode]
    assert outputs["1", 0] != outputs["1", 3]
