import json
import tracemalloc

import numpy as np
import pytest

import handrift
from handrift import pipeline, trainer
from handrift import tensor as tz
from handrift.config import (DEFAULTS, HAND_RECIPE, annotator_config_from, config_hash,
                             denoiser_config_from, load_config)
from handrift.datagen import generate_sequence, sample_script
from handrift.denoiser import Denoiser
from handrift.diffusion import make_schedule, refine
from handrift.errors import ConfigError, NumericalError, TrainingDivergedError
from handrift.hand import HandModelConfig, build_hand_model
from handrift.motion import FRAME_DIM, Normalizer
from handrift.physics import STATE_COUNT, ObjectTrack, annotate_states
from handrift.pipeline import evaluate_pair, load_bundle, make_bundle, refine_sequence, save_bundle
from handrift.rng import RandomStream
from handrift.tensor import Tensor
from handrift.trainer import CorpusItem, TrainConfig, total_loss, train, train_config_from


@pytest.fixture(scope="module")
def tiny_cfg():
    return load_config(None, {
        "frames": 14,
        "train": {"epochs": 2, "batch_size": 2, "eval_subset": 0},
        "schedule": {"steps": 3, "eta1": 0.01, "kappa": 0.3, "power": 1.0},
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


def _fresh_items(items):
    return [CorpusItem(motion=i.motion.copy(), object_center=i.object_center.copy(),
                       contact_threshold=i.contact_threshold) for i in items]


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


def test_checkpoint_with_removed_config_key_loads(tiny_cfg, tiny_corpus, tmp_path):
    """Stored configs bypass load_config: keys removed since still load."""
    removed = {"teacher_noise_std": 0.0, "lambda_state": 1.0, "lambda_kinetics": 1.0,
               "lambda_stability": 1.0, "lambda_const_accel": 1.0, "mode": "model_agnostic",
               "weight_decay": 1e-2, "lr_decay_factor": 0.8, "self_condition": True}
    removed_denoiser = {"state_classes": 5, "max_frames": 256, "gumbel_tau": 1.0, "mesh_scale": 0.01}
    removed_annotator = {"distance_rate_mm": 1.0, "stable_speed_deg": 0.5, "contact_threshold_mm": 10.0}
    old = {**tiny_cfg, "hand": HAND_RECIPE, "smoothfilter_sigma": 1.0,
           "sequence_constant_beta": False,
           "denoiser": {**tiny_cfg["denoiser"], **removed_denoiser},
           "annotator": {**tiny_cfg["annotator"], **removed_annotator},
           "train": {**tiny_cfg["train"], **removed}}
    normalizer = Normalizer.fit([item.motion for item in tiny_corpus])
    path = tmp_path / "old.ckpt"
    save_bundle(path, make_bundle(old, normalizer))
    loaded = load_bundle(path)
    assert {k: loaded.config["train"][k] for k in removed} == removed
    assert {k: loaded.config["denoiser"][k] for k in removed_denoiser} == removed_denoiser
    assert {k: loaded.config["annotator"][k] for k in removed_annotator} == removed_annotator
    assert loaded.config["hand"] == HAND_RECIPE and loaded.config["smoothfilter_sigma"] == 1.0
    assert loaded.config["sequence_constant_beta"] is False
    assert train_config_from(loaded.config) == train_config_from(tiny_cfg)
    assert denoiser_config_from(loaded.config) == denoiser_config_from(tiny_cfg)
    assert annotator_config_from(loaded.config) == annotator_config_from(tiny_cfg)
    assert loaded.hand_model.config == HandModelConfig()


def _leaves(node, prefix=""):
    if not isinstance(node, dict):
        return [prefix[:-1]]
    return [leaf for k, v in node.items() for leaf in _leaves(v, f"{prefix}{k}.")]


def test_config_surface_is_pinned():
    """Every settable config key; adding or removing a knob is a deliberate change here."""
    assert sorted(_leaves(DEFAULTS)) == [
        "annotator.use_palm_center",
        "denoiser.ffn_multiplier", "denoiser.heads", "denoiser.layers", "denoiser.mesh_widths",
        "denoiser.step_features", "denoiser.width",
        "frames", "preset",
        "schedule.eta1", "schedule.kappa", "schedule.power", "schedule.steps",
        "seed", "train.batch_size", "train.constant_accel_baseline", "train.divergence_threshold",
        "train.epochs", "train.eval_subset", "train.lambda_geo", "train.lr", "train.lr_decay_epochs",
        "train.perturb.burst_mean", "train.perturb.mask_noise_std", "train.perturb.mask_prob",
        "train.perturb.noise_std", "train.probabilistic", "train.self_condition_start_epoch",
        "train.use_kin", "train.use_sta", "train.use_state",
    ]


def test_public_api_is_pinned():
    """Every name ``handrift`` exports; adding or removing one is a deliberate change here."""
    assert sorted(handrift.__all__) == [
        "AnnotatorConfig", "CorpusItem", "Denoiser", "DenoiserConfig", "DiffusionSchedule",
        "EvalReport", "HandModel", "HandModelConfig", "MotionState", "Normalizer", "ObjectTrack",
        "PerturbSpec", "RandomStream", "RefineBundle", "ScriptSpec", "StateTrack", "TrainConfig",
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
    train(_fresh_items(tiny_corpus), tiny_cfg, out_ckpt=p1, log_path=tmp_path / "a.log")
    train(_fresh_items(tiny_corpus), tiny_cfg, out_ckpt=p2, log_path=tmp_path / "b.log")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()


def test_train_log_rows_structure(tiny_cfg, tiny_corpus, tmp_path):
    log = tmp_path / "run.log"
    bundle, rows = train(_fresh_items(tiny_corpus), tiny_cfg, log_path=log,
                         eval_corpus=_fresh_items(tiny_corpus)[:1])
    assert len(rows) == tiny_cfg["train"]["epochs"]
    for row in rows:
        assert {"epoch", "lr", "loss"} <= set(row)
        assert {"data", "state", "kinetics", "stability", "geo", "total"} <= set(row["loss"])
    parsed = [json.loads(line) for line in log.read_text().splitlines()]
    assert parsed == rows or len(parsed) == len(rows)


def test_train_log_records_gradient_and_parameter_norms(tiny_cfg, tiny_corpus):
    bundle, rows = train(_fresh_items(tiny_corpus), tiny_cfg)
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
        train(_fresh_items(tiny_corpus), cfg, out_ckpt=ckpt)
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
    bundle, _ = train(_fresh_items(tiny_corpus), tiny_cfg, out_ckpt=ckpt)
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
    bundle, rows = train(_fresh_items(tiny_corpus), cfg)
    assert not bundle.probabilistic
    refined, track = refine_sequence(bundle, tiny_corpus[0].motion)
    assert refined.shape == tiny_corpus[0].motion.shape
    assert track.labels.shape == (tiny_corpus[0].motion.shape[0],)


@pytest.fixture(scope="module")
def tiny_ckpt(tiny_cfg, tiny_corpus, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("tiny") / "model.ckpt"
    train(_fresh_items(tiny_corpus), tiny_cfg, out_ckpt=ckpt)
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
    refine_sequence(bundle, y_raw, deterministic=False, rng=RandomStream(3, "no-tensor"))
    labels = annotate_states(item.motion, ObjectTrack(item.object_center, item.contact_threshold),
                             bundle.hand_model).labels
    evaluate_pair(refined[:14], item.motion, labels, bundle.hand_model)
    assert made == []
    Tensor(np.zeros(1))  # the counter itself works
    assert made == [1]


def test_batched_windows_match_per_window_refine(tiny_ckpt, tiny_corpus):
    bundle = load_bundle(tiny_ckpt)
    den, norm = bundle.denoiser, bundle.normalizer
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
    np.testing.assert_allclose(refined, acc / weight[:, None], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


def test_refine_sequence_of_mixed_length_clips_matches_single_clip_refines(
        tiny_ckpt, tiny_corpus, monkeypatch):
    """Clips longer than a window, exactly one window and shorter refine together in
    one reverse chain per window length; each within 1e-12 of its own refine."""
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
        assert np.abs(refined - alone).max() <= 1e-12 * np.abs(alone).max()
        np.testing.assert_array_equal(track.labels, alone_track.labels)


@pytest.mark.parametrize("mode", ["deterministic", "stochastic", "steps4"])
def test_refine_encodes_condition_once_per_chain(tiny_ckpt, tiny_corpus, monkeypatch, mode):
    """A refine encodes y's meshes once per chain and x^n's once per step, and gives
    bitwise the result of a chain that encodes y's meshes again at every step."""
    bundle = load_bundle(tiny_ckpt)
    den, norm = bundle.denoiser, bundle.normalizer
    m = tiny_corpus[0].motion
    y_raw = np.concatenate([m, m[::-1], m])  # 42 frames: five 14-frame windows
    T, win, starts = y_raw.shape[0], bundle.frames, (0, 7, 14, 21, 28)
    deterministic = mode == "deterministic"
    steps = 4 if mode == "steps4" else None
    sch = bundle.config["schedule"]
    schedule = make_schedule(steps, sch["eta1"], sch["kappa"], sch["power"]) if steps else bundle.schedule

    def stream():
        return None if deterministic else RandomStream(5, f"cond-once-{mode}")

    rows = []
    encode_meshes = Denoiser.encode_meshes

    def counted(self, meshes):
        rows.append(meshes.shape[0])
        return encode_meshes(self, meshes)

    monkeypatch.setattr(Denoiser, "encode_meshes", counted)
    rng = stream()

    def denoise_fn(x_n, y, n):  # no codes: y's meshes are encoded with x^n's at every step
        return den.forward_free(x_n, y, n, rng=rng, total_steps=schedule.steps)

    windows = norm.normalize(np.stack([y_raw[s : s + win] for s in starts]))
    out, logits = refine(windows, denoise_fn, schedule, rng=rng, deterministic=deterministic)
    assert rows == [2 * len(starts) * win] * schedule.steps
    acc, votes, weight = np.zeros((T, FRAME_DIM)), np.zeros((T, STATE_COUNT)), np.zeros(T)
    tri = np.minimum(np.arange(1, win + 1), np.arange(win, 0, -1)).astype(np.float64)
    for s, window, labels in zip(starts, norm.denormalize(out), np.argmax(logits, axis=-1)):
        acc[s : s + win] += tri[:, None] * window
        votes[s : s + win, :] += tri[:, None] * np.eye(STATE_COUNT)[labels]
        weight[s : s + win] += tri

    rows.clear()
    refined, track = refine_sequence(bundle, y_raw, deterministic=deterministic, rng=stream(),
                                     steps=steps)
    # y once per clip frame, then x^n per step; a deterministic chain starts at x^N = y,
    # whose codes it has
    assert rows == [T] + [len(starts) * win] * (schedule.steps - 1 if deterministic else schedule.steps)
    np.testing.assert_array_equal(refined, acc / weight[:, None])
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


def _refine_encoding_y_per_window(bundle, clip, deterministic, rng):
    """refine_sequence of one clip as it was before y's codes were shared across
    overlapping windows: y's meshes encoded per window row. (refined, StateTrack)."""
    plan = pipeline._windows(bundle, clip)
    _, win, starts = plan
    y_norm = bundle.normalizer.normalize(np.stack([clip[s : s + win] for s in starts]))
    den = bundle.denoiser.frozen()
    y_code = den.encode_condition(y_norm)

    def denoise_fn(x_n, y, n):
        return den.forward_free(x_n, y, n, rng=rng, y_code=y_code)

    out, logits = refine(y_norm, denoise_fn, bundle.schedule, rng=rng, deterministic=deterministic)
    return pipeline._blend(plan, bundle.normalizer.denormalize(out), np.argmax(logits, axis=-1))


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_condition_codes_encoded_once_per_clip_frame(tiny_ckpt, tiny_corpus, deterministic):
    """y's codes come from each clip frame once, gathered per window row: bitwise the
    per-window codes, and the same refined clips, for a 37- and a 128-frame clip."""
    bundle = load_bundle(tiny_ckpt)
    motions = [item.motion for item in tiny_corpus]
    long = np.concatenate(motions + [m[::-1] for m in motions] + motions)[:128]
    clips = [long[:37], long]
    den = bundle.denoiser.frozen()
    for clip in clips:
        _, win, starts = pipeline._windows(bundle, clip)
        rows = np.concatenate([s + np.arange(win) for s in starts])
        per_frame = den.encode_condition(bundle.normalizer.normalize(clip))[rows]
        per_window = den.encode_condition(bundle.normalizer.normalize(clip[rows]))
        np.testing.assert_array_equal(per_frame, per_window)

    for i, clip in enumerate(clips):
        def stream():
            return None if deterministic else RandomStream(13, f"clip-{i}")

        ref, ref_track = _refine_encoding_y_per_window(bundle, clip, deterministic, stream())
        refined, track = refine_sequence(bundle, clip, deterministic=deterministic, rng=stream())
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
        refine_sequence(bundle, y_raw, steps=bundle.schedule.steps + 1)
    monkeypatch.undo()
    assert bundle.denoiser.total_steps == bundle.schedule.steps
    out, track = refine_sequence(bundle, y_raw)
    fresh, fresh_track = refine_sequence(load_bundle(tiny_ckpt), y_raw)
    np.testing.assert_array_equal(out, fresh)
    np.testing.assert_array_equal(track.labels, fresh_track.labels)
