import json

import numpy as np
import pytest

from handrift import tensor as tz
from handrift.config import config_hash, hand_config_from, load_config
from handrift.datagen import generate_sequence, sample_script
from handrift.denoiser import Denoiser
from handrift.diffusion import make_schedule, refine
from handrift.errors import ConfigError, NumericalError, TrainingDivergedError
from handrift.hand import build_hand_model
from handrift.motion import FRAME_DIM, Normalizer
from handrift.physics import STATE_COUNT
from handrift.pipeline import load_bundle, make_bundle, refine_sequence, save_bundle
from handrift.rng import RandomStream
from handrift.tensor import Tensor
from handrift.trainer import (CorpusItem, TrainConfig, _ema, total_loss, train,
                              train_config_from, training_loss_ema)


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
    model = build_hand_model(hand_config_from(tiny_cfg))
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
    with pytest.raises(ConfigError):
        TrainConfig(mode="weird").validate()


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
               "lambda_stability": 1.0, "lambda_const_accel": 1.0}
    old = {**tiny_cfg, "train": {**tiny_cfg["train"], **removed}}
    normalizer = Normalizer.fit([item.motion for item in tiny_corpus])
    path = tmp_path / "old.ckpt"
    save_bundle(path, make_bundle(old, normalizer))
    loaded = load_bundle(path)
    assert {k: loaded.config["train"][k] for k in removed} == removed
    assert train_config_from(loaded.config) == train_config_from(tiny_cfg)


def test_total_loss_oracle_denoiser_is_zero(tiny_cfg, tiny_corpus):
    model = build_hand_model(hand_config_from(tiny_cfg))
    motions = [c.motion for c in tiny_corpus]
    normalizer = Normalizer.fit(motions)
    bundle = make_bundle(tiny_cfg, normalizer, hand_model=model)
    tcfg = train_config_from(tiny_cfg)

    from handrift.physics import ObjectTrack, annotate_states
    item = tiny_corpus[0]
    labels = annotate_states(item.motion, ObjectTrack(item.object_center, item.contact_threshold),
                             model).labels
    x_norm = normalizer.normalize(item.motion)[None]
    S = tiny_cfg["denoiser"]["state_classes"]
    perfect_logits = np.full((1, labels.size, S), -30.0)
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
    model = build_hand_model(hand_config_from(tiny_cfg))
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
    model = build_hand_model(hand_config_from(tiny_cfg))
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


def test_train_divergence_aborts_with_checkpoint(tiny_cfg, tiny_corpus, tmp_path):
    cfg = load_config(None, {**{k: tiny_cfg[k] for k in ("frames", "schedule", "denoiser")},
                             "train": {**tiny_cfg["train"], "divergence_threshold": 1e-9}})
    ckpt = tmp_path / "diverged.ckpt"
    with pytest.raises(TrainingDivergedError):
        train(_fresh_items(tiny_corpus), cfg, out_ckpt=ckpt)
    assert ckpt.exists()
    bundle = load_bundle(ckpt)  # still loadable
    assert bundle.denoiser.parameter_count() > 0


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


def test_paired_mode_requires_estimates(tiny_cfg, tiny_corpus):
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["train"]["mode"] = "paired"
    with pytest.raises(ConfigError):
        train(_fresh_items(tiny_corpus), cfg)


def test_paired_mode_trains_on_external_estimates(tiny_cfg, tiny_corpus):
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["train"]["mode"] = "paired"
    items = _fresh_items(tiny_corpus)
    rng = np.random.default_rng(0)
    for it in items:
        it.paired_estimate = it.motion + rng.normal(size=it.motion.shape) * 0.05
    bundle, rows = train(items, cfg)
    assert len(rows) == cfg["train"]["epochs"]


def test_ema_definition():
    vals = [10.0, 10.0, 10.0]
    out = _ema(vals, window=10)
    assert out == [10.0, 10.0, 10.0]
    rows = [{"loss": {"total": v}} for v in [5.0, 4.0, 3.0, 2.5]]
    ema = training_loss_ema(rows)
    assert all(b <= a for a, b in zip(ema, ema[1:]))


def test_sequence_constant_beta_flag(tiny_cfg, tiny_corpus):
    cfg = json.loads(json.dumps(tiny_cfg))
    cfg["sequence_constant_beta"] = True
    bundle, _ = train(_fresh_items(tiny_corpus), cfg)
    refined, _ = refine_sequence(bundle, tiny_corpus[0].motion)
    spread = np.abs(refined[:, 48:58] - refined[0, 48:58]).max()
    assert spread == 0.0


@pytest.fixture(scope="module")
def tiny_ckpt(tiny_cfg, tiny_corpus, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("tiny") / "model.ckpt"
    train(_fresh_items(tiny_corpus), tiny_cfg, out_ckpt=ckpt)
    return ckpt


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
        return xh.data[0], lgt.data[0]

    for s in (0, 7, 14, 21, 28):  # one window at a time, blended as refine_sequence does
        with tz.no_grad():
            out, logits = refine(norm.normalize(y_raw[s : s + win]), denoise_fn, bundle.schedule)
        acc[s : s + win] += tri[:, None] * norm.denormalize(out)
        votes[s : s + win] += tri[:, None] * np.eye(STATE_COUNT)[np.argmax(logits, axis=-1)]
        weight[s : s + win] += tri
    refined, track = refine_sequence(bundle, y_raw)
    np.testing.assert_allclose(refined, acc / weight[:, None], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


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
        xh, lgt = den.forward_free(x_n, y, n, rng=rng, total_steps=schedule.steps)
        return xh.data, lgt.data

    windows = norm.normalize(np.stack([y_raw[s : s + win] for s in starts]))
    with tz.no_grad():
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
    # y once, then x^n per step; a deterministic chain starts at x^N = y, whose codes it has
    assert rows == [len(starts) * win] * (schedule.steps if deterministic else 1 + schedule.steps)
    np.testing.assert_array_equal(refined, acc / weight[:, None])
    np.testing.assert_array_equal(track.labels, np.argmax(votes, axis=-1))


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
    assert rows == [70, 70]

    monkeypatch.setattr(Denoiser, "forward_free", forward_free)
    rows.clear()
    refined, track = refine_sequence(bundle, y_raw)
    assert rows == [70]
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
