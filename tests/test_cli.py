import json
from pathlib import Path

import numpy as np
import pytest

from handrift import svgplot, trainer
from handrift.cli import main
from handrift.config import HAND_RECIPE, REMOVED_KEYS, config_hash, load_config
from handrift.datagen import generate_sequence, sample_script
from handrift.hand import build_hand_model
from handrift.motion import Normalizer
from handrift.motionfile import MotionData, read_motion, write_motion
from handrift.optim import AdamW
from handrift.physics import ObjectTrack, hand_object_distance
from handrift.pipeline import make_bundle, save_bundle
from handrift.rng import RandomStream

TINY_CONFIG = {
    "frames": 14,
    "train": {"epochs": 1, "batch_size": 2, "eval_subset": 0},
    "schedule": {"steps": 2, "eta1": 0.01, "kappa": 0.3, "power": 1.0},
    "denoiser": {"layers": 1, "heads": 2, "width": 16, "mesh_widths": [4, 6],
                 "step_features": 8, "ffn_multiplier": 2},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "gen.json"
    spec.write_text(json.dumps({"frames": 14}))
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    corpus = root / "corpus"
    assert main(["generate", "--spec", str(spec), "--out", str(corpus), "--count", "6",
                 "--seed", "3"]) == 0
    ckpt = root / "model.ckpt"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(ckpt),
                 "--log", str(root / "train.log")]) == 0
    return {"root": root, "spec": spec, "cfg": cfg, "corpus": corpus, "ckpt": ckpt}


def test_generate_writes_files_and_manifest(workspace):
    corpus = workspace["corpus"]
    files = sorted(corpus.glob("*.hmf"))
    assert len(files) == 6
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["count"] == 6
    assert len(manifest["files"]) == 6
    data = read_motion(files[0])
    assert data.frames.shape == (14, 61)
    assert data.states is not None and data.object_center is not None


def test_generate_zero_count_empty_manifest(tmp_path, workspace):
    out = tmp_path / "empty"
    assert main(["generate", "--spec", str(workspace["spec"]), "--out", str(out),
                 "--count", "0", "--seed", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 0 and manifest["files"] == []
    assert list(out.glob("*.hmf")) == []


def test_generate_deterministic_bytes(tmp_path, workspace):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--spec", str(workspace["spec"]), "--out", str(out),
                     "--count", "3", "--seed", "11"]) == 0
    for f in sorted(a.glob("*")):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_generate_missing_spec_exits_one(tmp_path):
    assert main(["generate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"),
                 "--count", "1", "--seed", "0"]) == 1


@pytest.mark.parametrize("text, message", [
    ('{"frames": 16', "is not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    ('{"frames": "x"}', "spec 'frames' must be an integer, got 'x'"),
    ('{"frames": 16, "overrides": {"nope": 1}}', "unknown spec override 'nope'"),
    ('{"frames": 16, "overrides": {"beta": [1]}}',
     "spec override 'beta' must be a list of shape [10] of finite numbers, got [1]"),
    ('{"frames": 16, "overrides": {"free_frames": "x"}}',
     "spec override 'free_frames' must be an integer, got 'x'"),
    ('{"frames": 16, "overrides": {"retreat_len": null}}',
     "spec override 'retreat_len' must be a finite number, got None"),
    ('{"frames": 16, "overrides": {"seed": 1.5}}', "spec override 'seed' must be an integer, got 1.5"),
    ('{"frames": 2}', "spec 'frames' must be at least 14, got 2"),
    ('{"frames": 16, "overrides": {"free_frames": 5}}',
     "spec overrides make script-0 19 frames long, but 'frames' is 16"),
    ('{"overrides": {"release_frames": 1}}',
     "spec overrides make script-0 invalid: release needs >= 2 frames to depart"),
], ids=["invalid-json", "not-an-object", "frames-string", "unknown-override", "beta-shape",
        "free-frames-string", "retreat-len-null", "seed-float", "frames-below-floor",
        "phases-off-frames", "release-one-frame"])
def test_generate_bad_spec_exits_one(tmp_path, capsys, text, message):
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(text)
    assert main(["generate", "--spec", str(spec), "--out", str(out), "--count", "1",
                 "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_generate_negative_count_exits_one(tmp_path, workspace, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(workspace["spec"]), "--out", str(out), "--count", "-1",
                 "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert "--count must be at least 0, got -1" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_generate_zero_count_still_checks_the_spec_overrides(tmp_path, capsys):
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text('{"frames": 16, "overrides": {"free_frames": 5}}')
    assert main(["generate", "--spec", str(spec), "--out", str(out), "--count", "0",
                 "--seed", "0"]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_generate_phase_overrides_summing_to_frames(tmp_path):
    phases = {"free_frames": 1, "reach_frames": 6, "grasp_frames": 4, "manipulate_frames": 3,
              "release_frames": 4}
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps({"frames": 18, "overrides": phases}))
    assert main(["generate", "--spec", str(spec), "--out", str(out), "--count", "2",
                 "--seed", "3"]) == 0
    assert json.loads((out / "manifest.json").read_text())["frames"] == 18
    for f in sorted(out.glob("*.hmf")):
        assert read_motion(f).frames.shape[0] == 18


def test_train_missing_config_exits_one(tmp_path, workspace, capsys):
    missing = tmp_path / "missing.json"
    code = main(["train", "--corpus", str(workspace["corpus"]), "--config", str(missing),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert f"config not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("train_section", [{"teacher_noise_std": 0.1}, {"epoch": 5},
                                           {"mode": "model_agnostic"}])
def test_train_unknown_config_key_exits_one(tmp_path, workspace, capsys, train_section):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], **train_section}}))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(cfg),
                 "--out", str(ckpt)]) == 1
    assert f"unknown config key 'train.{next(iter(train_section))}'" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_holdout_must_leave_training_data(tmp_path, workspace, capsys):
    """--holdout N needs 0 <= N < the corpus size (6 here): N = 5 trains on one sequence."""
    ckpt = tmp_path / "x.ckpt"
    for holdout in (-1, 6, 8):
        assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(workspace["cfg"]),
                     "--out", str(ckpt), f"--holdout={holdout}"]) == 1
        assert (f"--holdout must be at least 0 and below the corpus size 6, got {holdout}"
                in capsys.readouterr().err)
        assert not ckpt.exists()
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(workspace["cfg"]),
                 "--out", str(ckpt), "--holdout", "5"]) == 0
    assert ckpt.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda c: {**c, "hand": {"seed": 5}}, "unknown config key 'hand'"),
    (lambda c: {**c, "smoothfilter_sigma": 1.0}, "unknown config key 'smoothfilter_sigma'"),
    (lambda c: {**c, "sequence_constant_beta": False}, "unknown config key 'sequence_constant_beta'"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "state_classes": 5}},
     "unknown config key 'denoiser.state_classes'"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "max_frames": 256}},
     "unknown config key 'denoiser.max_frames'"),
    (lambda c: {**c, "train": {**c["train"], "epochs": "1"}},
     "config 'train.epochs': expected number, got string"),
    (lambda c: {**c, "train": {**c["train"], "perturb": {"noise_std": [0.06] * 61}}},
     "config 'train.perturb.noise_std': expected number, got list"),
    (lambda c: {**c, "frames": 0}, "config 'frames' must be a positive integer, got 0"),
    (lambda c: {**c, "frames": 14.0}, "config 'frames' must be a positive integer, got 14.0"),
    (lambda c: {**c, "train": {**c["train"], "epochs": 1.5}},
     "config 'train.epochs' must be a non-negative integer, got 1.5"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "width": 4.0}},
     "config 'denoiser.width' must be a positive integer, got 4.0"),
    (lambda c: {**c, "train": {**c["train"], "batch_size": 0}},
     "config 'train.batch_size' must be a positive integer, got 0"),
    (lambda c: {**c, "schedule": {**c["schedule"], "steps": 2.5}},
     "config 'schedule.steps' must be an integer, got 2.5"),
], ids=["hand", "smoothfilter-sigma", "sequence-constant-beta", "state-classes", "max-frames",
        "epochs-string", "noise-std-list", "frames-zero", "frames-float", "epochs-float",
        "width-float", "batch-size-zero", "steps-float"])
def test_train_bad_config_exits_one(tmp_path, workspace, capsys, edit, message):
    """Removed keys are unknown keys, every value must be of its default's kind, and an
    integer setting must hold an integer it can run with."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(edit(TINY_CONFIG)))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(cfg),
                 "--out", str(ckpt)]) == 1
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_non_finite_gradient_exits_two(tmp_path, workspace, capsys, monkeypatch):
    """A NaN in a parameter's gradient is a divergence: exit 2, naming the parameter
    and what was kept, with the last good checkpoint written."""
    class PoisonedAdamW(AdamW):
        def step(self):
            self.params["mesh.0.w"].grad = self.params["mesh.0.w"].grad * np.nan
            super().step()

    monkeypatch.setattr(trainer, "AdamW", PoisonedAdamW)
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(workspace["cfg"]),
                 "--out", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert ("non-finite gradient for parameter 'mesh.0.w' at epoch 0 step 0; "
            "kept the initial weights") in err
    assert ckpt.exists()


@pytest.mark.parametrize("command, bad", [
    ("train", "--out"), ("train", "--log"), ("refine", "--out"), ("evaluate", "--report"),
    ("evaluate", "--csv")])
def test_output_path_is_checked_before_any_work(tmp_path, workspace, capsys, command, bad):
    """An output path whose directory does not exist, or that is a directory, is refused
    up front: exit 1, one line naming the path, and no file written."""
    out = tmp_path / "written"
    out.mkdir()
    src = str(sorted(workspace["corpus"].glob("*.hmf"))[0])
    argv = {
        "train": ["train", "--corpus", str(workspace["corpus"]), "--config", str(workspace["cfg"]),
                  "--out", str(out / "m.ckpt"), "--log", str(out / "train.log")],
        "refine": ["refine", "--ckpt", str(workspace["ckpt"]), "--in", src, "--out", str(out / "r.hmf")],
        "evaluate": ["evaluate", "--pred", src, "--gt", src, "--report", str(out / "r.json"),
                     "--csv", str(out / "rows.csv")],
    }[command]
    missing = str(tmp_path / "missing" / "file")
    for path, message in ((missing, f"directory not found for output {missing}"),
                          (str(tmp_path), f"output {tmp_path} is a directory")):
        argv[argv.index(bad) + 1] = path
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert list(out.iterdir()) == [] and not (tmp_path / "missing").exists()


def test_train_checkpoint_reloads(workspace):
    from handrift.pipeline import load_bundle

    bundle = load_bundle(workspace["ckpt"])
    assert bundle.frames == 14
    assert sum(p.size for p in bundle.denoiser.params.values()) > 0


def test_train_ablation_flag_recorded(tmp_path, workspace):
    ckpt = tmp_path / "abl.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(workspace["cfg"]),
                 "--out", str(ckpt), "--ablation", "no-physics"]) == 0
    from handrift.checkpoint import load_checkpoint

    manifest, _ = load_checkpoint(ckpt)
    tr = manifest["extra"]["config"]["train"]
    assert tr["use_state"] is False and tr["use_kin"] is False and tr["use_sta"] is False


def test_refine_deterministic_and_repeatable(tmp_path, workspace):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out1, out2 = tmp_path / "r1.hmf", tmp_path / "r2.hmf"
    for out in (out1, out2):
        assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(src),
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    refined = read_motion(out1)
    assert refined.frames.shape == (14, 61)
    assert refined.states is not None


def test_refine_stochastic_seeded(tmp_path, workspace):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    outs = []
    for name, seed in (("s1.hmf", 5), ("s2.hmf", 5), ("s3.hmf", 6)):
        out = tmp_path / name
        assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(src),
                     "--out", str(out), "--stochastic", "--seed", str(seed)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_refine_longer_sequence_sliding_window(tmp_path, workspace):
    src = read_motion(sorted(workspace["corpus"].glob("*.hmf"))[0])
    long_frames = np.concatenate([src.frames, src.frames[::-1], src.frames])
    long_path = tmp_path / "long.hmf"
    write_motion(long_path, MotionData(frames=long_frames))
    out = tmp_path / "long_refined.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(long_path),
                 "--out", str(out)]) == 0
    refined = read_motion(out)
    assert refined.frames.shape == (42, 61)
    assert np.all(np.isfinite(refined.frames))


def test_refine_steps_override(tmp_path, workspace):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out = tmp_path / "steps.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(src),
                 "--out", str(out), "--steps", "4"]) == 0
    assert read_motion(out).frames.shape == (14, 61)


def test_refine_normalization_mismatch_exits_three(tmp_path, workspace):
    src = read_motion(sorted(workspace["corpus"].glob("*.hmf"))[0])
    bad = tmp_path / "bad.hmf"
    write_motion(bad, MotionData(frames=src.frames, normalization_id="zscore-v2"))
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                 "--out", str(tmp_path / "x.hmf")]) == 3


def test_refine_too_short_input_exits_one(tmp_path, workspace, capsys):
    src = read_motion(sorted(workspace["corpus"].glob("*.hmf"))[0])
    short = tmp_path / "short.hmf"
    write_motion(short, MotionData(frames=src.frames[:3]))
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(short),
                 "--out", str(out)]) == 1
    assert "at least 4 frames, got 3" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_motion_file_exits_one(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    cut = tmp_path / "cut.hmf"
    cut.write_bytes(src.read_bytes()[:-100])
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(cut),
                 "--out", str(tmp_path / "x.hmf")]) == 1
    assert main(["evaluate", "--pred", str(cut), "--gt", str(src),
                 "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.count("truncated motion file") == 2


@pytest.mark.parametrize("header", [{"format_version": 1}, [1], "frames"])
def test_motion_header_missing_keys_exits_one(tmp_path, workspace, capsys, header):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    bad = tmp_path / "bad.hmf"
    blob = json.dumps(header).encode()
    bad.write_bytes(b"HDMF0001" + len(blob).to_bytes(4, "little") + blob)
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                 "--out", str(tmp_path / "x.hmf")]) == 1
    assert main(["evaluate", "--pred", str(bad), "--gt", str(src),
                 "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("frames", [-1, 2.5, "14", True])
def test_motion_header_bad_frame_count_exits_one(tmp_path, workspace, capsys, frames):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    raw = src.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + length])
    header["frames"] = frames
    blob = json.dumps(header).encode()
    bad = tmp_path / "bad.hmf"
    bad.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + length :])
    assert main(["evaluate", "--pred", str(bad), "--gt", str(src),
                 "--report", str(tmp_path / "r.json")]) == 1
    assert "frames must be a non-negative integer" in capsys.readouterr().err


def test_short_checkpoint_exits_three(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(b"HRCKPT01\x01\x00")
    assert main(["refine", "--ckpt", str(bad), "--in", str(src),
                 "--out", str(tmp_path / "x.hmf")]) == 3
    assert "truncated checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.pop("param/head_pose.w"), "missing param/head_pose.w"),
    (lambda t: t.update({"param/dec_in.w": t["param/dec_in.w"][:, :3]}),
     "param/dec_in.w has shape (61, 3), the model needs (61, 16)"),
    (lambda t: t.update({"param/extra.w": np.zeros((2, 2))}), "unknown param/extra.w"),
], ids=["missing", "wrong-shape", "unknown"])
def test_checkpoint_params_not_matching_model_exit_three(tmp_path, workspace, capsys, edit, message):
    from handrift.checkpoint import load_checkpoint, save_checkpoint

    manifest, tensors = load_checkpoint(workspace["ckpt"])
    edit(tensors)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, seed=manifest["seed"], config_hash=manifest["config_hash"],
                    extra=manifest["extra"])
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(bad), "--in", str(src), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def _with_manifest(src, dst, edit):
    """Copy a checkpoint with its JSON manifest replaced by edit(manifest)."""
    raw = src.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    blob = json.dumps(edit(json.loads(raw[12 : 12 + length]))).encode()
    dst.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + length :])


def _set(path, value):
    """Manifest edit: set (or with value=None, delete) the entry at a key path."""
    def edit(manifest):
        *parents, leaf = path
        node = manifest
        for key in parents:
            node = node[key]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
        return manifest
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda m: [m], "not a JSON object"),
    (_set(["tensors"], None), "'tensors' is not a list"),
    (_set(["tensors"], {"param/start": [1, 16]}), "'tensors' is not a list"),
    (_set(["tensors", 0, "name"], 7), "a tensor record has no string name"),
    (_set(["tensors", 0], "norm/mean"), "a tensor record has no string name"),
    (_set(["tensors", 0, "shape"], [-1]), "not a list of non-negative integers"),
    (_set(["tensors", 0, "shape"], [61.0]), "not a list of non-negative integers"),
    (_set(["tensors", 0, "shape"], "61"), "not a list of non-negative integers"),
    (_set(["tensors", 0, "dtype"], "<f4"), "has dtype '<f4', not '<f8'"),
    (_set(["extra", "config"], None), "no config object under extra.config"),
    (_set(["extra", "config"], [1]), "no config object under extra.config"),
    (_set(["extra"], "config"), "no config object under extra.config"),
], ids=["not-object", "no-tensors", "tensors-not-list", "name-not-string", "record-not-object",
        "negative-dim", "float-dim", "shape-not-list", "dtype", "no-config", "config-not-object",
        "extra-not-object"])
def test_malformed_checkpoint_manifest_exits_three(tmp_path, workspace, capsys, edit, message):
    bad = tmp_path / "bad.ckpt"
    _with_manifest(workspace["ckpt"], bad, edit)
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(bad), "--in", str(src), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def _frames_edit(data):
    data.frames[3, 10] = np.nan


def _object_edit(data):
    data.object_center[2, 1] = np.inf


def _state_edit(data):
    data.states[4] = 9


@pytest.mark.parametrize("edit, message", [
    (_frames_edit, "non-finite values in its frames"),
    (_object_edit, "non-finite values in its object track"),
    (_state_edit, "has state 9; states are 0-4"),
], ids=["frames", "object", "state"])
def test_motion_file_bad_values_exit_one(tmp_path, workspace, capsys, edit, message):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    data = read_motion(src)
    data.frames, data.object_center, data.states = (
        data.frames.copy(), data.object_center.copy(), data.states.copy())
    edit(data)
    bad = tmp_path / "bad.hmf"
    write_motion(bad, data)
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    report = tmp_path / "r.json"
    assert main(["evaluate", "--pred", str(src), "--gt", str(bad), "--report", str(report)]) == 1
    assert not report.exists()
    assert capsys.readouterr().err.count(message) == 2


@pytest.mark.parametrize("threshold", ["x", 0, -10.0, None, True, float("nan"), 1e400],
                         ids=["string", "zero", "negative", "null", "boolean", "nan", "inf"])
def test_motion_file_bad_contact_threshold_exits_one(tmp_path, workspace, capsys, threshold):
    """A stored contact threshold must be a finite number above 0: an evaluate that annotates
    the ground truth from its object track, and refine, refuse anything else, naming the value."""
    src = read_motion(sorted(workspace["corpus"].glob("*.hmf"))[0])
    unlabelled = tmp_path / "unlabelled.hmf"
    write_motion(unlabelled, MotionData(frames=src.frames, object_center=src.object_center))
    raw = unlabelled.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + length])
    header["contact_threshold_mm"] = threshold
    blob = json.dumps(header).encode()
    bad = tmp_path / "bad.hmf"
    bad.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + length :])
    out, report = tmp_path / "x.hmf", tmp_path / "r.json"
    assert main(["evaluate", "--pred", str(unlabelled), "--gt", str(bad), "--report", str(report)]) == 1
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad), "--out", str(out)]) == 1
    assert not report.exists() and not out.exists()
    message = f"contact_threshold_mm must be a finite number > 0, got {threshold!r}"
    assert capsys.readouterr().err.count(message) == 2


def test_motion_file_trailing_bytes_exits_one(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    bad = tmp_path / "long.hmf"
    bad.write_bytes(src.read_bytes() + b"\x00\x01\x02")
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad), "--out", str(out)]) == 1
    assert "3 bytes after its last block" in capsys.readouterr().err
    assert not out.exists()


def test_motion_header_past_end_exits_one(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    raw = src.read_bytes()
    bad = tmp_path / "bad.hmf"
    bad.write_bytes(raw[:8] + (len(raw) - 12 + 50).to_bytes(4, "little") + raw[12:])
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad), "--out", str(out)]) == 1
    assert main(["evaluate", "--pred", str(bad), "--gt", str(src),
                 "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("truncated motion file") == 2 and "after its last block" not in err
    assert not out.exists()


def test_checkpoint_header_past_end_exits_three(tmp_path, workspace, capsys):
    raw = workspace["ckpt"].read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + (len(raw) - 12 + 50).to_bytes(4, "little") + raw[12:])
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(bad), "--in", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "truncated checkpoint" in err and "after its last tensor" not in err
    assert not out.exists()


def test_checkpoint_trailing_bytes_exits_three(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    bad = tmp_path / "long.ckpt"
    bad.write_bytes(workspace["ckpt"].read_bytes() + b"\x00" * 8)
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(bad), "--in", str(src), "--out", str(out)]) == 3
    assert "8 bytes after its last tensor" in capsys.readouterr().err
    assert not out.exists()


def _stored_config(edit):
    """Manifest edit: replace extra.config by edit(config), with config_hash recomputed to match."""
    def manifest_edit(manifest):
        cfg = edit(manifest["extra"]["config"])
        manifest["extra"]["config"] = cfg
        manifest["config_hash"] = config_hash(cfg)
        return manifest
    return manifest_edit


@pytest.mark.parametrize("edit, message", [
    (lambda c: {}, "stored config lacks 'preset'"),
    (lambda c: {"frames": 16}, "stored config lacks 'preset'"),
    (lambda c: {"train": 3}, "stored config lacks 'preset'"),
    (lambda c: {k: v for k, v in c.items() if k != "schedule"}, "stored config lacks 'schedule'"),
    (lambda c: {**c, "train": 3}, "stored config 'train': expected object, got number"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "width": "16"}},
     "stored config 'denoiser.width': expected number, got string"),
    (lambda c: {**c, "train": {k: v for k, v in c["train"].items() if k != "probabilistic"}},
     "stored config lacks 'train.probabilistic'"),
    (lambda c: {**c, "frames": 0}, "stored config 'frames' must be a positive integer, got 0"),
    (lambda c: {**c, "schedule": {**c["schedule"], "steps": 0}}, "schedule needs >= 1 step, got 0"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "heads": 3}}, "width 16 not divisible by heads 3"),
    (lambda c: {**c, "hand": {**HAND_RECIPE, "seed": 5}},
     "stored config 'hand' differs from the fixed hand recipe"),
    (lambda c: {**c, "train": {**c["train"], "epochs": 1.5}},
     "stored config 'train.epochs' must be a non-negative integer, got 1.5"),
    (lambda c: {**c, "denoiser": {**c["denoiser"], "width": 16.0}},
     "stored config 'denoiser.width' must be a positive integer, got 16.0"),
    (lambda c: {**c, "train": {**c["train"], "batch_size": 0}},
     "stored config 'train.batch_size' must be a positive integer, got 0"),
    (lambda c: {**c, "schedule": {**c["schedule"], "steps": 2.5}},
     "stored config 'schedule.steps' must be an integer, got 2.5"),
], ids=["empty", "frames-only", "train-only", "no-schedule", "train-number", "width-string",
        "no-probabilistic", "frames-zero", "steps-zero", "heads-not-dividing-width", "hand-seed",
        "epochs-float", "width-float", "batch-size-zero", "steps-float"])
def test_stored_config_sections_exit_three(tmp_path, workspace, capsys, edit, message):
    bad = tmp_path / "bad.ckpt"
    _with_manifest(workspace["ckpt"], bad, _stored_config(edit))
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(bad), "--in", str(src), "--out", str(out)]) == 3
    assert main(["evaluate", "--pred", str(src), "--gt", str(src), "--ckpt", str(bad),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


def _set_key(cfg, key, value):
    """A copy of ``cfg`` with the dotted ``key`` set to ``value``, its sections made as needed."""
    head, _, rest = key.partition(".")
    return {**cfg, head: _set_key(cfg.get(head, {}), rest, value) if rest else value}


REMOVED_CASES = [  # (key, a value other than the fixed one, how the error shows it)
    ("sequence_constant_beta", True, "true"),
    ("denoiser.gumbel_tau", 0.5, "0.5"),
    ("denoiser.mesh_scale", 0.02, "0.02"),
    ("annotator.distance_rate_mm", 2.0, "2.0"),
    ("annotator.stable_speed_deg", 1.0, "1.0"),
    ("annotator.contact_threshold_mm", 20.0, "20.0"),
]


@pytest.mark.parametrize("key, other, shown", REMOVED_CASES, ids=[c[0] for c in REMOVED_CASES])
def test_stored_removed_key_is_ignored_at_its_fixed_value_and_refused_otherwise(
        tmp_path, workspace, capsys, key, other, shown):
    """A removed key stored at the value the program is fixed at refines as if absent; any
    other value, whose effect is gone, exits 3 naming the key."""
    assert {c[0] for c in REMOVED_CASES} == set(REMOVED_KEYS)
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    ref, fixed, other_out = tmp_path / "ref.hmf", tmp_path / "fixed.hmf", tmp_path / "other.hmf"
    for name, value in (("fixed", REMOVED_KEYS[key]), ("other", other)):
        _with_manifest(workspace["ckpt"], tmp_path / f"{name}.ckpt",
                       _stored_config(lambda c: _set_key(c, key, value)))
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(src), "--out", str(ref)]) == 0
    assert main(["refine", "--ckpt", str(tmp_path / "fixed.ckpt"), "--in", str(src),
                 "--out", str(fixed)]) == 0
    assert fixed.read_bytes() == ref.read_bytes()
    capsys.readouterr()
    assert main(["refine", "--ckpt", str(tmp_path / "other.ckpt"), "--in", str(src),
                 "--out", str(other_out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: checkpoint stored config sets the removed key '{key}' to {shown}"]
    assert not other_out.exists()


OLD_DEFAULTS = {  # the eight keys made constants, at the defaults they had
    "denoiser.gumbel_tau": 1.0, "denoiser.mesh_scale": 0.01, "annotator.distance_rate_mm": 1.0,
    "annotator.stable_speed_deg": 0.5, "annotator.contact_threshold_mm": 10.0,
    "train.weight_decay": 1e-2, "train.lr_decay_factor": 0.8, "train.self_condition": True,
}


@pytest.mark.parametrize("key, value", OLD_DEFAULTS.items(), ids=list(OLD_DEFAULTS))
def test_user_config_naming_a_removed_key_exits_one(tmp_path, workspace, capsys, key, value):
    """A removed key is an unknown key in a user config, even at its old default."""
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(_set_key(TINY_CONFIG, key, value)))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(cfg),
                 "--out", str(ckpt)]) == 1
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("channel, message", [
    (10, "forward kinematics overflows in frame 5"),  # a finger angle
    (59, "procrustes: a point cloud overflows in frame 5"),  # the wrist's y
], ids=["finger-angle", "translation"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_overflowing_motion_exits_one(tmp_path, workspace, capsys, channel, message):
    """Finite values that overflow the FK or a metric are refused, naming the file and frame."""
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    data = read_motion(src)
    data.frames = data.frames.copy()
    data.frames[5, channel] = 1e200
    bad = tmp_path / "huge.hmf"
    write_motion(bad, data)
    report = tmp_path / "r.json"
    assert main(["evaluate", "--pred", str(bad), "--gt", str(src), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert not report.exists()


# an untrained model small enough to build and refine with in milliseconds
UNTRAINED = {"schedule": {"steps": 2},
             "denoiser": {"layers": 0, "heads": 1, "width": 4, "mesh_widths": [2],
                          "step_features": 2, "ffn_multiplier": 1}}


def test_refine_clip_longer_than_256_frames(tmp_path):
    """The positional encoding is sized from the input, so no length is too long."""
    cfg = load_config(None, {**UNTRAINED, "frames": 300})
    model = build_hand_model()
    motion, _, _ = generate_sequence(sample_script(RandomStream(9, "long"), 300), model)
    ckpt, clip, out = tmp_path / "model.ckpt", tmp_path / "clip.hmf", tmp_path / "out.hmf"
    save_bundle(ckpt, make_bundle(cfg, Normalizer.fit([motion]), hand_model=model))
    write_motion(clip, MotionData(frames=motion))
    assert main(["refine", "--ckpt", str(ckpt), "--in", str(clip), "--out", str(out)]) == 0
    assert read_motion(out).frames.shape == (300, 61)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_containers_exit_cleanly(tmp_path):
    """Cut, extended and byte-flipped checkpoints and motion files exit 0, 1 or 3, never raise.

    A cut or trailing bytes anywhere in a container are an error: 3 for a
    checkpoint, 1 for a motion file. Every offset of the 12-byte header and the
    JSON block is cut, plus a seeded sample of payload offsets; extensions and
    flips are seeded, one byte flipped per case.
    """
    cfg = load_config(None, {**UNTRAINED, "frames": 8})
    model = build_hand_model()
    motion, obj, track = generate_sequence(sample_script(RandomStream(9, "fuzz"), 14), model)
    ckpt, clip = tmp_path / "model.ckpt", tmp_path / "clip.hmf"
    save_bundle(ckpt, make_bundle(cfg, Normalizer.fit([motion]), hand_model=model))
    write_motion(clip, MotionData(frames=motion[:8], object_center=obj.center[:8],
                                  contact_threshold=obj.contact_threshold, states=track.labels[:8]))
    bad, out, report = tmp_path / "bad", tmp_path / "out.hmf", tmp_path / "r.json"

    def refine(ckpt_path, motion_path):
        code = main(["refine", "--ckpt", str(ckpt_path), "--in", str(motion_path), "--out", str(out)])
        assert out.exists() == (code == 0)
        out.unlink(missing_ok=True)
        return code

    def evaluate(pred_path):
        code = main(["evaluate", "--pred", str(pred_path), "--gt", str(clip), "--report", str(report)])
        assert report.exists() == (code == 0)
        report.unlink(missing_ok=True)
        return code

    rng = np.random.default_rng(20261018)
    for good, expected in ((ckpt, 3), (clip, 1)):
        raw = good.read_bytes()
        json_end = 12 + int.from_bytes(raw[8:12], "little")
        cuts = list(range(json_end)) + sorted(rng.choice(np.arange(json_end, len(raw)), 40, replace=False))
        extensions = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in rng.integers(1, 64, 5)]
        for damaged in [raw[:cut] for cut in cuts] + [raw + tail for tail in extensions]:
            bad.write_bytes(damaged)
            code = refine(bad, clip) if good == ckpt else refine(ckpt, bad)
            assert code == expected, f"{good.name} cut or extended to {len(damaged)} bytes"
        for pos in rng.integers(0, len(raw), 60):
            flipped = bytearray(raw)
            flipped[pos] ^= int(rng.integers(1, 256))
            bad.write_bytes(bytes(flipped))
            runs = [refine(bad, clip)] if good == ckpt else [refine(ckpt, bad), evaluate(bad)]
            assert set(runs) <= {0, 1, 3}, f"{good.name} flipped at {pos}"


def test_motionfile_roundtrip_byte_identical(tmp_path, workspace):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    data = read_motion(src)
    copy = tmp_path / "copy.hmf"
    write_motion(copy, data)
    assert copy.read_bytes() == src.read_bytes()


def test_evaluate_self_is_perfect(tmp_path, workspace):
    report = tmp_path / "self.json"
    assert main(["evaluate", "--pred", str(workspace["corpus"]), "--gt", str(workspace["corpus"]),
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    agg = rep["aggregate"]
    assert agg["mje"] == pytest.approx(0.0, abs=1e-9)
    assert agg["p_mje"] == pytest.approx(0.0, abs=1e-9)
    assert agg["accl"] == pytest.approx(0.0, abs=1e-9)
    assert agg["f5"] == 1.0 and agg["f15"] == 1.0
    assert agg["kin"] == 0.0 and agg["sta"] == 0.0


def test_evaluate_report_schema_and_aggregate_consistency(tmp_path, workspace):
    report = tmp_path / "rep.json"
    csv = tmp_path / "rows.csv"
    assert main(["evaluate", "--pred", str(workspace["corpus"]), "--gt", str(workspace["corpus"]),
                 "--report", str(report), "--csv", str(csv)]) == 0
    rep = json.loads(report.read_text())
    assert set(rep) == {"aggregate", "sequences"}
    keys = {"mje", "p_mje", "p_mve", "accl", "kin", "sta", "f5", "f15"}
    assert keys <= set(rep["aggregate"])
    for row in rep["sequences"]:
        assert keys <= set(row) and "name" in row
    for k in keys:
        mean = np.mean([row[k] for row in rep["sequences"]])
        assert rep["aggregate"][k] == pytest.approx(mean, abs=1e-12)
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + len(rep["sequences"])


def test_evaluate_unmatched_files_exit_one(tmp_path, workspace, capsys):
    lonely = tmp_path / "pred"
    lonely.mkdir()
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    (lonely / "other_name.hmf").write_bytes(src.read_bytes())
    code = main(["evaluate", "--pred", str(lonely), "--gt", str(workspace["corpus"]),
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "other_name.hmf" in capsys.readouterr().err


def test_evaluate_plots_written(tmp_path, workspace):
    plots = tmp_path / "plots"
    assert main(["evaluate", "--pred", str(workspace["corpus"]), "--gt", str(workspace["corpus"]),
                 "--report", str(tmp_path / "r.json"), "--plots", str(plots)]) == 0
    svgs = list(plots.glob("*.svg"))
    assert any("error" in f.name for f in svgs)
    assert any("states" in f.name for f in svgs)
    assert any("distance" in f.name for f in svgs)
    for f in svgs:
        text = f.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_evaluate_distance_plot_uses_the_annotator_settings(tmp_path, workspace, monkeypatch):
    """d(t) is drawn as the labels beside it were annotated: here from the palm center."""
    model = build_hand_model()
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    gt = read_motion(src)
    cfg = load_config(None, {**UNTRAINED, "annotator": {"use_palm_center": True}})
    ckpt = tmp_path / "palm.ckpt"
    save_bundle(ckpt, make_bundle(cfg, Normalizer.fit([gt.frames]), hand_model=model))
    line_chart, charts = svgplot.line_chart, {}

    def capture(series, title="", **kwargs):
        charts[title] = series
        return line_chart(series, title, **kwargs)

    monkeypatch.setattr(svgplot, "line_chart", capture)
    assert main(["evaluate", "--pred", str(src), "--gt", str(src), "--ckpt", str(ckpt),
                 "--report", str(tmp_path / "r.json"), "--plots", str(tmp_path / "plots")]) == 0
    [(_, d)] = charts[f"{src.stem}: hand-object distance"]
    obj = ObjectTrack(gt.object_center, gt.contact_threshold)
    np.testing.assert_array_equal(d, hand_object_distance(gt.frames, obj, model, use_palm_center=True))
    assert not np.allclose(d, hand_object_distance(gt.frames, obj, model))


def test_evaluate_single_pair_mode(tmp_path, workspace):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    report = tmp_path / "single.json"
    assert main(["evaluate", "--pred", str(src), "--gt", str(src), "--report", str(report)]) == 0
    assert len(json.loads(report.read_text())["sequences"]) == 1


def test_usage_error_exit_code():
    assert main(["refine", "--ckpt"]) == 1
    assert main([]) == 1


def test_evaluate_accl_plot_written(tmp_path, workspace):
    plots = tmp_path / "plots2"
    assert main(["evaluate", "--pred", str(workspace["corpus"]), "--gt", str(workspace["corpus"]),
                 "--report", str(tmp_path / "r2.json"), "--plots", str(plots)]) == 0
    assert any("accl" in f.name for f in plots.glob("*.svg"))


def test_refine_long_stochastic_seeded(tmp_path, workspace):
    src = read_motion(sorted(workspace["corpus"].glob("*.hmf"))[0])
    long_path = tmp_path / "long.hmf"
    write_motion(long_path, MotionData(frames=np.concatenate([src.frames, src.frames[::-1],
                                                              src.frames])))
    outs = []
    for name, seed in (("s1.hmf", 5), ("s2.hmf", 5), ("s3.hmf", 6)):
        out = tmp_path / name
        assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(long_path),
                     "--out", str(out), "--stochastic", "--seed", str(seed)]) == 0
        outs.append(out.read_bytes())
    assert read_motion(tmp_path / "s1.hmf").frames.shape == (42, 61)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]
