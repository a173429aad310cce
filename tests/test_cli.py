import json
from pathlib import Path

import numpy as np
import pytest

from handrift.cli import main
from handrift.config import config_hash, hand_config_from, load_config
from handrift.datagen import generate_sequence, sample_script
from handrift.hand import build_hand_model
from handrift.motion import Normalizer
from handrift.motionfile import MotionData, read_motion, write_motion
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


def test_train_missing_config_exits_one(tmp_path, workspace, capsys):
    missing = tmp_path / "missing.json"
    code = main(["train", "--corpus", str(workspace["corpus"]), "--config", str(missing),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert f"config not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("train_section", [{"teacher_noise_std": 0.1}, {"epoch": 5}])
def test_train_unknown_config_key_exits_one(tmp_path, workspace, capsys, train_section):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], **train_section}}))
    ckpt = tmp_path / "x.ckpt"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--config", str(cfg),
                 "--out", str(ckpt)]) == 1
    assert f"unknown config key 'train.{next(iter(train_section))}'" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_checkpoint_reloads(workspace):
    from handrift.pipeline import load_bundle

    bundle = load_bundle(workspace["ckpt"])
    assert bundle.frames == 14
    assert bundle.denoiser.parameter_count() > 0


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


def test_motion_file_trailing_bytes_exits_one(tmp_path, workspace, capsys):
    src = sorted(workspace["corpus"].glob("*.hmf"))[0]
    bad = tmp_path / "long.hmf"
    bad.write_bytes(src.read_bytes() + b"\x00\x01\x02")
    out = tmp_path / "x.hmf"
    assert main(["refine", "--ckpt", str(workspace["ckpt"]), "--in", str(bad), "--out", str(out)]) == 1
    assert "3 bytes after its last block" in capsys.readouterr().err
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
], ids=["empty", "frames-only", "train-only", "no-schedule", "train-number", "width-string",
        "no-probabilistic"])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_containers_exit_cleanly(tmp_path):
    """Cut, extended and byte-flipped checkpoints and motion files exit 0, 1 or 3, never raise.

    A cut or trailing bytes anywhere in a container are an error: 3 for a
    checkpoint, 1 for a motion file. Every offset of the 12-byte header and the
    JSON block is cut, plus a seeded sample of payload offsets; extensions and
    flips are seeded, one byte flipped per case.
    """
    cfg = load_config(None, {"frames": 8, "schedule": {"steps": 2},
                             "denoiser": {"layers": 0, "heads": 1, "width": 4, "mesh_widths": [2],
                                          "step_features": 2, "ffn_multiplier": 1}})
    model = build_hand_model(hand_config_from(cfg))
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
