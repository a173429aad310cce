"""Command-line surface: generate, train, refine, evaluate.

Exit codes: 0 success, 1 usage/input error, 2 training divergence,
3 checkpoint/normalization incompatibility. ``refine`` runs every model
through the same reverse chain: a non-probabilistic one takes a single
deterministic step. ``evaluate`` scores its pairs one after another.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import HAND_RECIPE, annotator_config_from, load_config
from .datagen import MIN_SCRIPT_FRAMES, ScriptSpec, generate_sequence, sample_script
from .errors import (CheckpointError, ConfigError, ContractError, HandriftError, InputError,
                     TrainingDivergedError)
from .hand import build_hand_model
from .metrics import EvalReport
from .motionfile import MotionData, read_motion, write_motion
from .physics import ObjectTrack, annotate_states, hand_object_distance
from .pipeline import evaluate_pair, load_bundle, refine_sequence
from .rng import RandomStream
from .trainer import CorpusItem, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_INCOMPATIBLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="handrift", description="physics-aware diffusion refinement of 3D hand motion")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic motion corpus")
    g.add_argument("--spec", required=True, help="generator spec JSON")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="train a refinement model")
    t.add_argument("--corpus", required=True, help="directory of motion files")
    t.add_argument("--config", required=True, help="config JSON")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--log", default=None, help="JSON-lines training log path")
    t.add_argument("--seed", type=int, default=None, help="override config seed")
    t.add_argument("--holdout", type=int, default=0, help="reserve the last N sequences for eval")
    t.add_argument("--ablation", default=None,
                   choices=["deterministic", "no-state", "no-kin", "no-sta", "no-physics", "const-accel"],
                   help="named flag bundle recorded in the checkpoint")

    r = sub.add_parser("refine", help="refine a noisy motion file")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--in", dest="inp", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--stochastic", action="store_true")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--steps", type=int, default=None)

    e = sub.add_parser("evaluate", help="score predictions against ground truth")
    e.add_argument("--pred", required=True, help="motion file or directory")
    e.add_argument("--gt", required=True, help="motion file or directory")
    e.add_argument("--ckpt", default=None, help="optional checkpoint (hand model source)")
    e.add_argument("--report", required=True, help="report JSON path")
    e.add_argument("--plots", default=None, help="optional directory for SVG plots")
    e.add_argument("--csv", default=None, help="optional per-sequence CSV path")
    return p


ABLATIONS = {
    "deterministic": {"probabilistic": False},
    "no-state": {"use_state": False},
    "no-kin": {"use_kin": False},
    "no-sta": {"use_sta": False},
    "no-physics": {"use_state": False, "use_kin": False, "use_sta": False},
    "const-accel": {"use_state": False, "use_kin": False, "use_sta": False,
                    "constant_accel_baseline": True},
}


def _override_kind(value, default) -> str | None:
    """What a spec override must be to replace its ``ScriptSpec`` default, or None if it is."""
    if isinstance(default, np.ndarray):
        try:
            arr = np.asarray(value)
            fits = arr.dtype.kind in "iuf" and arr.shape == default.shape and np.isfinite(arr).all()
        except ValueError:  # a ragged list
            fits = False
        if not fits:
            return f"a list of shape {list(default.shape)} of finite numbers"
    elif isinstance(default, int):
        if type(value) is not int:
            return "an integer"
    elif type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        return "a finite number"
    return None


def _read_spec(path: Path) -> tuple[dict, int, dict]:
    """(spec, frames, overrides) of a spec file holding a JSON object with an integer
    ``frames`` of at least ``MIN_SCRIPT_FRAMES`` and ``overrides`` of ``ScriptSpec``
    fields, each of its default's kind and shape; InputError otherwise."""
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"spec {path} is not valid JSON: {e}") from None
    if not isinstance(spec, dict):
        raise InputError(f"spec {path} must be a JSON object")
    frames, overrides = spec.get("frames", 16), spec.get("overrides", {})
    if type(frames) is not int:
        raise InputError(f"spec 'frames' must be an integer, got {frames!r}")
    if frames < MIN_SCRIPT_FRAMES:
        raise InputError(f"spec 'frames' must be at least {MIN_SCRIPT_FRAMES}, got {frames}")
    if not isinstance(overrides, dict):
        raise InputError("spec 'overrides' must be a JSON object")
    unknown = sorted(set(overrides) - {f.name for f in fields(ScriptSpec)})
    if unknown:
        raise InputError(f"unknown spec override '{unknown[0]}'")
    defaults = ScriptSpec()
    for name, value in overrides.items():
        kind = _override_kind(value, getattr(defaults, name))
        if kind is not None:
            raise InputError(f"spec override '{name}' must be {kind}, got {value!r}")
    return spec, frames, overrides


def _check_outputs(*paths):
    """InputError naming the first output path (None skipped) whose directory does not
    exist or that is a directory, so a command fails before its work, not when it writes."""
    for path in (Path(p) for p in paths if p is not None):
        if not path.parent.is_dir():
            raise InputError(f"directory not found for output {path}")
        if path.is_dir():
            raise InputError(f"output {path} is a directory")


def cmd_generate(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be at least 0, got {args.count}")
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise InputError(f"spec not found: {args.spec}")
    spec, frames, overrides = _read_spec(spec_path)
    scripts = []
    for i in range(max(args.count, 1)):  # with --count 0, script-0's draw is still checked
        script = sample_script(RandomStream(args.seed, f"script-{i}"), frames)
        for k, v in overrides.items():
            setattr(script, k, np.asarray(v) if isinstance(getattr(script, k), np.ndarray) else v)
        try:
            script.validate()
        except ContractError as e:
            raise InputError(f"spec overrides make script-{i} invalid: {e}") from None
        if script.total_frames != frames:
            raise InputError(f"spec overrides make script-{i} {script.total_frames} frames long, "
                             f"but 'frames' is {frames}")
        scripts.append(script)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = build_hand_model()
    entries = []
    for i, script in enumerate(scripts[: args.count]):
        motion, obj, track = generate_sequence(script, model)
        name = f"seq_{i:04d}.hmf"
        write_motion(out / name, MotionData(
            frames=motion, object_center=obj.center, contact_threshold=obj.contact_threshold,
            contact=track.contact, states=track.labels,
        ))
        entries.append({"name": name, "stream": f"script-{i}"})
    manifest = {
        "count": args.count,
        "seed": args.seed,
        "frames": frames,
        "spec": spec,
        "hand_config": HAND_RECIPE,
        "files": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote {args.count} sequences to {out}")
    return EXIT_OK


def load_corpus(directory) -> list:
    d = Path(directory)
    files = sorted(d.glob("*.hmf"))
    items = []
    for f in files:
        m = read_motion(f)
        items.append(CorpusItem(
            motion=m.frames,
            object_center=m.object_center,
            contact_threshold=m.contact_threshold,
            labels=None,
        ))
    return items


def cmd_train(args) -> int:
    _check_outputs(args.out, args.log)
    overrides: dict = {}
    if args.ablation:
        overrides["train"] = dict(ABLATIONS[args.ablation])
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides)
    if not Path(args.corpus).is_dir():
        raise InputError(f"corpus directory not found: {args.corpus}")
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise InputError(f"no motion files in {args.corpus}")
    if not 0 <= args.holdout < len(corpus):
        raise InputError(f"--holdout must be at least 0 and below the corpus size {len(corpus)}, "
                         f"got {args.holdout}")
    eval_corpus = None
    if args.holdout > 0:
        corpus, eval_corpus = corpus[: -args.holdout], corpus[-args.holdout :]
    _, rows = train(corpus, cfg, out_ckpt=args.out, log_path=args.log, eval_corpus=eval_corpus)
    for row in rows:
        loss = row["loss"]
        msg = f"epoch {row['epoch']:3d}  lr {row['lr']:.2e}  total {loss['total']:10.5f}  data {loss['data']:9.5f}"
        if "eval" in row:
            msg += f"  eval_mje {row['eval']['mje']:7.3f}"
        print(msg)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_refine(args) -> int:
    _check_outputs(args.out)
    for path, what in ((args.ckpt, "checkpoint"), (args.inp, "input motion")):
        if not Path(path).exists():
            raise InputError(f"{what} not found: {path}")
    data = read_motion(args.inp)
    if data.normalization_id != "raw":
        print(
            f"error: input declares normalization '{data.normalization_id}', "
            "refine expects raw coordinates matching the checkpoint statistics",
            file=sys.stderr,
        )
        return EXIT_INCOMPATIBLE
    bundle = load_bundle(args.ckpt)
    rng = RandomStream(args.seed, "refine") if args.stochastic else None
    refined, track = refine_sequence(bundle, data.frames, deterministic=not args.stochastic,
                                     rng=rng, steps=args.steps)
    write_motion(args.out, MotionData(
        frames=refined, object_center=data.object_center,
        contact_threshold=data.contact_threshold, states=track.labels,
    ))
    print(f"refined {data.T} frames -> {args.out}")
    return EXIT_OK


def _pair_paths(pred, gt):
    pred_p, gt_p = Path(pred), Path(gt)
    if pred_p.is_file() and gt_p.is_file():
        return [(pred_p, gt_p)], []
    if pred_p.is_dir() and gt_p.is_dir():
        pred_files = {f.name: f for f in pred_p.glob("*.hmf")}
        gt_files = {f.name: f for f in gt_p.glob("*.hmf")}
        names = sorted(set(pred_files) & set(gt_files))
        unmatched = sorted(set(pred_files) ^ set(gt_files))
        return [(pred_files[n], gt_files[n]) for n in names], unmatched
    return [], [str(pred_p), str(gt_p)]


def cmd_evaluate(args) -> int:
    _check_outputs(args.report, args.csv)
    pairs, unmatched = _pair_paths(args.pred, args.gt)
    if unmatched or not pairs:
        print("error: unmatched sequences:", file=sys.stderr)
        for u in unmatched:
            print(f"  {u}", file=sys.stderr)
        return EXIT_USAGE
    if args.ckpt:
        bundle = load_bundle(args.ckpt)
        model = bundle.hand_model
        cfg = bundle.config
    else:
        cfg = load_config(None)
        model = build_hand_model()
    ann_cfg = annotator_config_from(cfg)

    def object_track(gt: MotionData) -> ObjectTrack:
        return ObjectTrack(gt.object_center, gt.contact_threshold)

    def one(pair):
        pred_f, gt_f = pair
        pred = read_motion(pred_f)
        gt = read_motion(gt_f)
        try:
            if gt.states is not None:
                labels = gt.states
            elif gt.object_center is not None:
                labels = annotate_states(gt.frames, object_track(gt), model, ann_cfg).labels
            else:
                raise ConfigError(f"{gt_f.name}: ground truth carries neither states nor an object track")
            row = evaluate_pair(pred.frames, gt.frames, labels, model)
        except InputError as e:
            raise InputError(f"{pred_f} against {gt_f}: {e}") from None
        row["name"] = pred_f.name
        return row, pred, gt, labels

    results = [one(p) for p in pairs]
    rows = [r[0] for r in results]
    report = EvalReport.from_rows(rows)
    Path(args.report).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    print(report.table())

    if args.csv:
        keys = ("name",) + EvalReport.AGGREGATE_KEYS
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(str(row[k]) for k in keys))
        Path(args.csv).write_text("\n".join(lines) + "\n")

    if args.plots:
        from . import svgplot
        from .pipeline import motion_to_joints

        plot_dir = Path(args.plots)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for row, pred, gt, labels in results:
            stem = Path(row["name"]).stem
            pj = motion_to_joints(pred.frames, model)
            gj = motion_to_joints(gt.frames, model)
            err = np.linalg.norm(pj - gj, axis=-1).mean(axis=1)
            (plot_dir / f"{stem}_error.svg").write_text(
                svgplot.line_chart([("per-frame joint error", err)], f"{stem}: joint error", y_label="mm"))
            if pred.frames.shape[0] >= 3:
                ap = pj[2:] - 2 * pj[1:-1] + pj[:-2]
                ag = gj[2:] - 2 * gj[1:-1] + gj[:-2]
                accl = np.linalg.norm(ap - ag, axis=-1).mean(axis=1)
                (plot_dir / f"{stem}_accl.svg").write_text(
                    svgplot.line_chart([("per-frame acceleration error", accl)],
                                       f"{stem}: acceleration error", y_label="mm/frame^2"))
            (plot_dir / f"{stem}_states.svg").write_text(svgplot.state_timeline(labels, f"{stem}: states"))
            if gt.object_center is not None:
                d = hand_object_distance(gt.frames, object_track(gt), model, ann_cfg.use_palm_center)
                (plot_dir / f"{stem}_distance.svg").write_text(
                    svgplot.line_chart([("d(t)", d)], f"{stem}: hand-object distance", y_label="mm"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "refine":
            return cmd_refine(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
    except TrainingDivergedError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except HandriftError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
