"""The benchmark's workloads, each a closed loop with one in-process client.

Every request is one ``handrift.cli.main(argv)`` call with the argv a user
would type. The client builds a request's inputs before sending it, outside
the timed call. Inputs come from the workload seed; the program only ever
sees the generated files and flags.

- ``refine_long``: ``refine`` on distinct 128-frame noisy clips (15
  half-overlap windows each), alternating deterministic and
  ``--stochastic --seed k``. The checkpoint is trained in setup with
  ``train`` under a fixed seed, so every workload seed refines with the same
  weights; the seed draws each clip's noise. Most of the time is the
  free-running decoder.
- ``train``: one ``train --seed k`` run per request on a fixed 16-frame
  corpus, k drawn from the workload seed and the request number, with
  ``--holdout`` so the per-epoch quick-eval runs, and with epoch 1
  self-conditioned. The only workload that runs ``backward`` and AdamW.
- ``evaluate``: ``evaluate`` over a directory of 64-frame pred/gt pairs,
  the predictions perturbed with the seed's noise. No denoiser runs; the time is FK/skinning and per-frame
  Procrustes.
"""

from __future__ import annotations

import hashlib
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from handrift import cli
from handrift.config import hand_config_from, load_config
from handrift.datagen import PerturbSpec, generate_sequence, perturb, sample_script
from handrift.hand import build_hand_model
from handrift.metrics import EvalReport, accl_error, mje
from handrift.motion import Normalizer
from handrift.motionfile import MotionData, read_motion, write_motion
from handrift.pipeline import evaluate_pair, load_bundle, motion_to_joints
from handrift.rng import RandomStream


class SetupError(RuntimeError):
    """A set-up step failed; the run cannot produce a result."""


@dataclass
class Call:
    """One request: the argv sent, the work it stands for, and what happened."""

    index: int
    argv: list
    frames: int
    out: Path
    code: int | None = None
    seconds: float = 0.0
    error: str = ""


def run_cli(argv) -> tuple[int, float, str]:
    """Call the CLI in-process; returns (exit code, seconds, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # a traceback is a failed request, not a failed benchmark
            traceback.print_exc(file=err)
            code = -1
    return code, perf_counter() - start, err.getvalue()


def digest_files(paths) -> str:
    """sha256 of the files' bytes, concatenated in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _setup_cli(argv):
    code, _, err = run_cli(argv)
    if code != 0:
        raise SetupError(f"handrift {' '.join(map(str, argv))} exited {code}: {err.strip()[-500:]}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


# Motion content of every workload's clips. It moves a clip's MJE by tens of
# percent, sensor noise and training randomness by up to about ten, so it is
# held fixed and the workload seed draws the rest: accl_mm and mje_mm then
# compare like with like across seeds.
CONTENT_SEED = 20240


def _perturb_spec() -> PerturbSpec:
    return PerturbSpec(**load_config(None)["train"]["perturb"])


class Workload:
    """Set-up, per-request inputs and output checks of one workload.

    ``job(i)`` names the job request ``i`` runs: requests of the same job must
    write bitwise-equal outputs, which is how the repeat checks are made.
    """

    name = ""
    min_requests = 2          # the loop runs at least this many, whatever the time
    repeats: tuple = ()       # requests sent once more after the loop, for the repeat check
    trace_requests: tuple = (0,)
    expected_spans: frozenset = frozenset()

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.dir: Path | None = None
        self.quality: dict = {}   # request index -> (accl mm/frame^2, mje mm)

    def setup(self, directory: Path) -> str:
        """Build the inputs in ``directory``; returns a digest of what was built."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Digest of every input the requests were sent: files, and seeds passed as flags."""
        raise NotImplementedError

    def use(self, directory: Path):
        self.dir = directory

    def request(self, i: int, tag: str = "") -> Call:
        raise NotImplementedError

    def job(self, i: int) -> int:
        return 0

    def check(self, call: Call) -> list:
        """Problems found in a successful call's output; empty when correct."""
        raise NotImplementedError

    def quality_means(self) -> tuple[float, float]:
        vals = np.array(list(self.quality.values()), dtype=np.float64)
        return float(vals[:, 0].mean()), float(vals[:, 1].mean())


# ---------------------------------------------------------------------------


class RefineLong(Workload):
    name = "refine_long"
    CLIP_FRAMES = 128
    QUALITY_CLIPS = 4         # deterministic clips 0, 2, 4, 6 give accl_mm and mje_mm
    min_requests = 2 * QUALITY_CLIPS
    repeats = (0, 1)          # one deterministic and one stochastic request
    trace_requests = (0, 1)
    # the checkpoint is trained under CONTENT_SEED too, so every seed refines
    # with the same weights; the seed draws each clip's noise and occlusions
    CKPT_CORPUS = 48
    CKPT_CONFIG = {"train": {"epochs": 2, "lr": 2e-3}}
    expected_spans = frozenset({
        "pipeline.load_bundle", "motionfile.read_motion", "motionfile.write_motion",
        "pipeline.refine_sequence", "diffusion.refine", "diffusion.reverse_transition",
        "denoiser.forward_free", "denoiser.encode", "denoiser.encode_meshes",
        "hand.skin_mesh_batch", "hand.fk_transforms",
    })

    def setup(self, directory: Path) -> str:
        gen = _write_json(directory / "gen.json", {"frames": 16})
        cfg = _write_json(directory / "train.json", self.CKPT_CONFIG)
        _setup_cli(["generate", "--spec", gen, "--out", directory / "corpus",
                    "--count", self.CKPT_CORPUS, "--seed", CONTENT_SEED])
        _setup_cli(["train", "--corpus", directory / "corpus", "--config", cfg,
                    "--out", directory / "model.ckpt", "--seed", CONTENT_SEED])
        return digest_files([directory / "model.ckpt"])

    def use(self, directory: Path):
        super().use(directory)
        bundle = load_bundle(directory / "model.ckpt")
        self.model = bundle.hand_model
        self.channel_scale = bundle.normalizer.std
        self.spec = _perturb_spec()
        self.clips: dict = {}     # i -> (gt joints, noisy ACCL)
        (directory / "clips").mkdir(exist_ok=True)

    def job(self, i: int) -> int:
        return i

    def inputs_digest(self) -> str:
        return digest_files(sorted((self.dir / "clips").glob("clip_*.hmf")))

    def _clip(self, i: int) -> Path:
        path = self.dir / "clips" / f"clip_{i:04d}.hmf"
        if i not in self.clips:
            script = sample_script(RandomStream(CONTENT_SEED, f"bench-clip-{i}"), self.CLIP_FRAMES)
            motion, obj, _ = generate_sequence(script, self.model)
            noisy = perturb(motion, self.spec, RandomStream(self.seed, f"bench-noise-{i}"),
                            channel_scale=self.channel_scale)
            write_motion(path, MotionData(frames=noisy, object_center=obj.center,
                                          contact_threshold=obj.contact_threshold))
            gt = motion_to_joints(motion, self.model)
            self.clips[i] = (gt, accl_error(motion_to_joints(noisy, self.model), gt))
        return path

    def request(self, i: int, tag: str = "") -> Call:
        out = self.dir / "clips" / f"refined_{i:04d}{tag}.hmf"
        argv = ["refine", "--ckpt", self.dir / "model.ckpt", "--in", self._clip(i), "--out", out]
        if i % 2:
            argv += ["--stochastic", "--seed", self.seed * 1000 + i]
        return Call(i, argv, self.CLIP_FRAMES, out)

    def check(self, call: Call) -> list:
        frames = read_motion(call.out).frames
        if frames.shape != (self.CLIP_FRAMES, 61):
            return [f"refined shape {frames.shape}"]
        if not np.all(np.isfinite(frames)):
            return ["refined clip is not finite"]
        gt, noisy_accl = self.clips[call.index]
        joints = motion_to_joints(frames, self.model)
        accl = accl_error(joints, gt)
        if not accl < noisy_accl:
            return [f"refined ACCL {accl:.3f} not below noisy {noisy_accl:.3f}"]
        if call.index % 2 == 0 and call.index < 2 * self.QUALITY_CLIPS:
            self.quality[call.index] = (accl, mje(joints, gt))
        return []


class Train(Workload):
    name = "train"
    CORPUS = 34
    HOLDOUT = 2
    QUALITY_RUNS = 6          # runs 0..5, each under its own --seed, give accl_mm and mje_mm
    min_requests = QUALITY_RUNS
    repeats = (0,)            # the same --seed must write the same checkpoint
    CONFIG = {"train": {"epochs": 2, "lr": 2e-3, "batch_size": 8,
                        "self_condition_start_epoch": 1, "eval_subset": HOLDOUT}}
    expected_spans = frozenset({
        "physics.annotate_states", "datagen.perturb", "trainer.total_loss",
        "denoiser.encode", "denoiser.encode_meshes", "denoiser.decode_teacher",
        "physics.state_loss", "physics.kinetics_loss", "physics.stability_loss",
        "tensor.backward", "optim.AdamW.step", "trainer.refine_sequence",
        "denoiser.forward_free", "diffusion.refine", "diffusion.reverse_transition",
        "hand.fk_transforms", "hand.skin_mesh_batch",
    })

    def setup(self, directory: Path) -> str:
        gen = _write_json(directory / "gen.json", {"frames": 16})
        _write_json(directory / "train.json", self.CONFIG)
        _setup_cli(["generate", "--spec", gen, "--out", directory / "corpus",
                    "--count", self.CORPUS, "--seed", CONTENT_SEED])
        return digest_files(sorted((directory / "corpus").glob("*.hmf")))

    def inputs_digest(self) -> str:
        """The corpus is fixed; the seed reaches the program as ``train --seed``."""
        files = digest_files(sorted((self.dir / "corpus").glob("*.hmf")))
        return hashlib.sha256(f"{files} --seed {self._seed(0)}".encode()).hexdigest()

    def job(self, i: int) -> int:
        return i

    def _seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def request(self, i: int, tag: str = "") -> Call:
        out = self.dir / f"model_{i:04d}{tag}.ckpt"
        argv = ["train", "--corpus", self.dir / "corpus", "--config", self.dir / "train.json",
                "--out", out, "--log", out.with_suffix(".jsonl"),
                "--holdout", self.HOLDOUT, "--seed", self._seed(i)]
        t = self.CONFIG["train"]
        steps = (self.CORPUS - self.HOLDOUT) // t["batch_size"]
        return Call(i, argv, t["epochs"] * steps * t["batch_size"] * 16, out)

    def check(self, call: Call) -> list:
        rows = [json.loads(line) for line in call.out.with_suffix(".jsonl").read_text().splitlines()]
        if len(rows) != self.CONFIG["train"]["epochs"]:
            return [f"log has {len(rows)} epochs"]
        last = rows[-1]
        if not np.isfinite(last["loss"]["total"]) or "eval" not in last:
            return ["last epoch has no finite loss or no quick-eval"]
        if call.index == 0:
            self.loss_final = last["loss"]["total"]
        if call.index < self.QUALITY_RUNS:
            self.quality[call.index] = (last["eval"]["accl"], last["eval"]["mje"])
        return []


class Evaluate(Workload):
    name = "evaluate"
    PAIRS = 32
    PAIR_FRAMES = 64
    expected_spans = frozenset({
        "motionfile.read_motion", "pipeline.evaluate_pair", "hand.fk_transforms",
        "hand.skin_mesh_batch", "metrics.procrustes_align", "metrics.p_mve_and_fscores",
    })

    def setup(self, directory: Path) -> str:
        gen = _write_json(directory / "gen.json", {"frames": self.PAIR_FRAMES})
        _setup_cli(["generate", "--spec", gen, "--out", directory / "gt",
                    "--count", self.PAIRS, "--seed", CONTENT_SEED])
        gts = sorted((directory / "gt").glob("*.hmf"))
        scale = Normalizer.fit([read_motion(p).frames for p in gts]).std
        spec = _perturb_spec()
        (directory / "pred").mkdir()
        for p in gts:
            noisy = perturb(read_motion(p).frames, spec, RandomStream(self.seed, f"bench-pred-{p.name}"),
                            channel_scale=scale)
            write_motion(directory / "pred" / p.name, MotionData(frames=noisy))
        return digest_files(p for d in ("gt", "pred") for p in sorted((directory / d).glob("*.hmf")))

    def inputs_digest(self) -> str:
        return digest_files(p for d in ("gt", "pred") for p in sorted((self.dir / d).glob("*.hmf")))

    def use(self, directory: Path):
        super().use(directory)
        self.expected = None

    def request(self, i: int, tag: str = "") -> Call:
        out = self.dir / f"report_{i:04d}{tag}.json"
        argv = ["evaluate", "--pred", self.dir / "pred", "--gt", self.dir / "gt", "--report", out]
        return Call(i, argv, self.PAIRS * self.PAIR_FRAMES, out)

    def _recompute(self) -> dict:
        """Aggregate recomputed from pipeline.evaluate_pair rows, as the CLI's report claims."""
        model = build_hand_model(hand_config_from(load_config(None)))
        rows = []
        for gt_path in sorted((self.dir / "gt").glob("*.hmf")):
            gt = read_motion(gt_path)
            pred = read_motion(self.dir / "pred" / gt_path.name)
            rows.append(evaluate_pair(pred.frames, gt.frames, gt.states, model))
        return {k: float(np.mean([r[k] for r in rows])) for k in EvalReport.AGGREGATE_KEYS}

    def check(self, call: Call) -> list:
        if self.expected is None:
            self.expected = self._recompute()
        agg = json.loads(call.out.read_text())["aggregate"]
        bad = [k for k, v in self.expected.items() if not abs(agg[k] - v) <= 1e-9]
        if bad:
            return [f"report aggregate differs from recomputed rows on {bad}"]
        self.quality.setdefault(0, (agg["accl"], agg["mje"]))
        return []


WORKLOADS = {w.name: w for w in (RefineLong, Train, Evaluate)}
