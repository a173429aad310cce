"""Training: loss assembly over diffused samples and the epoch loop.

Each step draws clean sequences, fabricates noisy estimates from them, samples
a diffusion step, forms x^n, and takes an AdamW step on the total objective:
the squared data term on the denoiser output plus state / kinetics /
stability losses and a joint-position auxiliary term.
Ablation flags (``use_*``) switch individual terms off; the deterministic baseline
reuses the identical code path with x^n fixed to y and a single step index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .config import TrainConfig, annotator_config_from, train_config_from
from .datagen import constant_accel_penalty, perturb
from .diffusion import forward_sample
from .errors import ConfigError, OptimizerError, TrainingDivergedError
from .hand import build_hand_model, fk_transforms  # noqa: F401  benchmarks/spans.py probes this name
from .metrics import accl_error, mje
from .motion import FINGER_POSE, FRAME_DIM, FULL_POSE, TRANSLATION, Normalizer
from .optim import AdamW
from .physics import (STABLE_SPEED_DEG, ObjectTrack, annotate_states, kinetics_loss, stability_loss,
                      state_loss)
from .pipeline import RefineBundle, make_bundle, motion_to_joints, refine_sequence, save_bundle
from .rng import RandomStream
from .tensor import Tensor, backward


def length_var(normalizer: Normalizer) -> float:
    """Squared length unit (mm^2) of the normalized space: mean wrist-translation variance."""
    return float(np.mean(normalizer.std[TRANSLATION] ** 2))


def total_loss(bundle: RefineBundle, x_norm: np.ndarray, y_norm: np.ndarray, n_arr,
               labels: np.ndarray, tcfg: TrainConfig, rng: RandomStream | None,
               gt_joints: np.ndarray | None = None, self_condition: bool = False):
    """Assemble the training objective for one batch.

    Every term is measured on scales the program derives from its own data,
    so each enters with weight 1, the pull its unit implies; only geo has a
    weight, ``lambda_geo``, and 0 turns it off:

    - data: mean squared error of the normalized pose over frames and
      channels, in z^2 (z: a channel's value over the normalizer's std);
    - geo: mean squared FK joint-position error over the squared length
      unit ``length_var`` (the normalizer's mean wrist-translation
      variance, mm^2), so also z^2;
    - state: mean per-frame cross-entropy, in nats;
    - kinetics: hinged direction reversal over reaching/releasing windows,
      mean over windows and the 48 pose channels, and
    - stability: squared finger-pose change over stable-grasp pairs, mean
      over pairs and the 45 finger channels; both measure per-frame pose
      change in multiples of the annotator's stillness threshold
      (``physics.STABLE_SPEED_DEG``), the speed below which a grasp
      counts as stable;
    - const_accel: mean squared third difference of the normalized pose,
      in z^2: a generic smoothness prior with no state or threshold of its
      own, on the data term's scale.

    Returns (total scalar tensor, {component: float}). Disabled terms
    contribute exactly zero and are reported as 0.0 in the breakdown. With
    ``self_condition`` the decoder's pose- and state-feedback inputs come
    from a gradient-free first pass (its poses and argmax states) instead of
    the ground truth, matching the feedback distribution inference will see.
    """
    den = bundle.denoiser
    schedule = bundle.schedule
    B, T, _ = x_norm.shape

    if tcfg.probabilistic:
        x_n = forward_sample(x_norm, y_norm, n_arr, schedule, rng)
    else:
        n_arr = np.full(B, schedule.steps)
        x_n = y_norm.copy()

    teacher = x_norm
    teacher_states = labels if tcfg.use_state else None
    cond = den.encode(x_n, y_norm, n_arr)
    if self_condition:
        teacher, first_logits = den.frozen().decode_teacher(
            tuple(tz.value(c) for c in cond), teacher, teacher_states)
        if teacher_states is not None:
            teacher_states = np.argmax(first_logits, axis=-1)
    x_hat, logits = den.decode_teacher(cond, teacher, teacher_states)

    diff = x_hat - Tensor(x_norm)
    total = tz.tmean(diff * diff)
    comps = {"data": total.item()}

    if tcfg.use_state:
        ls = state_loss(logits, labels)
        total = total + ls
        comps["state"] = ls.item()
    else:
        comps["state"] = 0.0
    # pose in multiples of the stillness threshold (radians over radians)
    still = np.deg2rad(STABLE_SPEED_DEG)
    x_still = x_hat * Tensor(bundle.normalizer.std / still)
    if tcfg.use_kin:
        lk = kinetics_loss(x_still[:, :, FULL_POSE], labels)
        total = total + lk
        comps["kinetics"] = lk.item()
    else:
        comps["kinetics"] = 0.0
    if tcfg.use_sta:
        # stability_loss sums over the finger channels; take their mean as every term does
        lst = stability_loss(x_still[:, :, FINGER_POSE], labels) * (1.0 / 45)
        total = total + lst
        comps["stability"] = lst.item()
    else:
        comps["stability"] = 0.0
    if tcfg.constant_accel_baseline:
        lca = constant_accel_penalty(x_hat)
        total = total + lca
        comps["const_accel"] = lca.item()
    else:
        comps["const_accel"] = 0.0

    if tcfg.lambda_geo > 0:
        x_hat_raw = x_hat * Tensor(bundle.normalizer.std) + Tensor(bundle.normalizer.mean)
        flat = tz.reshape(x_hat_raw, (B * T, FRAME_DIM))
        joints_hat = motion_to_joints(flat, bundle.hand_model)
        if gt_joints is None:
            x_raw = bundle.normalizer.denormalize(x_norm).reshape(B * T, FRAME_DIM)
            gt_joints = motion_to_joints(x_raw, bundle.hand_model)
        jdiff = joints_hat - Tensor(gt_joints.reshape(B * T, 21, 3))
        lg = tz.tmean(jdiff * jdiff) * (1.0 / length_var(bundle.normalizer))
        total = total + tcfg.lambda_geo * lg
        comps["geo"] = tcfg.lambda_geo * lg.item()
    else:
        comps["geo"] = 0.0

    comps["total"] = total.item()
    return total, comps


@dataclass
class CorpusItem:
    motion: np.ndarray                      # (T,61) clean
    object_center: np.ndarray | None = None
    contact_threshold: float | None = None
    labels: np.ndarray | None = None        # annotator labels, filled by train()


def train(corpus: list, cfg: dict, out_ckpt=None, log_path=None, eval_corpus: list | None = None):
    """Run the full loop; returns (bundle, log rows). Writes checkpoint + log.

    On divergence, a loss that is not finite or passes the threshold or a
    gradient that is not finite, the last end-of-epoch parameters are saved
    before TrainingDivergedError propagates.
    """
    tcfg = train_config_from(cfg)
    hand_model = build_hand_model()
    normalizer = Normalizer.fit([item.motion for item in corpus])
    bundle = make_bundle(cfg, normalizer, hand_model=hand_model)
    den = bundle.denoiser
    schedule = bundle.schedule

    ann_cfg = annotator_config_from(cfg)
    for item in corpus:
        if item.labels is None:
            if item.object_center is None:
                raise ConfigError("corpus item lacks both labels and an object track")
            obj = ObjectTrack(item.object_center, item.contact_threshold)
            item.labels = annotate_states(item.motion, obj, hand_model, ann_cfg).labels

    root = RandomStream(cfg["seed"], "train")
    opt = AdamW(den.params, lr=tcfg.lr, lr_decay_epochs=tcfg.lr_decay_epochs)

    gt_joints_cache = [motion_to_joints(item.motion, hand_model) for item in corpus]

    eval_items = (eval_corpus or [])[: tcfg.eval_subset]
    eval_noisy = [
        perturb(it.motion, tcfg.perturb, RandomStream(cfg["seed"], f"train-eval-perturb-{i}"),
                channel_scale=normalizer.std)
        for i, it in enumerate(eval_items)
    ]

    log_rows = []
    last_good = {k: p.data.copy() for k, p in den.params.items()}
    n_seq = len(corpus)
    steps_per_epoch = max(n_seq // tcfg.batch_size, 1)

    def save_now(params_data):
        if out_ckpt is not None:
            save_bundle(out_ckpt, bundle, extra={"epochs_completed": len(log_rows)}, params=params_data)

    try:
        for epoch in range(tcfg.epochs):
            opt.set_epoch(epoch)
            kept = f"kept checkpoint from epoch {epoch - 1}" if epoch else "kept the initial weights"
            perm = root.split(f"shuffle-{epoch}").permutation(n_seq)
            comp_sums: dict = {}
            grad_norms = []
            for step in range(steps_per_epoch):
                idx = perm[step * tcfg.batch_size : (step + 1) * tcfg.batch_size]
                if len(idx) == 0:
                    continue
                x_raw = np.stack([corpus[i].motion for i in idx])
                labels = np.stack([corpus[i].labels for i in idx])
                gt_j = np.stack([gt_joints_cache[i] for i in idx])
                y_raw = np.stack([
                    perturb(corpus[i].motion, tcfg.perturb,
                            root.split(f"perturb-{epoch}-{step}-{j}"), channel_scale=normalizer.std)
                    for j, i in enumerate(idx)
                ])
                x_norm = normalizer.normalize(x_raw.reshape(-1, FRAME_DIM)).reshape(x_raw.shape)
                y_norm = normalizer.normalize(y_raw.reshape(-1, FRAME_DIM)).reshape(y_raw.shape)

                n_arr = root.split(f"steps-{epoch}-{step}").integers(1, schedule.steps, (len(idx),))
                noise_rng = root.split(f"noise-{epoch}-{step}")
                self_cond = epoch >= tcfg.self_condition_start_epoch
                loss, comps = total_loss(bundle, x_norm, y_norm, n_arr, labels, tcfg,
                                         noise_rng, gt_joints=gt_j, self_condition=self_cond)
                if not np.isfinite(comps["total"]) or comps["total"] > tcfg.divergence_threshold:
                    save_now(last_good)
                    raise TrainingDivergedError(f"loss {comps['total']:.3e} at epoch {epoch} step {step}; {kept}")
                backward(loss)  # frees the graph: only the parameters keep gradients
                grad_norms.append(_global_norm(p.grad for p in den.params.values() if p.grad is not None))
                try:
                    opt.step()
                except OptimizerError as e:
                    save_now(last_good)
                    raise TrainingDivergedError(f"{e} at epoch {epoch} step {step}; {kept}") from None
                opt.zero_grad()  # this step's gradients go before the next forward pass
                for k, v in comps.items():
                    comp_sums[k] = comp_sums.get(k, 0.0) + v

            row = {
                "epoch": epoch,
                "lr": opt.lr,
                "loss": {k: v / steps_per_epoch for k, v in sorted(comp_sums.items())},
                "grad_norm": float(np.mean(grad_norms)),  # mean over the steps, before AdamW
                "param_norm": _global_norm(p.data for p in den.params.values()),
            }
            if eval_items:
                row["eval"] = _quick_eval(bundle, eval_items, eval_noisy)
            log_rows.append(row)
            last_good = {k: p.data.copy() for k, p in den.params.items()}
    finally:
        if log_path is not None:
            with open(log_path, "w") as f:
                for row in log_rows:
                    f.write(json.dumps(row, sort_keys=True) + "\n")

    if out_ckpt is not None:
        save_bundle(out_ckpt, bundle, extra={"epochs_completed": tcfg.epochs})
    return bundle, log_rows


def _global_norm(arrays) -> float:
    """The L2 norm of all the arrays' entries together."""
    return float(np.sqrt(sum(float(np.vdot(a, a)) for a in arrays)))


def _quick_eval(bundle: RefineBundle, eval_items, eval_noisy) -> dict:
    """Holdout means of refined and input MJE/ACCL; one reverse chain per window length."""
    model = bundle.hand_model
    rows = {"mje": [], "accl": [], "input_mje": [], "input_accl": []}
    refined_clips = refine_sequence(bundle, list(eval_noisy), deterministic=True)
    for item, noisy, (refined, _) in zip(eval_items, eval_noisy, refined_clips):
        gt_j = motion_to_joints(item.motion, model)
        in_j = motion_to_joints(noisy, model)
        out_j = motion_to_joints(refined, model)
        rows["mje"].append(mje(out_j, gt_j))
        rows["accl"].append(accl_error(out_j, gt_j))
        rows["input_mje"].append(mje(in_j, gt_j))
        rows["input_accl"].append(accl_error(in_j, gt_j))
    return {k: float(np.mean(v)) for k, v in rows.items()}
