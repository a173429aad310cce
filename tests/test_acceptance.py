"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-7 share the cached training runs provided by conftest (a run
with no matching cache trains them, about 2 min each on 2 CPU cores; afterwards
they load from tests/.cache).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from handrift.cli import main
from handrift.config import load_config
from handrift.datagen import gaussian_smooth, perturb
from handrift.denoiser import Denoiser, DenoiserConfig
from handrift.diffusion import forward_sample, make_schedule, refine, reverse_transition
from handrift.hand import build_hand_model
from handrift.metrics import accl_error, f_score, kin_metric, mje, p_mje, procrustes_align, sta_metric
from handrift.motion import FRAME_DIM, Normalizer
from handrift.motionfile import MotionData, read_motion, write_motion
from handrift.physics import annotate_states, kinetics_loss, stability_loss
from handrift.pipeline import make_bundle, motion_to_joints, refine_sequence
from handrift.rng import RandomStream
from handrift.tensor import Tensor, backward
from handrift.trainer import total_loss, train_config_from

from conftest import CACHE, VARIANTS, cache_tag, desk_config, procrustes_oracle, sibling_imports


def test_model_cache_holds_only_current_models():
    """Every cached checkpoint and log carries a current variant's tag, so the models
    criteria 5-7 load were trained by the current code from the current configs."""
    current = {cache_tag(variant) for variant in VARIANTS}
    stale = sorted(p.name for p in CACHE.glob("*") if p.suffix in (".ckpt", ".log") and p.stem not in current)
    assert not stale, f"{CACHE} holds files of code or configs that are gone: {stale}"


def test_cache_key_follows_wrapped_relative_imports():
    """The cache key's module walk reads relative imports however they are wrapped."""
    text = ("import numpy as np\n"
            "from . import tensor as tz, rng\n"
            "from .hand import (\n    HandModel,\n    skin_mesh_batch,\n)\n"
            "from .errors import ConfigError\n"
            "from numpy.linalg import norm\n\n\n"
            "def late():\n    from .physics import (kinetics_loss,\n                          state_loss)\n")
    assert sibling_imports(text) == ["tensor", "rng", "hand", "errors", "physics"]


def report(criterion, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def evaluate_bundle(bundle, corpus, n_eval=50):
    """Refine the held-out split and score it; also score the raw inputs.

    Returns per-sequence arrays; criteria compare their means.
    """
    cfg = bundle.config
    tcfg = train_config_from(cfg)
    model = bundle.hand_model
    norm = bundle.normalizer
    out = {k: [] for k in ("in_mje", "mje", "in_accl", "accl", "kin", "sta")}
    for i, (item, track) in enumerate(zip(corpus["test"][:n_eval], corpus["test_tracks"][:n_eval])):
        stream = RandomStream(cfg["seed"], f"train-eval-perturb-{i}")
        y = perturb(item.motion, tcfg.perturb, stream, channel_scale=norm.std)
        gj = motion_to_joints(item.motion, model)
        yj = motion_to_joints(y, model)
        refined, _ = refine_sequence(bundle, y)
        rj = motion_to_joints(refined, model)
        out["in_mje"].append(mje(yj, gj))
        out["mje"].append(mje(rj, gj))
        out["in_accl"].append(accl_error(yj, gj))
        out["accl"].append(accl_error(rj, gj))
        out["kin"].append(kin_metric(refined[:, 0:48], track.labels))
        out["sta"].append(sta_metric(refined[:, 3:48], track.labels))
    return {k: np.array(v) for k, v in out.items()}


def paired(a, b) -> str:
    """Mean of the per-sequence differences a - b and its standard error."""
    d = np.asarray(a) - np.asarray(b)
    return f"{d.mean():+.4f} ± {d.std(ddof=1) / np.sqrt(d.size):.4f}"


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    T = 6
    cfg = load_config(None, {
        "frames": T,
        "schedule": {"steps": 3},
        "denoiser": {"layers": 1, "heads": 2, "width": 16, "mesh_widths": [4, 6],
                     "step_features": 8, "ffn_multiplier": 2},
    })
    rng = np.random.default_rng(0)
    motion = rng.normal(size=(T, FRAME_DIM)) * 0.25
    motion[:, 58:61] *= 100
    normalizer = Normalizer.fit([motion])
    bundle = make_bundle(cfg, normalizer)
    tcfg = train_config_from(cfg)
    labels = np.array([0, 0, 0, 1, 1, 2])  # active kinetics window + grasp pair
    x_norm = normalizer.normalize(motion)[None]
    y_norm = x_norm + rng.normal(size=x_norm.shape) * 0.2

    def build():
        loss, _ = total_loss(bundle, x_norm, y_norm, np.array([2]), labels[None], tcfg,
                             RandomStream(5, "fd-noise"))
        return loss

    loss = build()
    backward(loss)
    grads = {k: p.grad.copy() for k, p in bundle.denoiser.params.items() if p.grad is not None}
    coord_rng = np.random.default_rng(1)
    names = sorted(grads)
    checked, worst = 0, 0.0
    for name in names:
        p = bundle.denoiser.params[name]
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in coord_rng.choice(flat.size, size=min(2, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + 1e-5
            up = build().item()
            flat[i] = old - 1e-5
            down = build().item()
            flat[i] = old
            fd = (up - down) / 2e-5
            denom = max(abs(fd), abs(gflat[i]), 1e-7)
            worst = max(worst, abs(gflat[i] - fd) / denom)
            checked += 1
    elapsed = time.monotonic() - start
    report(1, checked >= 100 and worst < 1e-4 and elapsed < 120,
           f"{checked} coords, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: diffusion consistency


def test_criterion_2_diffusion_consistency():
    start = time.monotonic()
    sched = make_schedule(8)
    draws = 100_000
    x0, y0 = 0.55, -0.65
    ok = True
    details = []
    for stop_at in (2, 4, 8):
        rng = RandomStream(23, f"acc-mc-{stop_at}")
        x = np.full(draws, x0)
        x_n = forward_sample(x, np.full(draws, y0), sched.steps, sched, rng)
        for n in range(sched.steps, stop_at, -1):
            x_n = reverse_transition(x_n, x, n, sched, rng)
        eta = sched.eta[stop_at - 1]
        mean_expect = x0 + eta * (y0 - x0)
        var_expect = sched.kappa**2 * eta
        dm = abs(x_n.mean() - mean_expect) / np.sqrt(var_expect / draws)
        dv = abs(x_n.var() - var_expect) / (var_expect * np.sqrt(2 / (draws - 1)))
        details.append(f"n={stop_at}: mean {dm:.2f}se var {dv:.2f}se")
        ok = ok and dm < 3 and dv < 3

    # deterministic refine with an oracle estimate, through normalization
    rng = np.random.default_rng(3)
    motion = rng.normal(size=(16, FRAME_DIM))
    norm = Normalizer(rng.normal(size=FRAME_DIM), np.abs(rng.normal(size=FRAME_DIM)) + 0.5)
    x_true_norm = norm.normalize(motion)
    y = norm.denormalize(x_true_norm + rng.normal(size=(16, FRAME_DIM)))

    def oracle(x_n, y_in, n):
        return x_true_norm, np.zeros((16, 5))

    out_norm, _ = refine(norm.normalize(y), oracle, sched)
    err = np.abs(norm.denormalize(out_norm) - motion).max()
    ok = ok and err <= 1e-9
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 180,
           "; ".join(details) + f"; oracle roundtrip err {err:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3 + 4: corpus physics zero-cases and annotator fidelity


def test_criterion_3_physics_zero_cases(desk_corpus):
    worst_kin_loss = worst_sta_loss = worst_kin = worst_sta = 0.0
    items = desk_corpus["train"] + desk_corpus["test"]
    tracks = desk_corpus["train_tracks"] + desk_corpus["test_tracks"]
    for item, track in zip(items, tracks):
        worst_kin_loss = max(worst_kin_loss, kinetics_loss(item.motion[:, 0:48], track.labels).item())
        worst_sta_loss = max(worst_sta_loss, stability_loss(item.motion[:, 3:48], track.labels).item())
        worst_kin = max(worst_kin, kin_metric(item.motion[:, 0:48], track))
        worst_sta = max(worst_sta, sta_metric(item.motion[:, 3:48], track))
    ok = worst_kin_loss == 0.0 and worst_sta_loss == 0.0 and worst_kin == 0.0 and worst_sta == 0.0
    report(3, ok, f"max kinetics_loss {worst_kin_loss}, stability_loss {worst_sta_loss}, "
                  f"KIN {worst_kin} deg, STA {worst_sta} deg over {len(items)} sequences")


def test_criterion_4_annotator_fidelity(desk_model, desk_corpus):
    from handrift.physics import ObjectTrack

    hits = total = 0
    for item, track in zip(desk_corpus["train"][:100], desk_corpus["train_tracks"][:100]):
        obj = ObjectTrack(item.object_center, item.contact_threshold)
        pred = annotate_states(item.motion, obj, desk_model)
        hits += int((pred.labels == track.labels).sum())
        total += track.labels.size
    frac = hits / total
    report(4, frac >= 0.95, f"agreement {frac:.4f} over 100 seeded sequences")


# ---------------------------------------------------------------------------
# criterion 5: scaled refinement experiment


def test_criterion_5_scaled_refinement(trained_full, desk_corpus):
    bundle, _rows = trained_full
    m = {k: float(v.mean()) for k, v in evaluate_bundle(bundle, desk_corpus, n_eval=50).items()}
    checks = {
        "input MJE in [20,25]": 20.0 <= m["in_mje"] <= 25.0,
        "input ACCL >= 8": m["in_accl"] >= 8.0,
        "MJE reduced >= 10%": m["mje"] <= 0.9 * m["in_mje"],
        "ACCL <= 0.3x input": m["accl"] <= 0.3 * m["in_accl"],
        "KIN <= 0.1 deg": m["kin"] <= 0.1,
        "STA <= 0.1 deg": m["sta"] <= 0.1,
    }
    detail = (f"input MJE {m['in_mje']:.2f} -> {m['mje']:.2f}, input ACCL {m['in_accl']:.1f} -> "
              f"{m['accl']:.2f}, KIN {m['kin']:.4f}, STA {m['sta']:.4f}; "
              + ", ".join(k for k, v in checks.items() if not v))
    report(5, all(checks.values()), detail)


def test_training_loss_ema_smoke(trained_full):
    # non-increasing at the smoothing window's own scale: any 10-epochs-apart
    # comparison of the EMA must not rise (catches regressions, not step noise)
    _bundle, rows = trained_full
    window = 10
    alpha = 2.0 / (window + 1.0)
    ema = []
    for row in rows:
        v = row["loss"]["total"]
        ema.append(v if not ema else alpha * v + (1 - alpha) * ema[-1])
    rises = [(t, ema[t - window], ema[t]) for t in range(window, len(ema))
             if ema[t] > ema[t - window]]
    report("5-smoke", not rises, f"EMA(10) non-increasing at window scale over {len(ema)} epochs"
           + (f"; first rise {rises[0]}" if rises else ""))


def test_denoiser_reads_diffusion_sample(trained_variants, desk_corpus):
    # x^1 is the clean sequence up to 1% of the residual plus noise of
    # variance kappa^2 eta_1 (~1e-3), while x^N adds nothing to y: a denoiser
    # that reads its diffusion sample scores a lower teacher-forced data-term
    # MSE at n = 1 than at n = N, by more than two paired standard errors
    # over the held-out sequences. One that ignores x^n scores about the same.
    rows, ok = [], True
    for name in ("full", "diffusion_only"):
        bundle, _ = trained_variants[name]
        cfg, norm, sched = bundle.config, bundle.normalizer, bundle.schedule
        tcfg = train_config_from(cfg)
        items = desk_corpus["test"]
        x = np.stack([norm.normalize(it.motion) for it in items])
        y = np.stack([norm.normalize(perturb(it.motion, tcfg.perturb,
                                             RandomStream(cfg["seed"], f"train-eval-perturb-{i}"),
                                             channel_scale=norm.std))
                      for i, it in enumerate(items)])
        labels = np.stack([t.labels for t in desk_corpus["test_tracks"]])
        mse, frozen = {}, bundle.denoiser.frozen()
        for n in (1, sched.steps):
            x_n = forward_sample(x, y, n, sched, RandomStream(cfg["seed"], f"x-n-probe-{n}"))
            x_hat, _ = frozen.decode_teacher(frozen.encode(x_n, y, n), x, labels)
            mse[n] = ((x_hat - x) ** 2).mean(axis=(1, 2))
        d = mse[1] - mse[sched.steps]
        ok = ok and d.mean() < -2 * d.std(ddof=1) / np.sqrt(d.size)
        rows.append(f"{name}: teacher-forced data MSE {mse[1].mean():.4f} at n=1, "
                    f"{mse[sched.steps].mean():.4f} at n=N, paired difference {paired(*mse.values())}")
    report("x^n", ok, "; ".join(rows))


# ---------------------------------------------------------------------------
# criterion 6: ablation direction


@pytest.fixture(scope="module")
def variant_metrics(trained_variants, desk_corpus):
    return {name: evaluate_bundle(bundle, desk_corpus, n_eval=50)
            for name, (bundle, _rows) in trained_variants.items()}


def test_criterion_6_ablation_direction(variant_metrics):
    seq = variant_metrics
    m = {v: {k: float(a.mean()) for k, a in rows.items()} for v, rows in seq.items()}
    diffs = {
        "ACCL(+diffusion) - ACCL(deterministic)":
            paired(seq["diffusion_only"]["accl"], seq["deterministic"]["accl"]),
        "KIN(+all) - KIN(+diffusion+state)":
            paired(seq["full"]["kin"], seq["diffusion_state"]["kin"]),
        "KIN(+diffusion+state) - KIN(+diffusion)":
            paired(seq["diffusion_state"]["kin"], seq["diffusion_only"]["kin"]),
        **{f"STA(+all) - STA({v})": paired(seq["full"]["sta"], seq[v]["sta"])
           for v in seq if v != "full"},
    }
    checks = {
        "ACCL(+diffusion) < ACCL(deterministic)":
            m["diffusion_only"]["accl"] < m["deterministic"]["accl"],
        "KIN(+all) < KIN(+diffusion+state)":
            m["full"]["kin"] < m["diffusion_state"]["kin"],
        "KIN(+diffusion+state) <= KIN(+diffusion)":
            m["diffusion_state"]["kin"] <= m["diffusion_only"]["kin"],
        "STA(+all) <= all others":
            all(m["full"]["sta"] <= m[v]["sta"] for v in m if v != "full"),
    }
    detail = "; ".join(
        f"{v}: accl {m[v]['accl']:.2f} kin {m[v]['kin']:.4f} sta {m[v]['sta']:.4f}" for v in m
    ) + "; paired per-sequence differences ± SE: " + "; ".join(
        f"{k} {v}" for k, v in diffs.items()
    ) + "; failed: " + (", ".join(k for k, v in checks.items() if not v) or "none")
    report(6, all(checks.values()), detail)


# ---------------------------------------------------------------------------
# criterion 7: heuristic baselines


def test_criterion_7_baseline_sanity(trained_variants, desk_corpus, variant_metrics):
    full_bundle, _ = trained_variants["full"]
    cfg = full_bundle.config
    tcfg = train_config_from(cfg)
    model = full_bundle.hand_model
    norm = full_bundle.normalizer
    sm_mje, sm_accl, in_accl = [], [], []
    for i, item in enumerate(desk_corpus["test"][:50]):
        stream = RandomStream(cfg["seed"], f"train-eval-perturb-{i}")
        y = perturb(item.motion, tcfg.perturb, stream, channel_scale=norm.std)
        smoothed = gaussian_smooth(y, sigma_frames=1.0)
        gj = motion_to_joints(item.motion, model)
        sm_mje.append(mje(motion_to_joints(smoothed, model), gj))
        sm_accl.append(accl_error(motion_to_joints(smoothed, model), gj))
        in_accl.append(accl_error(motion_to_joints(y, model), gj))
    sm = {"mje": float(np.mean(sm_mje)), "accl": float(np.mean(sm_accl)),
          "in_accl": float(np.mean(in_accl))}
    full_seq, ca_seq = variant_metrics["full"], variant_metrics["const_accel"]
    full = {k: float(v.mean()) for k, v in full_seq.items()}
    ca = {k: float(v.mean()) for k, v in ca_seq.items()}
    diffs = {
        "smoothfilter ACCL - input ACCL": paired(sm_accl, in_accl),
        "smoothfilter MJE - full MJE": paired(sm_mje, full_seq["mje"]),
        "const-accel KIN - full KIN": paired(ca_seq["kin"], full_seq["kin"]),
        "const-accel STA - full STA": paired(ca_seq["sta"], full_seq["sta"]),
    }
    checks = {
        "smoothfilter reduces ACCL": sm["accl"] < sm["in_accl"],
        "smoothfilter MJE no better than trained model": sm["mje"] >= full["mje"],
        "const-accel KIN strictly worse than +all": ca["kin"] > full["kin"],
        "const-accel STA strictly worse than +all": ca["sta"] > full["sta"],
    }
    detail = (f"smooth mje {sm['mje']:.2f} accl {sm['accl']:.2f} (in {sm['in_accl']:.1f}); "
              f"full mje {full['mje']:.2f} kin {full['kin']:.4f} sta {full['sta']:.4f}; "
              f"const-accel kin {ca['kin']:.4f} sta {ca['sta']:.4f}; paired per-sequence "
              "differences ± SE: " + "; ".join(f"{k} {v}" for k, v in diffs.items())
              + "; failed: " + (", ".join(k for k, v in checks.items() if not v) or "none"))
    report(7, all(checks.values()), detail)


# ---------------------------------------------------------------------------
# criterion 8: metric identities


def test_criterion_8_metric_identities():
    # Random cases carry a rigid/scale misplacement plus noise (what the
    # alignment exists to remove). Without any misplacement the inequality is
    # not a theorem: alignment minimizes squared error, not mean-of-norms,
    # and ~0.3% of pure-noise cases cross over by <1%.
    rng = np.random.default_rng(77)
    ok_pmje = True
    for _ in range(1000):
        gt = rng.normal(size=(1, 21, 3)) * 30
        noisy = gt + rng.normal(size=(1, 21, 3)) * rng.uniform(0.2, 8)
        Rm = Rotation.from_rotvec(rng.normal(size=3) * rng.uniform(0.05, 1.5)).as_matrix()
        pred = rng.uniform(0.8, 1.25) * noisy @ Rm.T + rng.normal(size=3) * 40
        if p_mje(pred, gt) > mje(pred, gt, root_relative=False) + 1e-9:
            ok_pmje = False
            break

    gt = rng.normal(size=(4, 21, 3)) * 40
    pred = gt + rng.normal(size=(4, 21, 3)) * 5
    base = p_mje(pred, gt)
    Rm = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    inv_err = abs(p_mje(pred @ Rm.T + np.array([12.0, -9.0, 30.0]), gt) - base)

    ok_f = True
    for _ in range(100):
        a = rng.normal(size=(2, 30, 3)) * 6
        b = rng.normal(size=(2, 30, 3)) * 6
        if f_score(a, b, 5.0) > f_score(a, b, 15.0):
            ok_f = False
            break

    worst_proc = 0.0
    for _ in range(50):
        gt_pts = rng.normal(size=(21, 3)) * 30
        Rm = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
        pred_pts = gt_pts @ Rm.T * rng.uniform(0.7, 1.5) + rng.normal(size=(21, 3)) * 2.5
        aligned = procrustes_align(pred_pts, gt_pts)
        closed = np.sqrt(((aligned - gt_pts) ** 2).sum() / 21)
        worst_proc = max(worst_proc, abs(closed - procrustes_oracle(pred_pts, gt_pts)))

    ok = ok_pmje and inv_err <= 1e-9 and ok_f and worst_proc < 1e-6
    report(8, ok, f"p-mje<=mje on 1000 cases: {ok_pmje}; rigid invariance {inv_err:.2e}; "
                  f"f5<=f15: {ok_f}; procrustes vs brute force {worst_proc:.2e} mm")


# ---------------------------------------------------------------------------
# criterion 9: determinism of the command surface


def test_criterion_9_command_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"frames": 14}))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "frames": 14,
        "train": {"epochs": 1, "batch_size": 2, "eval_subset": 0},
        "schedule": {"steps": 2},
        "denoiser": {"layers": 1, "heads": 2, "width": 16, "mesh_widths": [4, 6],
                     "step_features": 8, "ffn_multiplier": 2},
    }))

    outputs = {}
    for run in ("a", "b"):
        corpus = tmp_path / f"corpus_{run}"
        ckpt = tmp_path / f"model_{run}.ckpt"
        log = tmp_path / f"log_{run}.jsonl"
        refined = tmp_path / f"refined_{run}.hmf"
        rep = tmp_path / f"report_{run}.json"
        assert main(["generate", "--spec", str(spec), "--out", str(corpus), "--count", "4",
                     "--seed", "9"]) == 0
        assert main(["train", "--corpus", str(corpus), "--config", str(cfgp), "--out", str(ckpt),
                     "--log", str(log)]) == 0
        src = sorted(corpus.glob("*.hmf"))[0]
        assert main(["refine", "--ckpt", str(ckpt), "--in", str(src), "--out", str(refined)]) == 0
        assert main(["evaluate", "--pred", str(corpus), "--gt", str(corpus),
                     "--report", str(rep)]) == 0
        outputs[run] = {
            "corpus": b"".join(f.read_bytes() for f in sorted(corpus.glob("*"))),
            "ckpt": ckpt.read_bytes(),
            "log": log.read_bytes(),
            "refined": refined.read_bytes(),
            "report": rep.read_bytes(),
        }

    mismatched = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"][k]]

    # round-trips are byte-identical
    src = sorted((tmp_path / "corpus_a").glob("*.hmf"))[0]
    copy = tmp_path / "copy.hmf"
    write_motion(copy, read_motion(src))
    roundtrip_ok = copy.read_bytes() == src.read_bytes()
    from handrift.checkpoint import load_checkpoint, save_checkpoint

    manifest, tensors = load_checkpoint(tmp_path / "model_a.ckpt")
    ck_copy = tmp_path / "ckpt_copy.ckpt"
    save_checkpoint(ck_copy, tensors, seed=manifest["seed"], config_hash=manifest["config_hash"],
                    extra=manifest["extra"])
    ck_ok = ck_copy.read_bytes() == (tmp_path / "model_a.ckpt").read_bytes()

    ok = not mismatched and roundtrip_ok and ck_ok
    report(9, ok, f"bitwise-identical: {sorted(set(outputs['a']) - set(mismatched))}; "
                  f"motion roundtrip {roundtrip_ok}, checkpoint roundtrip {ck_ok}"
                  + (f"; MISMATCH: {mismatched}" if mismatched else ""))
