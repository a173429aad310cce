"""Learned clean-motion estimator f(x^n, y, n) -> (x_hat, state logits).

Per frame, the meshes of the noisy sample and the conditioning estimate are
encoded by a shared graph-convolution stack over the fixed template
adjacency and mean-pooled. The layers, tanh((adjacency @ h) @ W + b) each, and
the pool are one ``graph_conv_stack`` op per block of ``MESH_BLOCK`` meshes; in
training it keeps only the block's meshes and re-runs the layers in its
backward. It convolves each (V,C) mesh on its own, so a mesh's code does not
depend on the batch it rides in. Together with a sinusoidal step embedding
(computed once per ``encode`` and shared by the encoder tokens and the decoder
rows) and temporal positional encoding, the codes feed a causal transformer
encoder. A causal decoder predicts each frame's pose and state logits
autoregressively, conditioned on the previous frame's pose and a
(Gumbel-)sampled state embedding: teacher-forced in training, fed back on
itself at inference.

Everything, encoder self-attention included, is causally masked, so decoded
frame t never depends on inputs after t. That makes free-running decoding
incremental. The decoder has two bodies. Teacher forcing (``decode_teacher``)
decodes all T rows in one causally masked block. Free running
(``forward_free``) encodes once and then runs the row step: frame t goes once
through each layer as a (B,W) row, one GEMM per projection over all windows,
against per-layer buffers of the earlier frames' self-attention keys/values
and the cross-attention keys/values projected from the memory once. A frame
thus costs one row through each layer, not a re-decode of the whole prefix.
The row step fuses its projections from the live params at every call, so it
equals a teacher-forced re-decode of every prefix up to rounding, not bitwise.
The conditioning y is the same at every step of a reverse chain, so a refine
pools y's mesh codes once (``encode_condition``), once per clip frame however
many overlapping windows hold it, and each step skins and graph-convolves only
x^n's meshes; a deterministic chain's first step, where x^N is y itself,
reuses y's codes for both.

The encoder and the teacher body are written once over an op namespace,
``self.ops``: the ``tensor`` module, which records the graph training
differentiates, or, on the copy ``frozen()`` returns, ``tensor.plain``, the
same arithmetic on bare arrays for every pass no gradient flows through. Both
give bitwise-equal values. The row step runs on plain arrays only: a
Tensor-ops denoiser's ``forward_free`` runs on its ``frozen()`` view. Both
run the mesh encoder over blocks of ``MESH_BLOCK`` meshes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, NumericalError, ShapeError
from .hand import HandModel, skin_mesh_batch
from .motion import FRAME_DIM, Normalizer, pose_parts
from .physics import STATE_COUNT
from .rng import RandomStream
from .tensor import Tensor


# Meshes per graph-convolution pass. A block's per-layer (32, 98, 16) arrays
# take about 400 kB and are reused from the heap, where a 256-mesh pass
# allocates about 3 MB a layer and page-faults it in anew. A training step's
# backward re-runs one block's layers at a time.
MESH_BLOCK = 32

MESH_SCALE = 0.01  # mm -> network input units
_STATE_ONEHOT = np.eye(STATE_COUNT)


@dataclass(frozen=True)
class DenoiserConfig:
    layers: int = 2
    heads: int = 4
    width: int = 64
    mesh_widths: tuple = (8, 16, 16, 16)
    ffn_multiplier: int = 4
    step_features: int = 16

    def validate(self):
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.step_features % 2 != 0:
            raise ConfigError("step_features must be even (sin/cos pairs)")


def positional_encoding(frames: int, width: int) -> np.ndarray:
    pos = np.arange(frames)[:, None]
    i = np.arange(width)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / width)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def sample_state(logits: np.ndarray, rng: RandomStream | None) -> np.ndarray:
    """Hard Gumbel-softmax (temperature 1) over the state axis: the straight-through one-hot.

    The value is soft + (onehot - soft), the one-hot up to rounding. With
    rng=None no noise is injected (argmax limit), keeping deterministic
    inference a pure function of its inputs.
    """
    z = logits if rng is None else logits + rng.gumbel(np.shape(logits))
    soft = tz.plain.softmax(z, axis=-1)
    return soft + (_STATE_ONEHOT[np.argmax(soft, axis=-1)] - soft)


def _param_spec(cfg: DenoiserConfig) -> list:
    """(name, shape, init) of every parameter in drawing order; init(stream) -> array."""
    spec: list = []

    def normal(name, shape, gain, fan_in=1):
        spec.append((name, shape, lambda s: s.normal(shape) * gain / np.sqrt(fan_in)))

    def fill(name, shape, value):
        spec.append((name, shape, lambda s: np.full(shape, value)))

    def linear(name, fan_in, fan_out, gain=1.0):
        normal(f"{name}.w", (fan_in, fan_out), gain, fan_in)
        fill(f"{name}.b", (fan_out,), 0.0)

    def norm(name):
        fill(f"{name}.g", (cfg.width,), 1.0)
        fill(f"{name}.b", (cfg.width,), 0.0)

    widths = (3,) + tuple(cfg.mesh_widths)
    for i in range(len(cfg.mesh_widths)):
        linear(f"mesh.{i}", widths[i], widths[i + 1])
    linear("frame_proj", 2 * cfg.mesh_widths[-1], cfg.width)
    linear("step.0", cfg.step_features, cfg.width)
    linear("step.1", cfg.width, cfg.width)

    def attention(name):
        for part in ("q", "k", "v", "o"):
            linear(f"{name}.{part}", cfg.width, cfg.width)

    hidden = cfg.ffn_multiplier * cfg.width
    for i in range(cfg.layers):
        norm(f"enc.{i}.ln1")
        attention(f"enc.{i}.attn")
        norm(f"enc.{i}.ln2")
        linear(f"enc.{i}.ffn.0", cfg.width, hidden)
        linear(f"enc.{i}.ffn.1", hidden, cfg.width)
    norm("enc_ln")
    for i in range(cfg.layers):
        norm(f"dec.{i}.ln1")
        attention(f"dec.{i}.self")
        norm(f"dec.{i}.ln2")
        attention(f"dec.{i}.cross")
        norm(f"dec.{i}.ln3")
        linear(f"dec.{i}.ffn.0", cfg.width, hidden)
        linear(f"dec.{i}.ffn.1", hidden, cfg.width)
    norm("dec_ln")

    linear("dec_in", FRAME_DIM, cfg.width)
    linear("dec_obs", 2 * FRAME_DIM, cfg.width)
    normal("state_emb", (STATE_COUNT, cfg.width), 0.02)
    normal("start", (cfg.width,), 0.02)
    linear("head_pose", cfg.width, FRAME_DIM, gain=0.02)
    linear("head_state", cfg.width, STATE_COUNT, gain=0.02)
    return spec


def _fold(params: dict, norm: str, names: list) -> tuple:
    """(w, b) of the linear layers ``names`` side by side, applied after the layer
    norm ``norm`` with its gain and bias folded in: LN(x) @ w + b."""
    w = np.concatenate([params[f"{n}.w"] for n in names], axis=1)
    b = np.concatenate([params[f"{n}.b"] for n in names])
    return params[f"{norm}.g"][:, None] * w, params[f"{norm}.b"] @ w + b


def param_shapes(cfg: DenoiserConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter a denoiser of this configuration has."""
    return {name: shape for name, shape, _ in _param_spec(cfg)}


class Denoiser:
    """Holds the parameter set and runs teacher-forced / free-running passes."""

    def __init__(self, config: DenoiserConfig, hand_model: HandModel, normalizer: Normalizer,
                 params: dict[str, Tensor] | None = None, seed: int = 0, total_steps: int = 1,
                 state_feedback: bool = True):
        config.validate()
        self.cfg = config
        self.hand_model = hand_model
        self.normalizer = normalizer
        self.total_steps = total_steps
        self.state_feedback = state_feedback  # False: condition on a neutral state
        self.ops = tz
        self.adjacency = hand_model.adjacency_norm  # a constant: no gradient reaches it
        self.params = params if params is not None else self.init_params(seed)

    def frozen(self) -> "Denoiser":
        """A gradient-free view for inference: the same passes on plain numpy.

        A shallow copy whose ops are ``tensor.plain`` and whose params are the
        live ``.data`` arrays (an in-place optimizer step shows through). It
        copies no weights and leaves this denoiser untouched; its passes
        return arrays.
        """
        view = copy.copy(self)
        view.ops = tz.plain
        view.params = {k: p.data for k, p in self.params.items()}
        return view

    # -- parameters ------------------------------------------------------

    def init_params(self, seed: int) -> dict[str, Tensor]:
        stream = RandomStream(seed, "denoiser-init")
        return {name: Tensor(init(stream), requires_grad=True, name=name)
                for name, _, init in _param_spec(self.cfg)}

    # -- building blocks ---------------------------------------------------

    def _lin(self, name, x):
        return self.ops.matmul(x, self.params[f"{name}.w"]) + self.params[f"{name}.b"]

    def _ln(self, name, x):
        return self.ops.layer_norm(x) * self.params[f"{name}.g"] + self.params[f"{name}.b"]

    def _check(self, t, layer: str):
        if not np.isfinite(self.ops.value(t)).all():
            raise NumericalError(f"non-finite activations in {layer}")
        return t

    def encode_meshes(self, meshes: np.ndarray):
        """Graph convolutions over template adjacency, mean-pooled: (M,V,3) -> (M,C).

        The meshes go through in blocks of ``MESH_BLOCK``. A mesh's code does
        not depend on its batch, so the codes are bitwise those of one pass;
        on the Tensor path the weight gradients are summed per block.
        """
        if meshes.shape[-2] != self.hand_model.vertex_count:
            raise ShapeError(
                f"mesh has {meshes.shape[-2]} vertices, template has {self.hand_model.vertex_count}"
            )
        h = np.asarray(meshes, dtype=np.float64) * MESH_SCALE
        if len(h) > MESH_BLOCK:
            return self.ops.concatenate([self._pool_meshes(h[i : i + MESH_BLOCK])
                                         for i in range(0, len(h), MESH_BLOCK)])
        return self._pool_meshes(h)

    def _pool_meshes(self, h):
        """The graph-convolution stack and mean-pool over scaled (M,V,3) meshes."""
        layers = range(len(self.cfg.mesh_widths))
        return self.ops.graph_conv_stack(h, self.adjacency,
                                         [self.params[f"mesh.{i}.w"] for i in layers],
                                         [self.params[f"mesh.{i}.b"] for i in layers],
                                         lambda out, i: self._check(out, f"mesh encoder layer {i}"))

    def embed_step(self, n, total_steps: int):
        """Sinusoidal features of n/N through a 2-layer perceptron; n may be (B,)."""
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
        if np.any(n_arr < 1) or np.any(n_arr > total_steps):
            raise ConfigError(f"step index outside [1, {total_steps}]")
        u = n_arr / float(total_steps)
        half = self.cfg.step_features // 2
        freqs = np.pi * 2.0 ** np.arange(half)
        feats = np.concatenate([np.sin(u[:, None] * freqs), np.cos(u[:, None] * freqs)], axis=1)
        h = self.ops.tanh(self._lin("step.0", feats))
        return self._lin("step.1", h)  # (B, width)

    def _heads(self, proj, x):
        """Project (B,T,W) through ``proj`` and split heads: (B,H,T,W/H)."""
        cfg = self.cfg
        B, T = x.shape[0], x.shape[1]
        t = self._lin(proj, x).reshape((B, T, cfg.heads, cfg.width // cfg.heads))
        return t.transpose((0, 2, 1, 3))

    def _mix(self, name, q, k, v, mask: np.ndarray | None, layer: str):
        """Scaled dot-product attention of split heads, merged and projected."""
        B, Tq = q.shape[0], q.shape[2]
        scores = self.ops.matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(q.shape[3]))
        if mask is not None:
            scores = scores + mask  # (Tq,Tk) additive causal mask, -inf blocked
        attn = self.ops.softmax(scores, axis=-1)
        out = self.ops.matmul(attn, v)
        out = out.transpose((0, 2, 1, 3)).reshape((B, Tq, self.cfg.width))
        return self._check(self._lin(f"{name}.o", out), layer)

    def _attend(self, name, q_in, kv_in, mask: np.ndarray, layer: str):
        q = self._heads(f"{name}.q", q_in)
        k = self._heads(f"{name}.k", kv_in)
        v = self._heads(f"{name}.v", kv_in)
        return self._mix(name, q, k, v, mask, layer)

    def _ffn(self, name, x):
        return self._lin(f"{name}.1", self.ops.tanh(self._lin(f"{name}.0", x)))

    @staticmethod
    def _causal_mask(t: int) -> np.ndarray:
        """Additive (t,t) mask: position i attends to positions 0..i."""
        return np.where(np.arange(t)[None, :] <= np.arange(t)[:, None], 0.0, -np.inf)

    def _skin(self, norm: np.ndarray) -> np.ndarray:
        """Posed meshes of every frame of a normalized (B,T,D) batch: (B*T,V,3)."""
        flat = self.normalizer.denormalize(norm).reshape(-1, FRAME_DIM)
        verts, _ = skin_mesh_batch(*pose_parts(flat), self.hand_model)
        return verts

    def encode_condition(self, y_norm):
        """Pooled mesh codes of the conditioning frames y (..., D), one row per frame.

        Row-flattened (B*T, C) codes of a (B,T,D) y are ``encode(..., y_code=)``'s.
        y is the same at every step of a reverse chain, so a refine encodes
        its meshes once here instead of at every step.
        """
        return self.encode_meshes(self._skin(np.asarray(y_norm, dtype=np.float64)))

    def _encode_sequence(self, x_n_norm: np.ndarray, y_norm: np.ndarray, step_emb, y_code,
                         pe: np.ndarray):
        """Causal encoder over per-frame mesh tokens: returns memory (B,T,W)."""
        cfg = self.cfg
        B, T, _ = x_n_norm.shape
        if y_code is None:
            pooled = self.encode_meshes(np.concatenate([self._skin(y_norm), self._skin(x_n_norm)]))
            y_code, x_code = pooled[0 : B * T], pooled[B * T : 2 * B * T]
        elif x_n_norm is y_norm:  # x^N is y itself (a deterministic chain's first step): same codes
            x_code = y_code
        else:
            x_code = self.encode_meshes(self._skin(x_n_norm))
        frame = self.ops.concatenate([y_code, x_code], axis=-1)
        tokens = self._lin("frame_proj", frame).reshape((B, T, cfg.width))

        tokens = tokens + step_emb.reshape((B, 1, cfg.width)) + pe
        mask = self._causal_mask(T)
        h = tokens
        for i in range(cfg.layers):
            hn = self._ln(f"enc.{i}.ln1", h)
            h = h + self._attend(f"enc.{i}.attn", hn, hn, mask, f"encoder layer {i}")
            h = h + self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", h))
            self._check(h, f"encoder layer {i}")
        return self._ln("enc_ln", h)

    # -- public passes ----------------------------------------------------

    def encode(self, x_n_norm, y_norm, n, total_steps: int | None = None, y_code=None):
        """Shared conditioning: (memory (B,T,W), step emb (B,W), obs tokens (B,T,W), pe (T,W)).

        The observation tokens project each frame's raw normalized (y_t, x^n_t)
        pair so the decoder conditions on the input data directly, not only
        through the pooled mesh codes. ``total_steps`` is the length N of the
        schedule that n counts down; it defaults to the trained schedule's.
        ``y_code`` is ``encode_condition(y_norm)``; without it y's meshes are
        encoded here, in one graph-convolution pass together with x^n's.
        """
        x_n_norm = np.asarray(x_n_norm, dtype=np.float64)
        y_norm = np.asarray(y_norm, dtype=np.float64)
        B, T = x_n_norm.shape[:2]
        n_arr = np.broadcast_to(np.asarray(n), (B,)).astype(np.int64)
        steps = self.total_steps if total_steps is None else total_steps
        pe = positional_encoding(T, self.cfg.width)
        step_emb = self.embed_step(n_arr, steps)
        memory = self._encode_sequence(x_n_norm, y_norm, step_emb, y_code, pe)
        obs_tokens = self._lin("dec_obs", np.concatenate([y_norm, x_n_norm], axis=-1))
        return memory, step_emb, obs_tokens, pe

    def decode_teacher(self, cond, teacher_pose_norm, teacher_labels):
        """Parallel decode of all T rows with forced previous-frame pose/state inputs.

        Row t's input is the start token (t = 0) or frame t-1's teacher pose and
        state, dec_in(pose) + onehot(state) @ state_emb, plus frame t's
        observation token, positional encoding and step embedding.
        ``teacher_labels=None`` (or state feedback disabled) conditions every
        position on the neutral zero state instead.
        """
        cfg = self.cfg
        memory, step_emb, obs_tokens, pe = cond
        B, T = memory.shape[0], memory.shape[1]
        u = self.params["start"].reshape((1, 1, cfg.width)) + np.zeros((B, 1, cfg.width))
        if T > 1:
            prev_pose = np.asarray(teacher_pose_norm, dtype=np.float64)[:, : T - 1]
            if teacher_labels is not None and self.state_feedback:
                labels = np.asarray(teacher_labels, dtype=np.int64)[:, : T - 1]
                prev_state = _STATE_ONEHOT[labels]
            else:
                prev_state = np.zeros(prev_pose.shape[:2] + (STATE_COUNT,))
            fed = self._lin("dec_in", prev_pose) + self.ops.matmul(prev_state, self.params["state_emb"])
            u = self.ops.concatenate([u, fed], axis=1)
        h = u + obs_tokens + pe + step_emb.reshape((B, 1, cfg.width))
        mask = self._causal_mask(T) if T > 1 else None
        for i in range(cfg.layers):
            hn = self._ln(f"dec.{i}.ln1", h)
            h = h + self._attend(f"dec.{i}.self", hn, hn, mask, f"decoder layer {i} self")
            q = self._heads(f"dec.{i}.cross.q", self._ln(f"dec.{i}.ln2", h))
            k = self._heads(f"dec.{i}.cross.k", memory)
            v = self._heads(f"dec.{i}.cross.v", memory)
            h = h + self._mix(f"dec.{i}.cross", q, k, v, mask, f"decoder layer {i} cross")
            h = h + self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", h))
            self._check(h, f"decoder layer {i}")
        h = self._ln("dec_ln", h)
        x_hat = self._check(self._lin("head_pose", h), "pose head")
        return x_hat, self._check(self._lin("head_state", h), "state head")

    def forward_free(self, x_n_norm, y_norm, n, rng: RandomStream | None = None,
                     total_steps: int | None = None, y_code=None):
        """Sequential inference pass feeding back its own pose/state predictions.

        With rng=None state feedback uses the argmax one-hot (deterministic);
        otherwise hard Gumbel-Softmax samples. It runs on plain arrays, a
        Tensor-ops denoiser on its ``frozen()`` view, and decodes frame by frame
        with the row step (see the module docstring). It equals a causal
        teacher-forced re-decode of every prefix up to rounding. ``y_code`` is as
        in ``encode``. Returns arrays (x_hat (B,T,D), state_logits (B,T,S)).
        """
        den = self if self.ops is tz.plain else self.frozen()
        if y_code is not None:
            y_code = tz.value(y_code)
        memory, step_emb, obs_tokens, pe = den.encode(x_n_norm, y_norm, n, total_steps, y_code)
        return den._decode_free(memory, obs_tokens + pe + step_emb[:, None], rng)

    def _decode_free(self, memory: np.ndarray, rows_in: np.ndarray, rng: RandomStream | None):
        """The row step: decode (B,T,W) ``memory`` frame by frame on plain arrays.

        ``rows_in`` (B,T,W) is each frame's observation token + positional
        encoding + step embedding. Frame t runs once through each layer as a
        (B,W) row, one GEMM per projection over all B windows. The projections
        are fused from the live params on every call: self-attention Q|K|V,
        dec_in|state_emb and the pose|state heads are one matrix each, and each
        layer norm's gain and bias are folded into the projections after it.
        The queries carry the 1/sqrt(d) score scale. Each layer writes frame t's
        self-attention keys/values into preallocated (B,H,T,d) buffers; the frame
        attends to their first t+1 rows and to the first t+1 of the memory's
        cross-attention keys/values, projected once. A frame's output is checked
        for finite values once; a frame that fails is re-run with a check after
        every layer, so the error names the first layer that went non-finite.
        """
        cfg, p = self.cfg, self.params
        B, T, W = memory.shape
        H, d = cfg.heads, W // cfg.heads
        D = FRAME_DIM
        scale = 1.0 / np.sqrt(d)
        in_w = np.concatenate([p["dec_in.w"], p["state_emb"]])
        layers = []
        for i in range(cfg.layers):
            name = f"dec.{i}"
            qkv_w, qkv_b = _fold(p, f"{name}.ln1", [f"{name}.self.{c}" for c in "qkv"])
            qkv_w[:, :W] *= scale
            qkv_b[:W] *= scale
            cross_q = tuple(a * scale for a in _fold(p, f"{name}.ln2", [f"{name}.cross.q"]))
            layers.append(((qkv_w, qkv_b), (p[f"{name}.self.o.w"], p[f"{name}.self.o.b"]),
                           cross_q, (p[f"{name}.cross.o.w"], p[f"{name}.cross.o.b"]),
                           _fold(p, f"{name}.ln3", [f"{name}.ffn.0"]),
                           (p[f"{name}.ffn.1.w"], p[f"{name}.ffn.1.b"]),
                           self._heads(f"{name}.cross.k", memory),
                           self._heads(f"{name}.cross.v", memory),
                           np.empty((B, H, T, d)), np.empty((B, H, T, d))))
        head_w, head_b = _fold(p, "dec_ln", ["head_pose", "head_state"])
        x_hat, logits = np.empty((B, T, D)), np.empty((B, T, STATE_COUNT))
        fed = np.zeros((B, D + STATE_COUNT))  # frame t-1's pose | state (zero without feedback)
        mean = np.full((W, 1), 1.0 / W)

        def norm(x):  # tensor.layer_norm (eps 1e-8), its two means taken as GEMVs
            xc = x - x @ mean
            return xc * (1.0 / np.sqrt((xc * xc) @ mean + 1e-8))

        def attend(q, k, v, t):  # softmax(q k^T) v over the first t+1 keys; q is pre-scaled
            scores = np.matmul(q, k[:, :, : t + 1].transpose(0, 1, 3, 2))
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            return np.matmul(e / e.sum(axis=-1, keepdims=True), v[:, :, : t + 1]).reshape(B, W)

        def row(t, check):  # frame t through every layer and the heads; check(x, layer) -> x
            h = rows_in[:, t] + (p["start"] if t == 0 else fed @ in_w + p["dec_in.b"])
            for i, (qkv, o, cq, co, f0, f1, cross_k, cross_v, keys, values) in enumerate(layers):
                x = (norm(h) @ qkv[0] + qkv[1]).reshape(B, 3, H, 1, d)  # q | k | v
                keys[:, :, t], values[:, :, t] = x[:, 1, :, 0], x[:, 2, :, 0]
                a = attend(x[:, 0], keys, values, t) @ o[0] + o[1]
                h = h + check(a, f"decoder layer {i} self")
                q = (norm(h) @ cq[0] + cq[1]).reshape(B, H, 1, d)
                a = attend(q, cross_k, cross_v, t) @ co[0] + co[1]
                h = h + check(a, f"decoder layer {i} cross")
                h = check(h + (np.tanh(norm(h) @ f0[0] + f0[1]) @ f1[0] + f1[1]), f"decoder layer {i}")
            out = norm(h) @ head_w + head_b
            check(out[:, :D], "pose head")
            check(out[:, D:], "state head")
            return out

        with np.errstate(all="ignore"):  # a frame that goes non-finite is named by its checked re-run
            for t in range(T):
                out = row(t, lambda x, layer: x)
                if not np.isfinite(out).all():  # re-run the frame checking every layer, to name the first
                    row(t, self._check)
                x_hat[:, t], logits[:, t] = out[:, :D], out[:, D:]
                fed[:, :D] = out[:, :D]
                if self.state_feedback:
                    fed[:, D:] = sample_state(out[:, D:], rng)
        return x_hat, logits
