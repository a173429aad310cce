"""Learned clean-motion estimator f(x^n, y, n) -> (x_hat, state logits).

Per frame, the meshes of the noisy sample and the conditioning estimate are
encoded by a shared graph-convolution stack over the fixed template
adjacency and mean-pooled; together with a sinusoidal step embedding and
temporal positional encoding they feed a causal transformer encoder. A
causal decoder predicts each frame's pose and state logits autoregressively,
conditioned on the previous frame's pose and a (Gumbel-)sampled state
embedding: teacher-forced in training, fed back on itself at inference.

Everything, encoder self-attention included, is causally masked, so decoded
frame t never depends on inputs after t. That makes free-running decoding
incremental. One decoder body, ``_decode_rows``, serves both passes: it runs
a block of rows against a per-layer cache of self-attention keys/values and
cross-attention keys/values projected from the memory once. Teacher forcing
is one block of all T rows; free running encodes once and decodes T blocks of
one row, so a frame costs one row through each layer, not a re-decode of the
whole prefix. The conditioning y is the same at every step of a reverse chain,
so a refine pools y's mesh codes once (``encode_condition``) and each step
skins and graph-convolves only x^n's meshes; a deterministic chain's first
step, where x^N is y itself, reuses y's codes for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, NumericalError, ShapeError
from .hand import HandModel, skin_mesh_batch
from .motion import FRAME_DIM, Normalizer, pose_parts
from .rng import RandomStream
from .tensor import Tensor


@dataclass(frozen=True)
class DenoiserConfig:
    layers: int = 2
    heads: int = 4
    width: int = 64
    mesh_widths: tuple = (8, 16, 16, 16)
    state_classes: int = 5
    gumbel_tau: float = 1.0
    ffn_multiplier: int = 4
    step_features: int = 16
    mesh_scale: float = 0.01       # mm -> network input units
    max_frames: int = 256

    def validate(self):
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.state_classes < 2:
            raise ConfigError("need at least 2 state classes")
        if self.step_features % 2 != 0:
            raise ConfigError("step_features must be even (sin/cos pairs)")


def positional_encoding(max_t: int, width: int) -> np.ndarray:
    pos = np.arange(max_t)[:, None]
    i = np.arange(width)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / width)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def sample_state(logits, tau: float, rng: RandomStream | None, hard: bool = False):
    """Gumbel-softmax over the last axis; straight-through one-hot when hard.

    With rng=None no noise is injected (argmax limit), keeping deterministic
    inference a pure function of its inputs.
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be > 0, got {tau}")
    logits = tz.as_tensor(logits)
    z = logits if rng is None else logits + Tensor(rng.gumbel(logits.shape))
    soft = tz.softmax(z, temperature=tau, axis=-1)
    if not hard:
        return soft
    idx = np.argmax(soft.data, axis=-1)
    onehot = np.eye(logits.shape[-1])[idx]
    return soft + Tensor(onehot - soft.data)


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
    normal("state_emb", (cfg.state_classes, cfg.width), 0.02)
    normal("start", (cfg.width,), 0.02)
    linear("head_pose", cfg.width, FRAME_DIM, gain=0.02)
    linear("head_state", cfg.width, cfg.state_classes, gain=0.02)
    return spec


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
        self.pe = positional_encoding(config.max_frames, config.width)
        self.adjacency = Tensor(hand_model.adjacency_norm)
        self.params = params if params is not None else self.init_params(seed)

    # -- parameters ------------------------------------------------------

    def init_params(self, seed: int) -> dict[str, Tensor]:
        stream = RandomStream(seed, "denoiser-init")
        return {name: Tensor(init(stream), requires_grad=True, name=name)
                for name, _, init in _param_spec(self.cfg)}

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    # -- building blocks ---------------------------------------------------

    def _lin(self, name, x):
        return tz.matmul(x, self.params[f"{name}.w"]) + self.params[f"{name}.b"]

    def _ln(self, name, x):
        return tz.layer_norm(x) * self.params[f"{name}.g"] + self.params[f"{name}.b"]

    @staticmethod
    def _check(t: Tensor, layer: str):
        if not np.all(np.isfinite(t.data)):
            raise NumericalError(f"non-finite activations in {layer}")
        return t

    def encode_meshes(self, meshes: np.ndarray) -> Tensor:
        """Graph convolutions over template adjacency, mean-pooled: (M,V,3) -> (M,C)."""
        if meshes.shape[-2] != self.hand_model.vertex_count:
            raise ShapeError(
                f"mesh has {meshes.shape[-2]} vertices, template has {self.hand_model.vertex_count}"
            )
        h = Tensor(np.asarray(meshes, dtype=np.float64) * self.cfg.mesh_scale)
        for i in range(len(self.cfg.mesh_widths)):
            h = tz.tanh(self._lin(f"mesh.{i}", tz.matmul(self.adjacency, h)))
            self._check(h, f"mesh encoder layer {i}")
        return tz.tmean(h, axis=-2)

    def embed_step(self, n, total_steps: int) -> Tensor:
        """Sinusoidal features of n/N through a 2-layer perceptron; n may be (B,)."""
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
        if np.any(n_arr < 1) or np.any(n_arr > total_steps):
            raise ConfigError(f"step index outside [1, {total_steps}]")
        u = n_arr / float(total_steps)
        half = self.cfg.step_features // 2
        freqs = np.pi * 2.0 ** np.arange(half)
        feats = np.concatenate([np.sin(u[:, None] * freqs), np.cos(u[:, None] * freqs)], axis=1)
        h = tz.tanh(self._lin("step.0", Tensor(feats)))
        return self._lin("step.1", h)  # (B, width)

    def _heads(self, proj, x):
        """Project (B,T,W) through ``proj`` and split heads: (B,H,T,W/H)."""
        cfg = self.cfg
        B, T = x.shape[0], x.shape[1]
        t = tz.reshape(self._lin(proj, x), (B, T, cfg.heads, cfg.width // cfg.heads))
        return tz.transpose(t, (0, 2, 1, 3))

    def _mix(self, name, q, k, v, mask: np.ndarray | None, layer: str):
        """Scaled dot-product attention of split heads, merged and projected."""
        B, Tq = q.shape[0], q.shape[2]
        scores = tz.matmul(q, tz.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(q.shape[3]))
        if mask is not None:
            scores = scores + Tensor(mask)  # (Tq,Tk) additive causal mask, -inf blocked
        attn = tz.softmax(scores, axis=-1)
        out = tz.matmul(attn, v)
        out = tz.reshape(tz.transpose(out, (0, 2, 1, 3)), (B, Tq, self.cfg.width))
        return self._check(self._lin(f"{name}.o", out), layer)

    def _attend(self, name, q_in, kv_in, mask: np.ndarray, layer: str):
        q = self._heads(f"{name}.q", q_in)
        k = self._heads(f"{name}.k", kv_in)
        v = self._heads(f"{name}.v", kv_in)
        return self._mix(name, q, k, v, mask, layer)

    def _ffn(self, name, x):
        return self._lin(f"{name}.1", tz.tanh(self._lin(f"{name}.0", x)))

    @staticmethod
    def _causal_mask(tq: int, tk: int) -> np.ndarray:
        """Additive mask for the last tq of tk positions attending to all tk."""
        return np.where(np.arange(tk)[None, :] <= np.arange(tk - tq, tk)[:, None], 0.0, -np.inf)

    def _skin(self, norm: np.ndarray) -> np.ndarray:
        """Posed meshes of every frame of a normalized (B,T,D) batch: (B*T,V,3)."""
        flat = self.normalizer.denormalize(norm).reshape(-1, FRAME_DIM)
        verts, _ = skin_mesh_batch(*pose_parts(flat), self.hand_model)
        return verts

    def encode_condition(self, y_norm) -> Tensor:
        """Pooled mesh codes (B*T, C) of the conditioning y, for ``encode(..., y_code=)``.

        y is the same at every step of a reverse chain, so a refine encodes
        its meshes once here instead of at every step.
        """
        return self.encode_meshes(self._skin(np.asarray(y_norm, dtype=np.float64)))

    def _encode_sequence(self, x_n_norm: np.ndarray, y_norm: np.ndarray, n_arr: np.ndarray,
                         total_steps: int, y_code: Tensor | None) -> Tensor:
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
        frame = tz.concatenate([y_code, x_code], axis=-1)
        tokens = tz.reshape(self._lin("frame_proj", frame), (B, T, cfg.width))

        step = tz.reshape(self.embed_step(n_arr, total_steps), (B, 1, cfg.width))
        tokens = tokens + step + Tensor(self.pe[:T])
        mask = self._causal_mask(T, T)
        h = tokens
        for i in range(cfg.layers):
            hn = self._ln(f"enc.{i}.ln1", h)
            h = h + self._attend(f"enc.{i}.attn", hn, hn, mask, f"encoder layer {i}")
            h = h + self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", h))
            self._check(h, f"encoder layer {i}")
        return self._ln("enc_ln", h)

    def _decode_rows(self, cond, cache: list, t0: int, prev_pose: Tensor | None,
                     prev_state: Tensor | None):
        """Run the decoder over rows t0..t0+R-1: (x_hat (B,R,D), state logits (B,R,S)).

        Row t's input is the start token (t = 0) or the fed-back frame t-1,
        dec_in(pose) + state @ state_emb, plus frame t's observation token,
        positional encoding and step embedding. ``prev_pose``/``prev_state``
        (B,R',*) are the fed-back frames t0-1..t0+R-2 (R' = R - 1 at t0 = 0, else
        R); ``prev_state=None`` is the neutral zero state. An empty ``cache``
        (t0 = 0) gets each layer's cross-attention K/V, projected from the memory
        once; every call appends its rows' self-attention K/V.
        """
        cfg = self.cfg
        memory, step_emb, obs_tokens = cond
        B = memory.shape[0]
        parts = []
        if t0 == 0:
            cache[:] = [[self._heads(f"dec.{i}.cross.k", memory),
                         self._heads(f"dec.{i}.cross.v", memory), None, None]
                        for i in range(cfg.layers)]
            parts.append(tz.reshape(self.params["start"], (1, 1, cfg.width))
                         + Tensor(np.zeros((B, 1, cfg.width))))
        if prev_pose is not None and prev_pose.shape[1] > 0:
            if prev_state is None:
                prev_state = Tensor(np.zeros(prev_pose.shape[:2] + (cfg.state_classes,)))
            parts.append(self._lin("dec_in", prev_pose) + tz.matmul(prev_state, self.params["state_emb"]))
        u = parts[0] if len(parts) == 1 else tz.concatenate(parts, axis=1)
        R = u.shape[1]
        h = (u + obs_tokens[:, t0 : t0 + R] + Tensor(self.pe[t0 : t0 + R])
             + tz.reshape(step_emb, (B, 1, cfg.width)))
        mask = self._causal_mask(R, t0 + R) if R > 1 else None
        for i, layer in enumerate(cache):
            cross_k, cross_v, self_k, self_v = layer
            hn = self._ln(f"dec.{i}.ln1", h)
            q = self._heads(f"dec.{i}.self.q", hn)
            k = self._heads(f"dec.{i}.self.k", hn)
            v = self._heads(f"dec.{i}.self.v", hn)
            if self_k is not None:
                k = tz.concatenate([self_k, k], axis=2)
                v = tz.concatenate([self_v, v], axis=2)
            layer[2:] = k, v
            h = h + self._mix(f"dec.{i}.self", q, k, v, mask, f"decoder layer {i} self")
            q = self._heads(f"dec.{i}.cross.q", self._ln(f"dec.{i}.ln2", h))
            h = h + self._mix(f"dec.{i}.cross", q, cross_k[:, :, : t0 + R], cross_v[:, :, : t0 + R],
                              mask, f"decoder layer {i} cross")
            h = h + self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", h))
            self._check(h, f"decoder layer {i}")
        h = self._ln("dec_ln", h)
        x_hat = self._check(self._lin("head_pose", h), "pose head")
        return x_hat, self._check(self._lin("head_state", h), "state head")

    # -- public passes ----------------------------------------------------

    def encode(self, x_n_norm, y_norm, n, total_steps: int | None = None,
               y_code: Tensor | None = None):
        """Shared conditioning: (memory (B,T,W), step emb (B,W), obs tokens (B,T,W)).

        The observation tokens project each frame's raw normalized (y_t, x^n_t)
        pair so the decoder conditions on the input data directly, not only
        through the pooled mesh codes. ``total_steps`` is the length N of the
        schedule that n counts down; it defaults to the trained schedule's.
        ``y_code`` is ``encode_condition(y_norm)``; without it y's meshes are
        encoded here, in one graph-convolution pass together with x^n's.
        """
        x_n_norm = np.asarray(x_n_norm, dtype=np.float64)
        y_norm = np.asarray(y_norm, dtype=np.float64)
        B = x_n_norm.shape[0]
        n_arr = np.broadcast_to(np.asarray(n), (B,)).astype(np.int64)
        steps = self.total_steps if total_steps is None else total_steps
        memory = self._encode_sequence(x_n_norm, y_norm, n_arr, steps, y_code)
        step_emb = self.embed_step(n_arr, steps)
        obs = Tensor(np.concatenate([y_norm, x_n_norm], axis=-1))
        obs_tokens = self._lin("dec_obs", obs)
        return memory, step_emb, obs_tokens

    def decode_teacher(self, cond, teacher_pose_norm, teacher_labels):
        """Parallel decode with forced previous-frame pose/state inputs.

        ``teacher_labels=None`` (or state feedback disabled) conditions every
        position on the neutral zero state instead.
        """
        T = cond[0].shape[1]
        onehot = None
        if teacher_labels is not None and self.state_feedback:
            labels = np.asarray(teacher_labels, dtype=np.int64)[:, : T - 1]
            onehot = Tensor(np.eye(self.cfg.state_classes)[labels])
        prev_pose = Tensor(np.asarray(teacher_pose_norm, dtype=np.float64)[:, : T - 1])
        return self._decode_rows(cond, [], 0, prev_pose, onehot)

    def forward_teacher(self, x_n_norm, y_norm, n, teacher_pose_norm, teacher_labels):
        """Teacher-forced pass for training.

        ``teacher_pose_norm`` (B,T,D) is the clean motion in normalized
        coordinates; ``teacher_labels`` (B,T) int states. Returns
        (x_hat (B,T,D), state_logits (B,T,S)) tensors with graph.
        """
        cond = self.encode(x_n_norm, y_norm, n)
        return self.decode_teacher(cond, teacher_pose_norm, teacher_labels)

    def forward_free(self, x_n_norm, y_norm, n, rng: RandomStream | None = None,
                     total_steps: int | None = None, y_code: Tensor | None = None):
        """Sequential inference pass feeding back its own pose/state predictions.

        With rng=None state feedback uses the argmax one-hot (deterministic);
        otherwise hard Gumbel-Softmax samples. Each frame runs one decoder row
        against cached keys/values (see the module docstring); the result
        equals a causal re-decode of every prefix. ``y_code`` is as in
        ``encode``. Returns (x_hat, state_logits).
        """
        cond = self.encode(x_n_norm, y_norm, n, total_steps, y_code)
        cache: list = []
        pose = state = None
        poses: list[Tensor] = []
        logits_seq: list[Tensor] = []
        for t in range(cond[0].shape[1]):
            pose, logit = self._decode_rows(cond, cache, t, pose, state)
            poses.append(pose)
            logits_seq.append(logit)
            if self.state_feedback:
                state = sample_state(logit, self.cfg.gumbel_tau, rng, hard=True)
        return tz.concatenate(poses, axis=1), tz.concatenate(logits_seq, axis=1)
