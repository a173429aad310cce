import weakref
from dataclasses import replace

import numpy as np
import pytest

from handrift import denoiser
from handrift import tensor as tz
from handrift.config import default_config, denoiser_config_from
from handrift.denoiser import Denoiser, DenoiserConfig, sample_state
from handrift.errors import ConfigError, NumericalError, ShapeError
from handrift.hand import build_hand_model
from handrift.motion import FRAME_DIM, Normalizer
from handrift.optim import AdamW
from handrift.physics import STATE_COUNT
from handrift.rng import RandomStream
from handrift.tensor import Tensor, backward, trace

TOY = DenoiserConfig(layers=1, heads=2, width=16, mesh_widths=(4, 6), step_features=8,
                     ffn_multiplier=2)


@pytest.fixture(scope="module")
def hand_model():
    return build_hand_model()


@pytest.fixture(scope="module")
def normalizer():
    mean = np.zeros(FRAME_DIM)
    std = np.ones(FRAME_DIM)
    std[58:61] = 50.0
    return Normalizer(mean, std)


@pytest.fixture()
def toy(hand_model, normalizer):
    return Denoiser(TOY, hand_model, normalizer, seed=3, total_steps=4)


def random_batch(rng, B=1, T=4):
    x = rng.normal(size=(B, T, FRAME_DIM)) * 0.3
    y = x + rng.normal(size=(B, T, FRAME_DIM)) * 0.2
    return x, y


def test_config_validation():
    with pytest.raises(ConfigError):
        DenoiserConfig(width=30, heads=4).validate()
    desk, paper = (denoiser_config_from(default_config(p)) for p in ("desk", "paper"))
    desk.validate()
    paper.validate()
    assert paper.width == 512 and paper.mesh_widths == (32, 64, 64, 64)


def test_desk_parameter_budget():
    shapes = denoiser.param_shapes(denoiser_config_from(default_config("desk")))
    assert sum(int(np.prod(shape)) for shape in shapes.values()) < 500_000


def test_encode_meshes_permutation_equivariance(toy, hand_model):
    rng = np.random.default_rng(1)
    mesh = rng.normal(size=(1, hand_model.vertex_count, 3)) * 20
    base = toy.encode_meshes(mesh).data
    perm = rng.permutation(hand_model.vertex_count)
    adj = toy.adjacency
    toy.adjacency = adj[np.ix_(perm, perm)]
    permuted = toy.encode_meshes(mesh[:, perm]).data
    toy.adjacency = adj
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_mesh_code_does_not_depend_on_its_batch(toy, hand_model):
    """Each mesh is convolved on its own: its code is bitwise the same alone and
    inside a larger batch, on the autodiff and the plain path alike."""
    meshes = np.random.default_rng(9).normal(size=(6, hand_model.vertex_count, 3)) * 20
    frozen = toy.frozen()
    batch = toy.encode_meshes(meshes).data
    np.testing.assert_array_equal(frozen.encode_meshes(meshes), batch)
    for i in range(len(meshes)):
        np.testing.assert_array_equal(toy.encode_meshes(meshes[i : i + 1]).data[0], batch[i])
        np.testing.assert_array_equal(frozen.encode_meshes(meshes[i : i + 1])[0], batch[i])


@pytest.mark.parametrize("count", [1, 31, 32, 33, 240])
def test_blocked_mesh_encoder_equals_one_pass(toy, hand_model, monkeypatch, count):
    """Both paths encode meshes in blocks of MESH_BLOCK: bitwise the codes of one pass
    over all of them, on the gradient-free copy and the Tensor path alike."""
    meshes = np.random.default_rng(count).normal(size=(count, hand_model.vertex_count, 3)) * 20
    frozen = toy.frozen()
    blocked = frozen.encode_meshes(meshes)
    np.testing.assert_array_equal(blocked, toy.encode_meshes(meshes).data)
    monkeypatch.setattr(denoiser, "MESH_BLOCK", count)
    np.testing.assert_array_equal(blocked, frozen.encode_meshes(meshes))
    np.testing.assert_array_equal(blocked, toy.encode_meshes(meshes).data)


def test_blocked_mesh_encoder_weight_gradients_equal_one_pass(toy, hand_model, monkeypatch):
    """Blocks sum the mesh weights' gradients block by block: within 1e-12, relative to
    the largest entry, of the gradients of one pass over all the meshes."""
    rng = np.random.default_rng(43)
    meshes = rng.normal(size=(100, hand_model.vertex_count, 3)) * 20
    weights = Tensor(rng.normal(size=(100, TOY.mesh_widths[-1])))
    mesh_params = {k: p for k, p in toy.params.items() if k.startswith("mesh.")}

    def gradients():
        for p in mesh_params.values():
            p.zero_grad()
        backward(tz.tsum(toy.encode_meshes(meshes) * weights))
        return {k: p.grad for k, p in mesh_params.items()}

    blocked = gradients()
    monkeypatch.setattr(denoiser, "MESH_BLOCK", len(meshes))
    for name, ref in gradients().items():
        assert np.abs(blocked[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_tensor_mesh_encoder_keeps_only_one_node_per_block(toy, hand_model, monkeypatch):
    """A Tensor ``encode_meshes`` of 100 meshes builds one node per MESH_BLOCK block,
    each linked to the mesh weights and biases alone, and none of the (M,V,C) layer
    arrays its forward or its backward makes stays reachable once that pass returns."""
    made = []
    layers = tz._graph_conv_layers

    def recorded(*args):
        for ah, out in layers(*args):
            made.extend((weakref.ref(ah), weakref.ref(out)))
            yield ah, out

    monkeypatch.setattr(tz, "_graph_conv_layers", recorded)
    meshes = np.random.default_rng(53).normal(size=(100, hand_model.vertex_count, 3)) * 20
    codes = toy.encode_meshes(meshes)
    blocks = [node for node in trace(codes) if node._parents and node is not codes]
    mesh_params = {id(p) for k, p in toy.params.items() if k.startswith("mesh.")}
    assert len(blocks) == 4 and all({id(p) for p in node._parents} == mesh_params for node in blocks)
    assert len(made) == 2 * 4 * len(TOY.mesh_widths) and all(ref() is None for ref in made)
    del blocks
    backward(tz.tsum(codes))
    assert len(made) == 4 * 4 * len(TOY.mesh_widths) and all(ref() is None for ref in made)


def test_weight_gradients_do_not_depend_on_gradient_layout(hand_model, normalizer, monkeypatch):
    """A full-length slice of the cross-attention keys and values hands their
    projections a C-ordered gradient where the head split hands a strided one; every
    teacher-forced parameter gradient is bitwise the same either way."""
    den = Denoiser(denoiser_config_from(default_config("desk")), hand_model, normalizer,
                   seed=5, total_steps=4)
    rng = np.random.default_rng(47)
    x, y = random_batch(rng, B=4, T=16)
    x_n = x + rng.normal(size=x.shape) * 0.2
    labels = rng.integers(0, STATE_COUNT, size=(4, 16))

    def gradients():
        for p in den.params.values():
            p.zero_grad()
        x_hat, logits = den.decode_teacher(den.encode(x_n, y, 3), x, labels)
        diff = x_hat - Tensor(x)
        backward(tz.tmean(diff * diff) + tz.tmean(logits * logits))
        return {k: p.grad for k, p in den.params.items()}

    reference = gradients()
    heads = Denoiser._heads

    def sliced_heads(self, proj, x):
        out = heads(self, proj, x)
        return out[:, :, : x.shape[1]] if proj.endswith((".cross.k", ".cross.v")) else out

    monkeypatch.setattr(Denoiser, "_heads", sliced_heads)
    got = gradients()
    assert len(reference) == 112 and all(g is not None for g in reference.values())
    for name, ref in reference.items():
        np.testing.assert_array_equal(got[name], ref, err_msg=name)


def test_encode_meshes_zero_weights_zero_embedding(toy, hand_model):
    for k, p in toy.params.items():
        if k.startswith("mesh."):
            p.data[:] = 0.0
    out = toy.encode_meshes(np.ones((2, hand_model.vertex_count, 3)))
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_encode_meshes_vertex_count_check(toy):
    with pytest.raises(ShapeError):
        toy.encode_meshes(np.zeros((1, 7, 3)))


def test_embed_step_deterministic_and_distinct(toy):
    a = toy.embed_step(2, 4).data
    b = toy.embed_step(2, 4).data
    c = toy.embed_step(3, 4).data
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0.0


def test_embed_step_zero_weights_zero_output(toy):
    for k, p in toy.params.items():
        if k.startswith("step."):
            p.data[:] = 0.0
    np.testing.assert_array_equal(toy.embed_step(1, 4).data, np.zeros((1, TOY.width)))


def test_embed_step_range_check(toy):
    with pytest.raises(ConfigError):
        toy.embed_step(0, 4)
    with pytest.raises(ConfigError):
        toy.embed_step(5, 4)


def test_forward_shapes(toy):
    rng = np.random.default_rng(2)
    x, y = random_batch(rng, B=2, T=5)
    labels = rng.integers(0, 5, size=(2, 5))
    x_hat, logits = toy.decode_teacher(toy.encode(y, y, 2), x, labels)
    assert x_hat.shape == (2, 5, FRAME_DIM)
    assert logits.shape == (2, 5, STATE_COUNT)
    x_hat2, logits2 = toy.forward_free(y, y, 2)
    assert x_hat2.shape == (2, 5, FRAME_DIM)
    assert logits2.shape == (2, 5, STATE_COUNT)


def prefix_recompute_free(den, x_n_norm, y_norm, n, rng=None):
    """Reference free-running decode: a teacher-forced re-decode of the whole prefix at
    every frame, fed back with the prefix's own poses and the argmax labels of its
    Gumbel-sampled states."""
    B, T, _ = x_n_norm.shape
    memory, step_emb, obs_tokens, pe = den.encode(x_n_norm, y_norm, n)
    poses = np.zeros((B, 0, FRAME_DIM))
    labels = np.zeros((B, 0), dtype=np.int64)
    logits_seq = []
    for t in range(1, T + 1):
        cond = (memory[:, :t], step_emb, obs_tokens[:, :t], pe[:t])
        pose, logits = den.decode_teacher(cond, poses, labels)
        logit_t = logits.data[:, t - 1 : t]
        state = sample_state(logit_t, rng)
        poses = np.concatenate([poses, pose.data[:, t - 1 : t]], axis=1)
        labels = np.concatenate([labels, np.argmax(state, axis=-1)], axis=1)
        logits_seq.append(logit_t)
    return Tensor(poses), Tensor(np.concatenate(logits_seq, axis=1))


def row_loop_free(den, x_n_norm, y_norm, n, rng=None):
    """Reference free-running decode: the per-row loop the row step replaced. Each
    frame runs one (B,1,W) row through the denoiser's own building blocks, one
    projection per weight, against self-attention keys/values that grow by
    concatenation and cross-attention keys/values projected once."""
    cfg = den.cfg
    memory, step_emb, obs_tokens, pe = den.encode(x_n_norm, y_norm, n)
    B, T = memory.shape[:2]
    cache = [[den._heads(f"dec.{i}.cross.k", memory), den._heads(f"dec.{i}.cross.v", memory),
              None, None] for i in range(cfg.layers)]
    pose = state = None
    poses, logits_seq = [], []
    for t in range(T):
        if t == 0:
            u = den.params["start"].reshape((1, 1, cfg.width)) + np.zeros((B, 1, cfg.width))
        else:
            fed_state = np.zeros(pose.shape[:2] + (STATE_COUNT,)) if state is None else state
            u = den._lin("dec_in", pose) + den.ops.matmul(fed_state, den.params["state_emb"])
        h = u + obs_tokens[:, t : t + 1] + pe[t : t + 1] + step_emb.reshape((B, 1, cfg.width))
        for i, layer in enumerate(cache):
            cross_k, cross_v, self_k, self_v = layer
            hn = den._ln(f"dec.{i}.ln1", h)
            q = den._heads(f"dec.{i}.self.q", hn)
            k = den._heads(f"dec.{i}.self.k", hn)
            v = den._heads(f"dec.{i}.self.v", hn)
            if self_k is not None:
                k = den.ops.concatenate([self_k, k], axis=2)
                v = den.ops.concatenate([self_v, v], axis=2)
            layer[2:] = k, v
            h = h + den._mix(f"dec.{i}.self", q, k, v, None, f"decoder layer {i} self")
            q = den._heads(f"dec.{i}.cross.q", den._ln(f"dec.{i}.ln2", h))
            h = h + den._mix(f"dec.{i}.cross", q, cross_k[:, :, : t + 1], cross_v[:, :, : t + 1],
                             None, f"decoder layer {i} cross")
            h = h + den._ffn(f"dec.{i}.ffn", den._ln(f"dec.{i}.ln3", h))
        h = den._ln("dec_ln", h)
        pose, logit = den._lin("head_pose", h), den._lin("head_state", h)
        poses.append(pose)
        logits_seq.append(logit)
        if den.state_feedback:
            state = sample_state(logit, rng)
    return np.concatenate(poses, axis=1), np.concatenate(logits_seq, axis=1)


@pytest.mark.parametrize("B", [1, 3, 15])
@pytest.mark.parametrize("mode", ["deterministic", "stochastic", "no-state-feedback"])
def test_row_step_matches_per_row_loop(toy, mode, B):
    """The row step (one GEMM per fused projection over all windows, a preallocated
    key/value cache) gives the per-row loop's values up to rounding, and the same
    state labels. The tolerance, 1e-10 in normalized units, bounds the
    GEMM-versus-GEMV and folding differences with room to spare: they are about 1e-15."""
    rng = np.random.default_rng(20 + B)
    x, y = random_batch(rng, B=B, T=16)
    x_n = x + rng.normal(size=x.shape) * 0.2
    for p in toy.params.values():  # larger weights so states and poses vary per frame
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3
    toy.state_feedback = mode != "no-state-feedback"
    frozen = toy.frozen()

    def stream():
        return RandomStream(6, "row-step-gumbel") if mode == "stochastic" else None

    ref_pose, ref_logits = row_loop_free(frozen, x_n, y, 3, rng=stream())
    pose, logits = frozen.forward_free(x_n, y, 3, rng=stream())
    labels = np.argmax(ref_logits, -1)
    assert np.unique(labels).size > 1 and np.ptp(labels, axis=1).max() > 0  # the states vary
    np.testing.assert_allclose(pose, ref_pose, rtol=0, atol=1e-10)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(np.argmax(logits, -1), labels)


@pytest.mark.parametrize("name, value, where", [("dec.0.self.o.b", np.nan, "decoder layer 0 self"),
                                                ("dec.1.ffn.1.b", np.inf, "decoder layer 1"),
                                                ("head_pose.b", np.nan, "pose head")])
def test_row_step_names_the_layer_that_goes_non_finite(hand_model, normalizer, name, value, where):
    cfg = DenoiserConfig(layers=2, heads=2, width=16, mesh_widths=(4, 6), step_features=8,
                         ffn_multiplier=2)
    den = Denoiser(cfg, hand_model, normalizer, seed=3, total_steps=4)
    den.params[name].data[0] = value
    _, y = random_batch(np.random.default_rng(24), B=2, T=5)
    for model in (den, den.frozen()):
        with pytest.raises(NumericalError, match=f"in {where}$"):
            model.forward_free(y, y, 2)


def test_row_step_reads_live_weights_and_mutates_no_model_state(toy):
    """The fused weights are built from the live params at every call: an in-place
    AdamW step shows through. A call adds no attribute and changes no parameter."""
    rng = np.random.default_rng(25)
    x, y = random_batch(rng, B=2, T=6)
    frozen = toy.frozen()
    attrs = {id(m): dict(vars(m)) for m in (toy, frozen)}
    params = {k: p.data.copy() for k, p in toy.params.items()}
    before = toy.forward_free(y, y, 2)
    np.testing.assert_array_equal(frozen.forward_free(y, y, 2)[0], before[0])
    for m in (toy, frozen):
        assert vars(m).keys() == attrs[id(m)].keys()
        assert all(vars(m)[k] is v for k, v in attrs[id(m)].items())
    for k, p in toy.params.items():
        np.testing.assert_array_equal(p.data, params[k])
        assert frozen.params[k] is p.data

    x_hat, _ = toy.decode_teacher(toy.encode(y, y, 2), x, None)
    backward(tz.tsum(x_hat * x_hat))
    AdamW(toy.params, lr=1e-2).step()
    after = toy.forward_free(y, y, 2)
    assert np.abs(after[0] - before[0]).max() > 1e-6
    ref_pose, _ = row_loop_free(toy.frozen(), y, y, 2)
    np.testing.assert_allclose(after[0], ref_pose, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(frozen.forward_free(y, y, 2)[0], after[0])


@pytest.mark.parametrize("seeded", [False, True])
def test_cached_free_decode_matches_prefix_recompute(toy, seeded):
    rng = np.random.default_rng(11)
    x, y = random_batch(rng, B=3, T=16)
    x_n = x + rng.normal(size=x.shape) * 0.2
    for p in toy.params.values():  # larger weights so states and poses vary per frame
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3

    def stream():
        return RandomStream(4, "oracle-gumbel") if seeded else None

    ref_pose, ref_logits = prefix_recompute_free(toy, x_n, y, 3, rng=stream())
    pose, logits = toy.forward_free(x_n, y, 3, rng=stream())
    assert np.ptp(np.argmax(ref_logits.data, -1), axis=1).min() > 0  # fed-back states vary
    np.testing.assert_allclose(pose, ref_pose.data, rtol=0, atol=1e-10)
    np.testing.assert_allclose(logits, ref_logits.data, rtol=0, atol=1e-10)


@pytest.mark.parametrize("cfg", [replace(TOY, layers=0), replace(TOY, width=32)],
                         ids=["no-layers", "width32-2heads"])
def test_row_step_on_edge_configs_matches_prefix_recompute(hand_model, normalizer, cfg):
    den = Denoiser(cfg, hand_model, normalizer, seed=3, total_steps=4)
    rng = np.random.default_rng(11)
    x, y = random_batch(rng, B=3, T=16)
    x_n = x + rng.normal(size=x.shape) * 0.2
    for p in den.params.values():
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3
    ref_pose, ref_logits = prefix_recompute_free(den, x_n, y, 3)
    pose, logits = den.forward_free(x_n, y, 3)
    np.testing.assert_allclose(pose, ref_pose.data, rtol=0, atol=1e-10)
    np.testing.assert_allclose(logits, ref_logits.data, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seeded", [False, True])
def test_forward_free_with_condition_codes_is_bitwise_equal(toy, seeded):
    """y's codes from encode_condition stand in for encoding y's meshes inside the pass."""
    rng = np.random.default_rng(12)
    x, y = random_batch(rng, B=3, T=8)
    x_n = x + rng.normal(size=x.shape) * 0.2
    for p in toy.params.values():
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3

    def stream():
        return RandomStream(4, "cond-gumbel") if seeded else None

    y_code = toy.encode_condition(y)
    ref_pose, ref_logits = toy.forward_free(x_n, y, 3, rng=stream())
    pose, logits = toy.forward_free(x_n, y, 3, rng=stream(), y_code=y_code)
    assert y_code.shape == (3 * 8, TOY.mesh_widths[-1])
    np.testing.assert_array_equal(pose, ref_pose)
    np.testing.assert_array_equal(logits, ref_logits)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("mode", ["deterministic", "stochastic", "no-state-feedback"])
def test_frozen_copy_matches_tensor_path_bitwise(toy, mode, B):
    """Every pass of the plain-numpy copy gives bitwise the Tensor path's values. The
    free-running passes have one implementation: a Tensor-ops denoiser runs them on
    its frozen view and returns arrays."""
    rng = np.random.default_rng(13)
    x, y = random_batch(rng, B=B, T=16)
    x_n = x + rng.normal(size=x.shape) * 0.2
    labels = rng.integers(0, STATE_COUNT, size=(B, 16))
    for p in toy.params.values():  # larger weights so states and poses vary per frame
        p.data[:] = p.data + rng.normal(size=p.data.shape) * 0.3
    toy.state_feedback = mode != "no-state-feedback"

    def stream():
        return RandomStream(4, "frozen-gumbel") if mode == "stochastic" else None

    def passes(den):
        y_code = den.encode_condition(y)
        cond = den.encode(x_n, y, 3)
        return (y_code, *cond,
                *den.forward_free(x_n, y, 3, rng=stream(), y_code=y_code),
                *den.forward_free(x_n, y, 3, rng=stream()),             # y encoded inside
                *den.forward_free(y, y, 4, rng=stream(), y_code=y_code),  # x^N is y itself
                *den.decode_teacher(cond, x, labels),
                *den.decode_teacher(cond, x, None))

    reference = passes(toy)
    frozen = passes(toy.frozen())
    assert np.unique(np.argmax(reference[6], -1)).size > 1  # the fed-back states vary
    assert len(frozen) == len(reference) == 15
    assert all(isinstance(ref, np.ndarray) for ref in reference[5:11])  # forward_free's
    for got, ref in zip(frozen, reference):
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, tz.value(ref))


def test_frozen_copy_shares_live_weights_and_leaves_the_denoiser_untouched(toy):
    params, adjacency = dict(toy.params), toy.adjacency
    frozen = toy.frozen()
    assert toy.ops is tz and frozen.ops is tz.plain
    assert toy.params == params and all(isinstance(p, Tensor) for p in toy.params.values())
    assert toy.adjacency is adjacency and isinstance(adjacency, np.ndarray)
    assert frozen.adjacency is adjacency  # a constant both paths share
    assert all(frozen.params[k] is p.data for k, p in toy.params.items())  # no weight copied

    rng = np.random.default_rng(14)
    x, y = random_batch(rng, B=2, T=5)
    before = frozen.forward_free(y, y, 2)[0]
    x_hat, _ = toy.decode_teacher(toy.encode(y, y, 2), x, None)
    backward(tz.tsum(x_hat * x_hat))
    AdamW(toy.params, lr=1e-2).step()  # updates each param's data in place
    after = frozen.forward_free(y, y, 2)[0]
    np.testing.assert_array_equal(after, toy.forward_free(y, y, 2)[0])
    assert np.abs(after - before).max() > 0


def test_causality_bitwise_under_future_perturbation(toy):
    rng = np.random.default_rng(3)
    x, y = random_batch(rng, B=1, T=6)
    base_pose, base_logits = toy.forward_free(y, y, 1)
    k = 3  # perturb frames k.. of both inputs
    y2 = y.copy()
    y2[:, k:] += 10.0
    pert_pose, pert_logits = toy.forward_free(y2, y2, 1)
    np.testing.assert_array_equal(base_pose[:, :k], pert_pose[:, :k])
    np.testing.assert_array_equal(base_logits[:, :k], pert_logits[:, :k])
    assert np.abs(base_pose[:, k:] - pert_pose[:, k:]).max() > 0


def test_teacher_forced_agrees_with_free_running_on_own_outputs(toy):
    # feed the free-running outputs back as teachers: positions must agree
    rng = np.random.default_rng(4)
    x, y = random_batch(rng, B=1, T=5)
    free_pose, free_logits = toy.forward_free(y, y, 2)
    labels = np.argmax(free_logits, axis=-1)
    tf_pose, tf_logits = toy.decode_teacher(toy.encode(y, y, 2), free_pose, labels)
    np.testing.assert_allclose(tf_pose.data, free_pose, atol=1e-10)
    np.testing.assert_allclose(tf_logits.data, free_logits, atol=1e-10)


def test_outputs_finite_for_bounded_weights(toy):
    rng = np.random.default_rng(5)
    for p in toy.params.values():
        p.data[:] = rng.uniform(-2.0, 2.0, size=p.data.shape)
    x, y = random_batch(rng, B=1, T=4)
    x_hat, logits = toy.forward_free(y * 3, y, 1)
    assert np.all(np.isfinite(x_hat)) and np.all(np.isfinite(logits))


def test_denoiser_gradient_matches_finite_differences(toy):
    rng = np.random.default_rng(6)
    x, y = random_batch(rng, B=1, T=4)
    labels = rng.integers(0, 5, size=(1, 4))
    x_n = x + rng.normal(size=x.shape) * 0.1

    def build():
        x_hat, _ = toy.decode_teacher(toy.encode(x_n, y, 3), x, labels)
        return tz.tsum(x_hat * x_hat)

    loss = build()
    backward(loss)
    stream = np.random.default_rng(7)
    names = sorted(toy.params)
    checked = 0
    for name in names:
        p = toy.params[name]
        if p.grad is None:
            continue
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in stream.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + 1e-5
            up = build().item()
            flat[i] = old - 1e-5
            down = build().item()
            flat[i] = old
            fd = (up - down) / 2e-5
            assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), name
            checked += 1
    assert checked >= 100


def test_sample_state_without_noise_is_the_argmax():
    logits = np.array([[0.2, 1.7, -0.4, 0.0, 0.9], [3.0, -1.0, 0.0, 0.5, 2.9]])
    out = sample_state(logits, rng=None)
    np.testing.assert_allclose(out, np.eye(5)[[1, 0]], atol=1e-15)


def test_sample_state_sums_to_one_and_hard_is_onehot():
    rng = RandomStream(0, "gumbel")
    logits = np.array([[0.5, -0.2, 0.0, 1.0, 0.3]] * 7)
    hard = sample_state(logits, rng=rng)
    np.testing.assert_allclose(hard.sum(axis=-1), np.ones(7), atol=1e-12)
    assert np.all(np.isin(np.round(hard, 12), [0.0, 1.0]))


def test_sample_state_uniform_logits_frequencies():
    rng = RandomStream(1, "gumbel-mc")
    draws = 100_000
    logits = np.zeros((draws, 5))
    hard = sample_state(logits, rng=rng)
    freq = hard.mean(axis=0)
    se = np.sqrt(0.2 * 0.8 / draws)
    np.testing.assert_allclose(freq, np.full(5, 0.2), atol=3 * se)

