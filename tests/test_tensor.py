import operator
import weakref

import numpy as np
import pytest

from handrift import tensor as tz
from handrift.checkpoint import load_checkpoint, save_checkpoint
from handrift.errors import ContractError, OptimizerError, ShapeError
from handrift.optim import AdamW
from handrift.rng import RandomStream
from handrift.tensor import Tensor, backward, trace


def finite_diff(f, x, i, eps=1e-5):
    """Central difference of scalar f at flat coordinate i of array x."""
    flat = x.reshape(-1)
    old = flat[i]
    flat[i] = old + eps
    up = f()
    flat[i] = old - eps
    down = f()
    flat[i] = old
    return (up - down) / (2 * eps)


def check_grad(build, x, coords=None, rtol=1e-4):
    """build() -> scalar Tensor reading x.data; compares backward vs FD."""
    x.grad = None
    loss = build()
    backward(loss)
    g = x.grad.copy()
    n = x.data.size
    coords = coords if coords is not None else range(n)
    for i in coords:
        fd = finite_diff(lambda: build().item(), x.data, i)
        got = g.reshape(-1)[i]
        assert got == pytest.approx(fd, rel=rtol, abs=1e-8), f"coord {i}: {got} vs {fd}"


def test_matmul_ones():
    out = tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))


def test_softmax_uniform():
    out = tz.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = tz.softmax(Tensor(rng.normal(size=(20, 7)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(20), atol=1e-12)


def test_hinge_values():
    out = tz.hinge(Tensor([-2.5, 2.5]))
    np.testing.assert_array_equal(out.data, [0.0, 2.5])


def test_layer_norm_zero_mean():
    rng = np.random.default_rng(5)
    out = tz.layer_norm(Tensor(rng.normal(size=(11, 9)) * 4 + 3))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


@pytest.mark.parametrize("op, fn", [(operator.add, tz.add), (operator.sub, tz.sub), (operator.mul, tz.mul),
                                    (operator.truediv, tz.div), (operator.matmul, tz.matmul)],
                         ids=["add", "sub", "mul", "div", "matmul"])
def test_ndarray_left_of_a_tensor_is_the_tensor_op(op, fn):
    """``ndarray (op) Tensor`` runs the Tensor's reflected operator with the operands in
    written order: a Tensor bitwise equal to ``fn(array, tensor)``, whose gradient reaches
    the tensor. So does a numpy scalar on the left."""
    rng = np.random.default_rng(8)
    arr, x, w = rng.normal(size=(3, 4, 4)) + 2.0
    cases = [(arr, fn)] + ([(np.float64(1.7), fn)] if op is operator.mul else [])
    for left, ref_fn in cases:
        t, t_ref = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, ref = op(left, t), ref_fn(left, t_ref)
        assert isinstance(out, Tensor) and out.requires_grad
        np.testing.assert_array_equal(out.data, ref.data)
        backward(tz.tsum(out * w))
        backward(tz.tsum(ref * w))
        assert np.abs(t.grad).max() > 0
        np.testing.assert_array_equal(t.grad, t_ref.grad)


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        tz.add(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("op, name", [(tz.add, "add"), (tz.sub, "sub"),
                                      (tz.mul, "multiply"), (tz.div, "divide")])
def test_elementwise_shape_error_names_op(op, name, grad):
    a = Tensor(np.ones((2, 3)), requires_grad=grad)
    b = Tensor(np.ones(4), requires_grad=grad)
    pattern = rf"^{name}: shapes \(2, 3\) and \(4,\) do not broadcast$"
    with pytest.raises(ShapeError, match=pattern):
        op(a, b)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(x * 2.0)


def test_backward_simple_analytic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = tz.tsum(x * x)
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_constant_wrt_leaf():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([5.0])
    loss = tz.tsum(c * c) + 0.0 * tz.tsum(x)
    backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def _two_layer_loss(x, w, interior):
    """sum(tanh(x @ w)^2), appending weakrefs to its interior arrays to ``interior``."""
    h = tz.tanh(tz.matmul(x, w))
    interior += [weakref.ref(h.data), weakref.ref(h._parents[0].data)]
    return tz.tsum(h * h)


def test_backward_consumes_the_graph_and_keeps_leaf_gradients():
    """Interior nodes end with no gradient, closure or parent links and are freed;
    leaves get the analytic gradients; the loss keeps its value."""
    rng = np.random.default_rng(37)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    interior = []
    loss = _two_layer_loss(x, w, interior)
    nodes = [n for n in trace(loss) if n._parents]
    assert len(nodes) == 4 and all(ref() is not None for ref in interior)
    value = loss.item()
    backward(loss)
    for node in nodes:
        assert node.grad is None and node._parents == () and node._backward is tz._SPENT
    del nodes
    assert all(ref() is None for ref in interior)
    assert loss.item() == value
    h = np.tanh(x.data @ w.data)
    gz = 2.0 * h * (1.0 - h * h)
    np.testing.assert_allclose(x.grad, gz @ w.data.T, rtol=1e-14)
    np.testing.assert_allclose(w.grad, x.data.T @ gz, rtol=1e-14)


def test_backward_through_a_spent_node_raises_before_any_gradient_flows():
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = tz.tanh(x)
    loss = tz.tsum(h)
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError, match="consumed"):
        backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        backward(tz.tsum(h * 2.0) + tz.tsum(x))
    np.testing.assert_array_equal(x.grad, first)


def test_trace_topological_and_leaves():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x * 2.0
    z = y + x
    nodes = trace(tz.tsum(z))
    seen = {id(n): i for i, n in enumerate(nodes)}
    for node in nodes:
        for p in node._parents:
            assert seen[id(p)] < seen[id(node)]
    assert [id(n) for n in nodes if n.requires_grad and not n._parents] == [id(x)]


def test_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def build():
        h = tz.tanh(tz.matmul(x, w))
        s = tz.softmax(h)
        a = tz.layer_norm(h) * 0.5 + tz.exp(h * 0.1)
        b = tz.log(tz.hinge(a) + 1.0) - tz.sin(h) * tz.cos(h)
        c = tz.concatenate([b, s], axis=1)
        d = tz.transpose(c)[1:5, :]
        return tz.tmean(d * d) + tz.tsum(tz.sqrt(tz.hinge(h) + 0.3))

    check_grad(build, x)
    x.zero_grad()
    check_grad(build, w)


def test_batched_matmul_broadcast_gradients():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def build():
        return tz.tsum(tz.tanh(tz.matmul(a, w)))

    check_grad(build, a, coords=range(0, 24, 5))
    a.zero_grad()
    check_grad(build, w)


def test_weight_gradient_matches_batched_and_summed_product():
    """A 2-D right operand's gradient is one GEMM over the flattened batch: within
    1e-12 (relative to its largest entry) of the per-sample products summed."""
    rng = np.random.default_rng(19)
    a = rng.normal(size=(8, 16, 64))
    g = rng.normal(size=(8, 16, 32))
    w = Tensor(rng.normal(size=(64, 32)), requires_grad=True)
    backward(tz.tsum(tz.matmul(Tensor(a), w) * Tensor(g)))
    ref = (np.swapaxes(a, -1, -2) @ g).sum(axis=0)
    assert np.abs(w.grad - ref).max() <= 1e-12 * np.abs(ref).max()


def graph_conv_operands(rng, meshes=3, vertices=5, widths=(2, 4, 3)):
    """(h, adjacency, weights, biases) of a stack with a non-symmetric adjacency, so a
    transpose slip shows."""
    return (rng.normal(size=(meshes, vertices, widths[0])),
            rng.uniform(size=(vertices, vertices)) / vertices,
            [rng.normal(size=io) for io in zip(widths, widths[1:])],
            [rng.normal(size=c) for c in widths[1:]])


def test_graph_conv_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    h, adjacency, weights, biases = graph_conv_operands(rng)
    weights = [Tensor(w, requires_grad=True) for w in weights]
    biases = [Tensor(b, requires_grad=True) for b in biases]
    pooled_weights = Tensor(rng.normal(size=(3, 3)))

    def build():
        return tz.tsum(tz.graph_conv_stack(h, adjacency, weights, biases) * pooled_weights)

    for leaf in weights + biases:
        check_grad(build, leaf)


def test_graph_conv_stack_is_the_composed_stack():
    """Forward bitwise equal to the tanh((adjacency @ h) @ w + b) layers and the vertex
    mean composed from ops, on both namespaces; gradients within 1e-12 of the composed
    graph's."""
    rng = np.random.default_rng(23)
    h, adjacency, weights, biases = graph_conv_operands(rng, meshes=4, vertices=7, widths=(3, 5, 6, 4))
    pooled_weights = Tensor(rng.normal(size=(4, 4)))

    def composed(h_, ws, bs):
        for w, b in zip(ws, bs):
            h_ = tz.tanh(tz.matmul(tz.matmul(adjacency, h_), w) + b)
        return tz.tmean(h_, axis=-2)

    def run(stack):
        ws = [Tensor(w, requires_grad=True) for w in weights]
        bs = [Tensor(b, requires_grad=True) for b in biases]
        out = stack(h, ws, bs)
        backward(tz.tsum(out * pooled_weights))
        return out.data, [leaf.grad for leaf in ws + bs]

    fused, fused_grads = run(lambda h_, ws, bs: tz.graph_conv_stack(h_, adjacency, ws, bs))
    reference, reference_grads = run(composed)
    np.testing.assert_array_equal(fused, reference)
    np.testing.assert_array_equal(tz.plain.graph_conv_stack(h, adjacency, weights, biases), fused)
    for got, ref in zip(fused_grads, reference_grads):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_graph_conv_vertex_pool_is_bitwise_the_vertex_mean(dtype):
    """The pooled codes are bitwise ``mean(axis=-2)`` of the last layer, in the float32
    refine view and in float64, on a 32-mesh block of the default mesh's size."""
    rng = np.random.default_rng(31)
    h, adjacency, weights, biases = graph_conv_operands(rng, meshes=32, vertices=98, widths=(3, 16, 32))
    h, adjacency = h.astype(dtype), adjacency.astype(dtype)
    weights, biases = [w.astype(dtype) for w in weights], [b.astype(dtype) for b in biases]
    last = []
    pooled = tz.plain.graph_conv_stack(h, adjacency, weights, biases,
                                       check=lambda out, i: last.append(out))
    assert pooled.dtype == dtype and pooled.shape == (32, 32)
    assert pooled.tobytes() == last[-1].mean(axis=-2).tobytes()


def test_graph_conv_stack_refuses_meshes_that_require_a_gradient():
    rng = np.random.default_rng(29)
    h, adjacency, weights, biases = graph_conv_operands(rng)
    with pytest.raises(ContractError, match="input meshes are a constant"):
        tz.graph_conv_stack(Tensor(h, requires_grad=True), adjacency,
                            [Tensor(w, requires_grad=True) for w in weights], biases)


def test_shared_first_gradient_survives_a_later_backward():
    """A first gradient is kept, not copied; accumulation rebinds, so a leaf that
    shares the array with another keeps its value when the other one adds."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    backward(tz.tsum(a + b))  # add hands the one gradient array to both leaves
    assert a.grad is b.grad
    before = b.grad.copy()
    backward(tz.tsum(a * 3.0))
    np.testing.assert_array_equal(a.grad, before + 3.0)
    np.testing.assert_array_equal(b.grad, before)


def test_getitem_scatter_gradient():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

    def build():
        return tz.tsum(x[1:4, ::2] * x[0:3, 1::2])

    check_grad(build, x)


def test_getitem_basic_key_gradient_equals_scatter_add():
    """A key of ints, slices, None and Ellipsis takes the assignment backward, with
    the gradient np.add.at gives."""
    rng = np.random.default_rng(19)
    keys = [(slice(1, 4), slice(None, None, 2)), 2, np.int64(-1), (Ellipsis, 1),
            (None, slice(0, 3), -1), (slice(None), None, slice(3, 0, -1))]
    for key in keys:
        assert tz._is_basic_index(key)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = x[key]
        g = rng.normal(size=out.shape)
        backward(tz.tsum(out * Tensor(g)))
        ref = np.zeros((5, 4))
        np.add.at(ref, key, g)
        np.testing.assert_array_equal(x.grad, ref)


def test_getitem_fancy_key_accumulates_repeated_index():
    for key in (np.array([1, 1, 3]), [1, 1, 3], (np.array([1, 3, 1]),)):
        assert not tz._is_basic_index(key)
        x = Tensor(np.arange(4.0), requires_grad=True)
        out = x[key]
        backward(tz.tsum(out * Tensor(out.data + 1.0)))
        np.testing.assert_array_equal(x.grad, [0.0, 4.0, 0.0, 4.0])


def _layer_norm_with_mean(x, eps=1e-8):
    """The layer norm written with ndarray.mean, as it was before its wrapper-free form."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv, inv


def test_hot_path_reductions_equal_numpy_wrapper_formulas():
    """layer_norm's forward and backward and softmax's forward are bitwise the
    ``.mean`` and ``np.max`` formulas they replace."""
    rng = np.random.default_rng(31)
    for shape in [(7,), (5, 64), (2, 3, 16, 9)]:
        x = rng.normal(size=shape) * 3 + 1
        g = rng.normal(size=shape)
        y, inv = _layer_norm_with_mean(x)
        np.testing.assert_array_equal(tz.plain.layer_norm(x), y)
        t = Tensor(x, requires_grad=True)
        out = tz.layer_norm(t)
        backward(tz.tsum(out * Tensor(g)))
        np.testing.assert_array_equal(out.data, y)
        gy = g * inv
        np.testing.assert_array_equal(
            t.grad, gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
        masked = x.copy()
        masked[..., 0] = -np.inf  # an attention mask's blocked entry
        for logits in (x, masked):
            e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
            np.testing.assert_array_equal(tz.plain.softmax(logits), e / e.sum(axis=-1, keepdims=True))


def test_where_selects_gradient_branch():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    mask = np.array([True, False, True])
    loss = tz.tsum(tz.where(mask, x * 2.0, x * 10.0))
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 10.0, 2.0])


_MASK = np.array([[True, False, True]])
_ADJACENCY = np.random.default_rng(3).uniform(size=(4, 4))
_MESHES = np.random.default_rng(4).normal(size=(2, 4, 3))
BINARY_OPS = {  # name -> (op, first operand's shape, second operand's shape)
    "matmul": (tz.matmul, (2, 4, 3), (3, 5)),
    "graph_conv_stack": (lambda w0, w1: tz.graph_conv_stack(_MESHES, _ADJACENCY, [w0, w1],
                                                            [np.zeros(5), np.zeros(2)]), (3, 5), (5, 2)),
    "add": (tz.add, (2, 3), (1, 3)),
    "sub": (tz.sub, (2, 3), (3,)),
    "mul": (tz.mul, (2, 3), (1, 3)),
    "div": (tz.div, (2, 3), (2, 1)),
    "where": (lambda a, b: tz.where(_MASK, a, b), (2, 3), (1, 3)),
    "concatenate": (lambda a, b: tz.concatenate([a, b], axis=0), (2, 3), (1, 3)),
}


@pytest.mark.parametrize("live", [0, 1], ids=["first-live", "second-live"])
@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_backward_skips_constant_operand(name, live, monkeypatch):
    """The live operand's gradient is bitwise the same whether or not the other operand
    requires one; a constant operand is handed no gradient and gets no ``.grad``."""
    op, *shapes = BINARY_OPS[name]
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=shapes[0]), rng.uniform(0.5, 2.0, size=shapes[1])]
    weights = rng.normal(size=op(*arrays).shape)
    accumulate = tz._accum

    def run(other_requires_grad):
        operands = [Tensor(a, requires_grad=i == live or other_requires_grad)
                    for i, a in enumerate(arrays)]
        handed = []
        monkeypatch.setattr(tz, "_accum", lambda t, g: (handed.append(t), accumulate(t, g)))
        backward(tz.tsum(op(*operands) * Tensor(weights)))
        monkeypatch.setattr(tz, "_accum", accumulate)
        return operands, handed

    both, _ = run(True)
    operands, handed = run(False)
    constant = operands[1 - live]
    np.testing.assert_array_equal(operands[live].grad, both[live].grad)
    assert both[1 - live].grad is not None
    assert constant.grad is None
    assert not any(t is constant for t in handed)


BUILT_OPS = {  # name -> (op, operand shapes, whether its inputs must be positive)
    "add": (tz.add, [(2, 3), (1, 3)], False),
    "sub": (tz.sub, [(3,), (2, 3)], False),
    "mul": (tz.mul, [(2, 1, 3), (4, 1)], False),
    "div": (tz.div, [(2, 1, 3), (4, 1)], False),
    "where": (lambda a, b: tz.where(_MASK, a, b), [(2, 3), (3,)], False),
    "neg": (tz.neg, [(2, 3)], False),
    "sqrt": (tz.sqrt, [(2, 3)], True),
    "exp": (tz.exp, [(2, 3)], False),
    "log": (tz.log, [(2, 3)], True),
    "tanh": (tz.tanh, [(2, 3)], False),
    "sin": (tz.sin, [(2, 3)], False),
    "cos": (tz.cos, [(2, 3)], False),
    "hinge": (tz.hinge, [(2, 3)], False),
}


@pytest.mark.parametrize("name, operand", [
    pytest.param(name, i, id=f"{name}-{i}") for name, (_, shapes, _) in BUILT_OPS.items()
    for i in range(len(shapes))])
def test_elementwise_gradients_match_finite_differences(name, operand):
    """Each elementwise op's gradient in each operand, summed back over broadcast axes, is
    the central difference of a weighted sum of its output. Inputs lie 0.5-2 away from
    0 (with random signs unless the op needs positive ones), clear of hinge's kink."""
    op, shapes, positive = BUILT_OPS[name]
    rng = np.random.default_rng(29)
    arrays = [rng.uniform(0.5, 2.0, size=s) * (1.0 if positive else rng.choice([-1.0, 1.0], size=s))
              for s in shapes]
    operands = [Tensor(a, requires_grad=i == operand) for i, a in enumerate(arrays)]
    weights = rng.normal(size=op(*arrays).shape)
    check_grad(lambda: tz.tsum(op(*operands) * weights), operands[operand])


def test_ops_on_constants_record_no_graph():
    x = Tensor(np.ones((2, 3)))
    y = tz.tanh(x * 3.0) @ Tensor(np.ones((3, 2)))
    assert y._backward is None and y._parents == () and not y.requires_grad


def test_determinism_bitwise():
    def run():
        rng = RandomStream(99, "det")
        x = Tensor(rng.normal((6, 6)), requires_grad=True)
        loss = tz.tsum(tz.softmax(tz.matmul(x, x)) * tz.tanh(x))
        backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_zero_decay_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_matches_hand_unrolled_sequence():
    # independent oracle: unroll the bias-corrected update by hand
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
    grads = [0.3, -0.7, 0.2]
    theta, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        theta = theta - lr * (mh / (np.sqrt(vh) + eps) + wd * theta)

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    assert p.data[0] == pytest.approx(theta, rel=1e-12)


def _adamw_step_with_temporaries(p, g, m, v, t, lr, b1, b2, eps, wd):
    """One parameter's update with its moments updated in place: a reference written apart
    from AdamW.step's expressions."""
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)


def test_adamw_in_place_step_is_bitwise_the_expression():
    rng = np.random.default_rng(41)
    shapes = {"w": (6, 5), "b": (5,), "s": (3, 2, 4)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = AdamW(params, lr=3e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.1,
                lr_decay_factor=0.5, lr_decay_epochs=2)
    for t in range(1, 7):
        opt.set_epoch(t - 1)
        grads = {k: rng.normal(size=s) * 10.0 ** (t - 3) for k, s in shapes.items()}
        if t == 3:
            grads["b"] = None  # a parameter no gradient reached is left alone
        for k, p in params.items():
            p.grad = grads[k]
        opt.step()
        for k in shapes:
            if grads[k] is not None:
                _adamw_step_with_temporaries(ref[k], grads[k], m[k], v[k], t, opt.lr, 0.9, 0.999, 1e-8, 0.1)
            np.testing.assert_array_equal(params[k].data, ref[k])


def test_adamw_lr_decay_schedule():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-4, lr_decay_factor=0.8, lr_decay_epochs=5)
    opt.set_epoch(4)
    assert opt.lr == pytest.approx(1e-4)
    opt.set_epoch(5)
    assert opt.lr == pytest.approx(0.8e-4)
    opt.set_epoch(10)
    assert opt.lr == pytest.approx(0.64e-4)


def test_adamw_rejects_nonfinite_gradient():
    """A refused step names the parameter and leaves every parameter, moment and the
    step count as they were, also those of a parameter checked before it."""
    good = Tensor(np.ones(2), requires_grad=True, name="w.good")
    bad = Tensor(np.zeros(2), requires_grad=True, name="w.bad")
    opt = AdamW({"w.good": good, "w.bad": bad}, lr=0.1)
    good.grad, bad.grad = np.array([0.5, -1.0]), np.array([1.0, 2.0])
    opt.step()
    before = [a.copy() for a in (good.data, bad.data, *opt.m.values(), *opt.v.values())]
    good.grad, bad.grad = np.array([0.5, -1.0]), np.array([1.0, np.nan])
    with pytest.raises(OptimizerError, match="w.bad"):
        opt.step()
    after = (good.data, bad.data, *opt.m.values(), *opt.v.values())
    for got, ref in zip(after, before):
        np.testing.assert_array_equal(got, ref)
    assert opt.step_count == 1


# ---------------------------------------------------------------------------
# rng + checkpoint


def test_random_stream_replay_and_split():
    a = RandomStream(5, "x").normal((4,))
    b = RandomStream(5, "x").normal((4,))
    c = RandomStream(5, "y").normal((4,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    d1 = RandomStream(5, "x").split("sub").normal((4,))
    d2 = RandomStream(5, "x/sub").normal((4,))
    np.testing.assert_array_equal(d1, d2)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(23)
    tensors = {
        "a.w": rng.normal(size=(7, 3)),
        "b": rng.normal(size=(11,)),
        "scalar": np.array(3.25),
    }
    p1 = tmp_path / "one.ckpt"
    p2 = tmp_path / "two.ckpt"
    save_checkpoint(p1, tensors, seed=42, config_hash="deadbeef", extra={"k": [1, 2]})
    manifest, loaded = load_checkpoint(p1)
    assert manifest["seed"] == 42 and manifest["config_hash"] == "deadbeef"
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
    save_checkpoint(p2, loaded, seed=manifest["seed"], config_hash=manifest["config_hash"],
                    extra=manifest["extra"])
    assert p1.read_bytes() == p2.read_bytes()
