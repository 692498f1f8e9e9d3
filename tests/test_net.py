import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from smmn import conv, mesh, net, spharm
from smmn.errors import (
    ConfigurationError, DomainError, ParseError, ShapeError, UsageError,
)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = net.ModelConfig(
        input_order=1,
        channels=(3,),
        in_channels=2,
        l_max=2,
        channel_names=("a", "b"),
        seed=7,
    )
    return net.MMNModel(cfg)


@pytest.fixture(scope="module")
def tiny_sample():
    rng = np.random.default_rng(1)
    return net.Sample(
        features=rng.standard_normal((2, 42)),
        context=net.ContextVector(age=63.0, sex=1.0),
        subject_id="t0",
    )


# -- masking -------------------------------------------------------------------


def test_sample_mask_counts():
    rng = np.random.default_rng(0)
    mask = net.sample_mask(42, 0.5, rng)
    assert len(mask) == 21
    assert len(np.unique(mask)) == 21
    assert mask.min() >= 0 and mask.max() < 42
    assert np.all(np.diff(mask) > 0)


def test_sample_mask_floor_of_one():
    rng = np.random.default_rng(0)
    assert len(net.sample_mask(42, 0.001, rng)) == 1


def test_sample_mask_seeded_determinism():
    a = net.sample_mask(100, 0.3, np.random.default_rng(9))
    b = net.sample_mask(100, 0.3, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_sample_mask_fraction_guard():
    with pytest.raises(UsageError):
        net.sample_mask(42, 0.0, np.random.default_rng(0))
    with pytest.raises(UsageError):
        net.sample_mask(42, 1.0, np.random.default_rng(0))


def test_apply_mask_empty_is_identity(tiny_model):
    x = np.arange(10.0).reshape(1, 2, 5)
    xb, mask_matrix = net.masked_batch(tiny_model, x, [np.array([], dtype=int)])
    np.testing.assert_array_equal(xb, x)
    assert not mask_matrix.any()


def test_apply_mask_full_replaces_everything(tiny_model):
    x = np.arange(10.0).reshape(1, 2, 5)
    token = tiny_model.params["mask_token"]
    xb, mask_matrix = net.masked_batch(tiny_model, x, [np.arange(5)])
    np.testing.assert_array_equal(xb[0], np.tile(token[:, None], (1, 5)))
    assert mask_matrix.all()


def test_apply_mask_single_column(tiny_model):
    x = np.arange(20.0).reshape(2, 2, 5)
    xb, mask_matrix = net.masked_batch(tiny_model, x, [np.array([3]), np.array([0])])
    np.testing.assert_array_equal(xb[0][:, 3], tiny_model.params["mask_token"])
    np.testing.assert_array_equal(
        np.delete(xb[0], 3, axis=1), np.delete(x[0], 3, axis=1)
    )
    np.testing.assert_array_equal(xb[1][:, 1:], x[1][:, 1:])
    np.testing.assert_array_equal(mask_matrix, [[0, 0, 0, 1, 0], [1, 0, 0, 0, 0]])
    assert x[0, 0, 3] == 3.0  # the input is left untouched


# -- loss ------------------------------------------------------------------------


def test_loss_zero_for_perfect_reconstruction():
    x = np.random.default_rng(0).standard_normal((1, 2, 6))
    loss, grad = net.batch_loss_and_grad(x, x, [np.array([0, 3])])
    assert loss == 0.0
    assert not grad.any()


def test_loss_single_vertex():
    loss, _ = net.batch_loss_and_grad(
        np.array([[[2.0]]]), np.array([[[5.0]]]), [np.array([0])]
    )
    assert loss == 3.0


def test_loss_averages_over_mask():
    xhat = np.array([[[1.0, 0.0, 4.0]]])
    x = np.array([[[0.0, 0.0, 1.0]]])
    # deviations 1 and 3 on the two masked vertices -> mean 2
    loss, grad = net.batch_loss_and_grad(xhat, x, [np.array([0, 2])])
    assert loss == 2.0
    np.testing.assert_array_equal(grad, [[[0.5, 0.0, 0.5]]])


# -- forward ---------------------------------------------------------------------


def test_forward_shape_contract(tiny_model, tiny_sample):
    x = conv.FeatureMap(tiny_sample.features, level=1)
    out = net.forward(tiny_model, x, tiny_sample.context)
    assert out.values.shape == x.values.shape
    assert out.level == 1


def test_forward_deterministic(tiny_model, tiny_sample):
    x = conv.FeatureMap(tiny_sample.features, level=1)
    a = net.forward(tiny_model, x, tiny_sample.context)
    b = net.forward(tiny_model, x, tiny_sample.context)
    np.testing.assert_array_equal(a.values, b.values)


def test_forward_tape_keeps_vertex_major_views(tiny_model):
    # Each block's entry is its saved input h and boolean pre-activation
    # sign, each a (B, C, N) view of a C-contiguous (N, B, C) buffer, so no
    # step has fallen back to a copy in another layout.  It keeps no facet
    # features, which the backward makes again; the linear last block
    # saves no sign.
    rng = np.random.default_rng(3)
    masks = [net.sample_mask(42, 0.5, rng) for _ in range(3)]
    xb, _ = net.masked_batch(tiny_model, rng.standard_normal((3, 2, 42)), masks)
    _, tape = net.forward_core(tiny_model, xb, rng.standard_normal((3, 2)),
                               record=True)
    blocks = [(step[2], saved) for step, saved in zip(tiny_model.config.plan(), tape)
              if step[0] == "block"]
    assert [len(saved) for _, saved in blocks] == [2, 2, 2, 2]
    assert [sign is None for _, (_, sign) in blocks] == [False, False, False, True]
    for order, (h, sign) in blocks:
        assert h.shape[2] == tiny_model.hierarchy.mesh(order).num_vertices
        assert sign is None or sign.dtype == bool
        for a in [h] + ([] if sign is None else [sign]):
            assert a.shape[0] == 3 and a.shape[1] > 1
            assert a.transpose(2, 0, 1).flags.c_contiguous


def test_forward_context_sensitivity(tiny_model, tiny_sample):
    # the context path must carry gradient even at random init
    x = conv.FeatureMap(tiny_sample.features, level=1)
    h = 1e-5
    up = net.forward(
        tiny_model, x, net.ContextVector(tiny_sample.context.age + h, 1.0)
    )
    down = net.forward(
        tiny_model, x, net.ContextVector(tiny_sample.context.age - h, 1.0)
    )
    sensitivity = np.abs(up.values - down.values).max() / (2 * h)
    assert sensitivity > 1e-6


def test_forward_shape_errors(tiny_model):
    with pytest.raises(ShapeError):
        net.forward(
            tiny_model,
            conv.FeatureMap(np.zeros((2, 12)), level=0),
            net.ContextVector(60.0, 1.0),
        )
    with pytest.raises(ShapeError):
        net.forward(
            tiny_model,
            conv.FeatureMap(np.zeros((1, 42)), level=1),
            net.ContextVector(60.0, 1.0),
        )


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        net.ModelConfig(input_order=1, channels=(4, 8), in_channels=1,
                        channel_names=("x",))  # two pools do not fit
    with pytest.raises(ConfigurationError):
        net.ModelConfig(input_order=2, channels=(), in_channels=1,
                        channel_names=("x",))


# -- gradients --------------------------------------------------------------------


def test_backward_matches_finite_differences(tiny_model, tiny_sample):
    rng = np.random.default_rng(5)
    mask = net.sample_mask(42, 0.5, rng)
    batch = [(tiny_sample, mask)]
    loss0, grads = net.backward(tiny_model, batch)
    assert loss0 > 0.0
    h = 1e-6
    worst = 0.0
    check_rng = np.random.default_rng(17)
    for name, arr in tiny_model.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        picks = check_rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in picks:
            old = flat[i]
            flat[i] = old + h
            up = net.backward(tiny_model, batch)[0]
            flat[i] = old - h
            down = net.backward(tiny_model, batch)[0]
            flat[i] = old
            fd = (up - down) / (2 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_token_gradient_zero_for_empty_mask(tiny_model, tiny_sample):
    loss, grads = net.backward(tiny_model, [(tiny_sample, np.array([], dtype=int))])
    assert loss == 0.0
    assert np.all(grads["mask_token"] == 0.0)


def test_backward_batch_order_invariance(tiny_model):
    rng = np.random.default_rng(11)
    batch = []
    for i in range(4):
        sample = net.Sample(
            features=rng.standard_normal((2, 42)),
            context=net.ContextVector(age=50.0 + i, sex=(-1.0) ** i),
        )
        batch.append((sample, net.sample_mask(42, 0.5, rng)))
    loss_a, grads_a = net.backward(tiny_model, batch)
    perm = [2, 0, 3, 1]
    loss_b, grads_b = net.backward(tiny_model, [batch[i] for i in perm])
    assert loss_a == loss_b
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name])


def test_backward_rejects_empty_batch(tiny_model):
    with pytest.raises(UsageError):
        net.backward(tiny_model, [])


def _recorded_step(model, batch, seed, start=lambda: None):
    """(tape, grad_out, mask_matrix) of one recorded forward on random
    data; ``start`` runs once the inputs are built."""
    rng = np.random.default_rng(seed)
    num_v, c_in = model.num_input_vertices, model.config.in_channels
    feats = rng.standard_normal((batch, c_in, num_v))
    masks = [net.sample_mask(num_v, 0.5, rng) for _ in range(batch)]
    xb, mask_matrix = net.masked_batch(model, feats, masks)
    ctxn = rng.standard_normal((batch, 2))
    start()
    xhat, tape = net.forward_core(model, xb, ctxn, record=True)
    return tape, net.batch_loss_and_grad(xhat, feats, masks)[1], mask_matrix


def test_backward_core_consumes_the_tape_and_returns_param_order(tiny_model):
    tape, grad_out, mask_matrix = _recorded_step(tiny_model, 2, 4)
    grads = net.backward_core(tiny_model, tape, grad_out, mask_matrix)
    assert tape == []
    assert list(grads) == tiny_model.param_names()
    for name, arr in tiny_model.params.items():
        assert grads[name].shape == arr.shape


@pytest.mark.parametrize("case", ["none", "short", "consumed"])
def test_backward_core_rejects_a_tape_that_does_not_match_the_plan(tiny_model,
                                                                  case):
    tape, grad_out, mask_matrix = _recorded_step(tiny_model, 2, 5)
    steps = len(tiny_model.config.plan())
    assert len(tape) == steps == 7
    got = {"none": "none", "short": steps - 1, "consumed": 0}[case]
    if case == "none":
        tape = None
    elif case == "short":
        tape = tape[1:]
    else:
        net.backward_core(tiny_model, tape, grad_out, mask_matrix)
    with pytest.raises(UsageError, match=f"tape of {steps} entries, got {got}$"):
        net.backward_core(tiny_model, tape, grad_out, mask_matrix)


def test_training_step_frees_the_tape_as_backward_consumes_it():
    # One order-4 forward and backward (widths 16,32, B = 4).  Holding the
    # whole tape with float64 pre-activations through the backward, beside
    # a zero gradient for every parameter, peaked at 1.77x the bytes of
    # such a tape (42.5 MiB); popping each entry as the backward uses it
    # and saving only the activation sign gave 1.43x (34.3 MiB).  The
    # bound now counts each block's input and pre-activation only: the
    # facet features are not kept but made again in the backward, and the
    # backward cores fold in chunks.
    model = net.MMNModel(net.ModelConfig(input_order=4, channels=(16, 32)))
    batch = 4
    float_tape = 0  # each block's input and pre-activation
    for _, _, order, w_in, w_out, _ in (s for s in model.config.plan()
                                        if s[0] == "block"):
        num_v = model.hierarchy.mesh(order).num_vertices
        float_tape += 8 * batch * (num_v * w_in + num_v * w_out)
    net.backward_core(model, *_recorded_step(model, batch, 6))  # fills the caches
    try:
        step = _recorded_step(model, batch, 6, tracemalloc.start)
        net.backward_core(model, *step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * float_tape


def test_block_backward_matches_the_formula_on_the_forwards_facet_features():
    # The backward makes the facet features again from the saved input;
    # its gradients equal, to the bit, the chained cores run on the facet
    # features the forward itself made, at order 2 and B = 3.
    ctx = conv.conv_context(mesh.icosphere(2), 3)
    rng = np.random.default_rng(21)
    k = spharm.num_coefficients(3)
    vf, fv = rng.standard_normal((5, 4, k)), rng.standard_normal((5, 5, k))
    bias = rng.standard_normal(5)
    h = np.moveaxis(rng.standard_normal((ctx.num_vertices, 3, 4)), 0, -1)
    grad_out = rng.standard_normal((3, 5, ctx.num_vertices))
    for activate in (True, False):
        _, saved = conv.block_forward(ctx, h, vf, fv, bias, activate)
        g = conv.v2f_forward_core(ctx, h, vf)
        pre = conv.f2v_forward_core(ctx, g, fv) + bias[:, None]
        dy = grad_out * np.where(pre > 0.0, 1.0, conv.LEAKY_SLOPE) if activate else grad_out
        grad_g, grad_fv = conv.f2v_backward_core(ctx, fv, g, dy)
        grad_h, grad_vf = conv.v2f_backward_core(ctx, vf, h, grad_g)
        expected = (grad_h, grad_vf, grad_fv, dy.sum(axis=(0, 2)))
        got = conv.block_backward(ctx, saved, vf, fv, grad_out)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


def test_permutation_covariance():
    # relabel the finest-level vertices: outputs must permute identically
    cfg = net.ModelConfig(
        input_order=1, channels=(3,), in_channels=1, l_max=2,
        channel_names=("x",), seed=3,
    )
    model = net.MMNModel(cfg)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 42))
    ctx = net.ContextVector(70.0, -1.0)
    base = net.forward(model, conv.FeatureMap(x, level=1), ctx).values

    perm = rng.permutation(42)
    fine = model.hierarchy.mesh(1)
    permuted_mesh = mesh.TriMesh(fine.vertices[np.argsort(perm)][:, :],
                                 perm[fine.facets])
    old_cl = model.hierarchy.clustering(1)
    new_parent = np.empty_like(old_cl.parent)
    new_parent[perm] = old_cl.parent
    new_cl = mesh.VertexClustering(new_parent)
    permuted_hier = mesh.IcosphereHierarchy(
        levels=(model.hierarchy.mesh(0), permuted_mesh),
        clusterings=(new_cl,),
    )
    permuted_model = net.MMNModel(cfg, hierarchy=permuted_hier)
    permuted_model.load_params(model.params)

    out = net.forward(
        permuted_model, conv.FeatureMap(x[:, np.argsort(perm)], level=1), ctx
    ).values
    np.testing.assert_allclose(out[:, perm], base, atol=1e-9)


# -- normalization ------------------------------------------------------------


def test_normalize_round_trip(tiny_model):
    rng = np.random.default_rng(6)
    model = net.MMNModel(tiny_model.config)
    model.norm_mean = np.array([1.5, -2.0])
    model.norm_std = np.array([0.5, 3.0])
    x = rng.standard_normal((2, 42))
    np.testing.assert_allclose(model.denormalize(model.normalize(x)), x, atol=1e-9)


def test_normalize_features_stats():
    rng = np.random.default_rng(7)
    data = [rng.standard_normal((2, 30)) + np.array([[5.0], [-1.0]]) for _ in range(8)]
    mean, std, transformed = net.normalize_features(data)
    stacked = np.stack(transformed)
    np.testing.assert_allclose(stacked.mean(axis=(0, 2)), 0.0, atol=1e-12)
    np.testing.assert_allclose(stacked.std(axis=(0, 2)), 1.0, atol=1e-12)
    assert mean == pytest.approx([5.0, -1.0], abs=0.2)


def test_normalize_constant_channel_warns():
    data = [np.vstack([np.full(10, 3.0), np.arange(10.0)]) for _ in range(3)]
    with pytest.warns(UserWarning):
        mean, std, transformed = net.normalize_features(data)
    assert std[0] == 1.0
    assert np.all(transformed[0][0] == 0.0)


def test_normalize_empty_dataset():
    with pytest.raises(UsageError):
        net.normalize_features([])


# -- schedule and training -----------------------------------------------------


def test_cosine_schedule_endpoints():
    assert net.cosine_lr(0, 10, 1e-3, 1e-6) == pytest.approx(1e-3, rel=1e-12)
    assert net.cosine_lr(10, 10, 1e-3, 1e-6) == pytest.approx(1e-6, rel=1e-12)
    mid = net.cosine_lr(5, 10, 1e-3, 1e-6)
    assert 1e-6 < mid < 1e-3


def test_adamw_step_is_the_textbook_update_in_place(monkeypatch):
    # Five steps with weight decay give the bits of the textbook expression,
    # and a step holds two block-sized scratch arrays beyond the state,
    # not parameter-sized ones (8 MiB for "big").  With blocks of 3000
    # elements "big" spans 170 blocks of three rows and a ragged one of
    # two, "long" three blocks of 3000 elements and a ragged one of 1000,
    # and a row of "wide" exceeds a block, so it is one.
    monkeypatch.setattr(net, "_ADAMW_BLOCK", 3000)
    rng = np.random.default_rng(3)
    shapes = {"big": (512, 1000), "long": (10000,), "wide": (2, 4000),
              "small": (3, 4, 5)}  # "big" is 3.9 MiB
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    opt = net.AdamW(params)
    b1, b2, eps, wd = opt.beta1, opt.beta2, opt.eps, 0.05
    for t in range(1, 6):
        lr = 1e-2 / t
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        for name, p in ref.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
        tracemalloc.start()
        try:
            opt.step(params, grads, lr, wd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 4000 + 4096  # the scratch, as wide as the widest row
        for name in shapes:
            np.testing.assert_array_equal(params[name], ref[name])
            np.testing.assert_array_equal(opt.m[name], m[name])
            np.testing.assert_array_equal(opt.v[name], v[name])


def _make_dataset(order, n, seed):
    m = mesh.icosphere(order)
    theta, phi = mesh.sphere_angles(m.vertices)
    basis = spharm.filter_basis(2, theta, phi)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        age = rng.uniform(45, 85)
        sex = 1.0 if rng.random() < 0.5 else -1.0
        field = basis @ rng.standard_normal(9) - 0.02 * (age - 65.0)
        field = field + rng.normal(0, 0.3, m.num_vertices)
        out.append(
            net.Sample(features=field[None], context=net.ContextVector(age, sex),
                       subject_id=f"s{i}")
        )
    return out


def test_zero_learning_rate_keeps_parameters():
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=0)
    model = net.MMNModel(cfg)
    before = model.copy_params()
    data = _make_dataset(1, 8, 0)
    tc = net.TrainConfig(epochs=1, lr=0.0, lr_min=0.0, weight_decay=0.0,
                         seed=0, batch_size=4)
    net.train(model, data[:6], data[6:], tc)
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])


def test_training_reduces_validation_loss():
    cfg = net.ModelConfig(input_order=2, channels=(8, 12), in_channels=1,
                          channel_names=("x",), seed=0)
    model = net.MMNModel(cfg)
    data = _make_dataset(2, 48, 1)
    tc = net.TrainConfig(epochs=4, seed=0, batch_size=12)
    result = net.train(model, data[:32], data[32:], tc)
    assert result.best_val_loss < 0.5 * result.epoch0_val_loss
    assert result.history[0]["epoch"] == 0
    assert result.best_epoch >= 1


def test_training_is_bit_reproducible():
    data = _make_dataset(1, 12, 2)
    results = []
    for _ in range(2):
        cfg = net.ModelConfig(input_order=1, channels=(4,), in_channels=1,
                              channel_names=("x",), seed=5)
        model = net.MMNModel(cfg)
        tc = net.TrainConfig(epochs=3, seed=5, batch_size=4)
        res = net.train(model, data[:8], data[8:], tc)
        results.append((model.copy_params(), res.history))
    params_a, hist_a = results[0]
    params_b, hist_b = results[1]
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])
    assert hist_a == hist_b


def test_train_stats_come_from_train_split_only():
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=2)
    model = net.MMNModel(cfg)
    train_data = _make_dataset(1, 10, 3)
    val_data = [
        net.Sample(features=s.features + 100.0, context=s.context)
        for s in _make_dataset(1, 4, 4)
    ]
    net.train(model, train_data, val_data,
              net.TrainConfig(epochs=1, seed=0, batch_size=4))
    mean, std, _ = net.normalize_features([s.features for s in train_data])
    np.testing.assert_array_equal(model.norm_mean, mean)
    np.testing.assert_array_equal(model.norm_std, std)
    ages = np.array([s.context.age for s in train_data])
    assert model.ctx_stats[0] == ages.mean()


def test_train_rejects_non_finite_loss():
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=0)
    data = _make_dataset(1, 8, 3)
    data[2].features[0, 5] = np.nan
    tc = net.TrainConfig(epochs=2, seed=0, batch_size=4)
    with pytest.raises(DomainError, match="epoch 0 val loss"):
        net.train(net.MMNModel(cfg), data[:6], data[6:], tc)


def test_train_rejects_loss_that_turns_non_finite(monkeypatch):
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=0)
    data = _make_dataset(1, 8, 3)
    calls = []

    def evaluate(*args):
        calls.append(1)
        return 1.0 if len(calls) == 1 else math.inf

    monkeypatch.setattr(net, "_evaluate", evaluate)
    tc = net.TrainConfig(epochs=3, seed=0, batch_size=4)
    with pytest.raises(DomainError, match="epoch 1 val loss"):
        net.train(net.MMNModel(cfg), data[:6], data[6:], tc)


def test_train_stops_at_the_first_non_finite_batch_loss(monkeypatch):
    # At lr 1e300 the first step blows the parameters up, so the next batch
    # loss is not finite; no step may follow it.
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=0)
    data = _make_dataset(1, 8, 3)
    steps = []
    step = net.AdamW.step

    def counted(self, *args):
        steps.append(1)
        return step(self, *args)

    monkeypatch.setattr(net.AdamW, "step", counted)
    tc = net.TrainConfig(epochs=1, lr=1e300, seed=0, batch_size=1)
    with np.errstate(all="ignore"), pytest.raises(
            DomainError, match=r"epoch 1 train loss is .*learning rate 1e\+300"):
        net.train(net.MMNModel(cfg), data[:6], data[6:], tc)
    assert len(steps) <= 1


def test_train_rejects_empty_sets(tiny_model):
    with pytest.raises(UsageError):
        net.train(tiny_model, [], [], net.TrainConfig())


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        net.TrainConfig(mask_fraction=0.0)
    with pytest.raises(ConfigurationError):
        net.TrainConfig(mask_fraction=1.5)
    with pytest.raises(ConfigurationError):
        net.TrainConfig(epochs=0)
    for bad in [dict(lr=math.nan), dict(lr=-1e-3), dict(lr_min=-1e-6),
                dict(weight_decay=math.inf), dict(weight_decay=-0.1),
                dict(patience=0), dict(lr=1e-4, lr_min=1e-3)]:
        with pytest.raises(ConfigurationError, match=list(bad)[-1]):
            net.TrainConfig(**bad)


# -- serialization ---------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=2, l_max=2,
                          channel_names=("a", "b"), seed=13)
    model = net.MMNModel(cfg)
    model.norm_mean = np.array([0.25, -1.75])
    model.norm_std = np.array([2.0, 0.125])
    model.ctx_stats = np.array([61.37, 9.25])
    path = tmp_path / "model.smmn"
    net.save_model(model, path)
    loaded = net.load_model(path)
    assert loaded.config == cfg
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    np.testing.assert_array_equal(loaded.norm_mean, model.norm_mean)
    np.testing.assert_array_equal(loaded.norm_std, model.norm_std)
    np.testing.assert_array_equal(loaded.ctx_stats, model.ctx_stats)
    # loaded model computes identical outputs
    rng = np.random.default_rng(3)
    x = conv.FeatureMap(rng.standard_normal((2, 42)), level=1)
    ctx = net.ContextVector(59.0, -1.0)
    np.testing.assert_array_equal(
        net.forward(model, x, ctx).values, net.forward(loaded, x, ctx).values
    )


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.smmn"
    path.write_bytes(b"NOPE")
    with pytest.raises(ParseError):
        net.load_model(path)
    path.write_bytes(b"SMMN\x01\x01\xff\xff\xff\xff")
    with pytest.raises(ParseError) as err:
        net.load_model(path)
    assert err.value.offset is not None


def _array_offsets(path, model):
    """Byte offset of every array record of a checkpoint, by name."""
    blob = path.read_bytes()
    offset = 10 + int.from_bytes(blob[6:10], "little") + 4
    offsets = {}
    for name in model.param_names() + ["norm_mean", "norm_std", "ctx_stats"]:
        offsets[name] = offset
        ndim = blob[offset]
        shape = np.frombuffer(blob[offset + 1 : offset + 1 + 8 * ndim], "<i8")
        offset += 1 + 8 * ndim + 8 * int(np.prod(shape))
    assert offset == len(blob)
    return offsets


@pytest.mark.parametrize("name, value", [
    ("norm_std", [0.0]),
    ("norm_std", [-1.0]),
    ("norm_std", [np.inf]),
    ("norm_mean", [np.nan]),
    ("norm_mean", [0.0, 1.0]),
    ("ctx_stats", [60.0, 0.0]),
    ("ctx_stats", [60.0, 10.0, 1.0]),
    ("ctx_stats", [np.nan, 10.0]),
    ("mask_token", [np.nan]),
])
def test_checkpoint_rejects_bad_array(tmp_path, name, value):
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1, l_max=2,
                          channel_names=("x",), seed=2)
    model = net.MMNModel(cfg)
    if name in model.params:
        model.params[name] = np.array(value)
    else:
        setattr(model, name, np.array(value))
    path = tmp_path / "model.smmn"
    net.save_model(model, path)
    offsets = _array_offsets(path, model)
    with pytest.raises(ParseError, match=name) as err:
        net.load_model(path)
    assert err.value.offset == offsets[name]
    assert err.value.path == str(path)


def test_checkpoint_rejects_negative_shape(tmp_path):
    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1, l_max=2,
                          channel_names=("x",), seed=2)
    model = net.MMNModel(cfg)
    path = tmp_path / "model.smmn"
    net.save_model(model, path)
    at = _array_offsets(path, model)["norm_mean"]
    blob = bytearray(path.read_bytes())
    blob[at + 1 : at + 9] = struct.pack("<q", -1)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="norm_mean") as err:
        net.load_model(path)
    assert err.value.offset == at


def _with_config_block(blob):
    return b"SMMN\x01\x01" + len(blob).to_bytes(4, "little") + blob


def _config_doc(**edits):
    """A valid checkpoint config block with ``edits`` applied."""
    doc = {"input_order": 1, "channels": [3], "in_channels": 1, "l_max": 2,
           "ctx_dim": 2, "channel_names": ["x"], "seed": 0}
    return json.dumps({**doc, **edits}, sort_keys=True).encode()


@pytest.mark.parametrize("blob", [
    b"\xff\xfe not utf-8",
    b"{broken",
    b'{"input_order": 1}',
    b'{"input_order": 1, "channels": [3, 3], "in_channels": 1, "l_max": 2, '
    b'"ctx_dim": 2, "channel_names": ["x"], "seed": 0}',
    b"[1, 2]",
    # values the model cannot build
    _config_doc(l_max=-1),
    _config_doc(channels=[0]),
    _config_doc(ctx_dim=-1),
    _config_doc(ctx_dim=3),
    _config_doc(ctx_dim=0),
    _config_doc(seed=-1),
    _config_doc(input_order=9),
    _config_doc(l_max=True),
    # a key ModelConfig does not have
    _config_doc(dropout=0),
])
def test_checkpoint_bad_config_block_is_parse_error_at_10(tmp_path, blob):
    path = tmp_path / "bad.smmn"
    path.write_bytes(_with_config_block(blob))
    with pytest.raises(ParseError) as err:
        net.load_model(path)
    assert err.value.offset == 10
    assert err.value.path == str(path)


def test_checkpoint_shapes_checked_before_model_is_built(tmp_path, monkeypatch):
    # An order-6 config block and nothing after it: no array count.
    blob = _with_config_block(_config_doc(input_order=6, channels=[16, 32]))
    path = tmp_path / "header.smmn"
    path.write_bytes(blob)

    def build(*args):
        raise AssertionError("model built before its arrays were checked")

    monkeypatch.setattr(net, "build_hierarchy", build)
    monkeypatch.setattr(conv, "conv_context", build)
    with pytest.raises(ParseError, match="array count") as err:
        net.load_model(path)
    assert err.value.offset == len(blob)
