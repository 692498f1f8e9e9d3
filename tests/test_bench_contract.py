"""The benchmark's tracer finds every smmn function it wraps by name.

``bench/tracing.py`` wraps functions by module and attribute name; one
that is renamed or removed only prints a warning there, and the per-layer
metrics fed by it read 0.  The module is read from its source here, so
the benchmark's directory is left as it is.
"""

from pathlib import Path
import types

import numpy as np

# Tracer.install finds each traced module in sys.modules.
from smmn import anomaly, cli, conv, io, mesh, net, spharm, stats, synth  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_target():
    originals = (net.forward_core, conv.conv_context, net.AdamW.step)
    tracer = _tracing_module().Tracer(input_order=3)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert (net.forward_core, conv.conv_context, net.AdamW.step) == originals


def test_tracer_times_the_sparse_detection_walk():
    # The tracer's flop estimators take the cores' positional arguments
    # only; the row selection goes by keyword and must pass through.
    # Detection runs the network's one forward walk, net.forward_core.
    model = net.MMNModel(net.ModelConfig(input_order=2, channels=(8, 12)))
    atlas = synth.synthetic_atlas(mesh.icosphere(2), 14)
    subject = net.Sample(np.random.default_rng(0).standard_normal((1, 162)),
                         net.ContextVector(60.0, 1.0), "traced")
    untraced = anomaly.cohort_scores(model, [subject], atlas)
    tracer = _tracing_module().Tracer(input_order=2)
    tracer.install()
    try:
        traced = anomaly.cohort_scores(model, [subject], atlas)
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(traced.scores, untraced.scores)
    names = {span[1] for span in tracer.spans}
    assert {"anomaly.detect_all", "net.forward", "conv.f2v_fwd.l0", "conv.f2v_fwd.l1",
            "conv.v2f_fwd.l0", "conv.v2f_fwd.l1"} <= names
    assert tracer.counts["anomaly.roi_passes"] == 14


def test_tracer_times_every_backward_core():
    # Each backward fold runs inside a traced core; one that stopped doing
    # so would read 0 in its per-layer metrics without a word.
    model = net.MMNModel(net.ModelConfig(input_order=2, channels=(8, 12)))
    rng = np.random.default_rng(0)
    num_v = model.num_input_vertices
    feats = rng.standard_normal((2, 1, num_v))
    masks = [net.sample_mask(num_v, 0.5, rng) for _ in range(2)]
    xb, mask_matrix = net.masked_batch(model, feats, masks)
    xhat, tape = net.forward_core(model, xb, rng.standard_normal((2, 2)), record=True)
    _, dxhat = net.batch_loss_and_grad(xhat, feats, masks)
    tracer = _tracing_module().Tracer(input_order=2)
    tracer.install()
    try:
        net.backward_core(model, tape, dxhat, mask_matrix)
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"net.backward", "conv.v2f_bwd.l0", "conv.v2f_bwd.l1", "conv.f2v_bwd.l0",
            "conv.f2v_bwd.l1", "conv.pool_bwd", "conv.unpool_bwd"} <= names
