"""The benchmark's tracer finds every smmn function it wraps by name.

``bench/tracing.py`` wraps functions by module and attribute name; one
that is renamed or removed only prints a warning there, and the per-layer
metrics fed by it read 0.  The module is read from its source here, so
the benchmark's directory is left as it is.
"""

from pathlib import Path
import types

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
