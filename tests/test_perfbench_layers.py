"""Every function the benchmark's per-layer metrics time must exist.

perfbench/tracing.py reports a metric as absent, rather than failing, when
a function it names is gone; this test turns such a rename or inlining
into a tier-1 failure.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_function_is_public():
    tracing = load_tracing()
    public = tracing.public_functions()
    needed = {name for _, needs, _, _ in tracing.PER_LAYER.values() for name in needs}
    assert needed, "PER_LAYER names no functions"
    assert sorted(needed - set(public)) == []
