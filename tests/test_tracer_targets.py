"""Every package function the traced benchmark wraps exists.

``perfbench/layers.register`` wraps functions by module and name, and it
runs only in a traced benchmark run, so a deleted or renamed function would
break that run with no other test failing."""

import importlib.util
from pathlib import Path

import mcmag

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


class ResolvingTracer:
    """Stands in for the benchmark's tracer: ``add`` only looks the name up."""

    def __init__(self):
        self.names = []

    def add(self, module, attr, **options):
        getattr(module, attr)
        self.names.append(f"{module.__name__}.{attr}")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = ResolvingTracer()
    layers.register(tracer, mcmag)
    assert tracer.names
    assert len(set(tracer.names)) == len(tracer.names)
