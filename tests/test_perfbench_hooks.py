"""The benchmark's layer tracer must find every name it wraps.

perfbench/layers.py replaces functions in the program's modules by name;
a renamed or removed one makes every traced benchmark run raise.
"""
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


@pytest.fixture()
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapper(layers):
    from proofbench import harness, loop

    originals = (loop.prove, harness._RecordWriter.write, harness.run_loop)
    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        assert tracer._installed
        assert loop.prove is not originals[0]
    finally:
        tracer.restore()
    assert (loop.prove, harness._RecordWriter.write, harness.run_loop) == originals
