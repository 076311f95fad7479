"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions by
name; these tests keep those names and the wrapping honest."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import me2ph
from me2ph import MERep, convert

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "me2ph" or name.startswith("me2ph."))
            for attr, value in vars(mod).items()}


def test_tracer_names_resolve_to_package_functions():
    tracing = _load_tracing()
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"me2ph.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"me2ph.{layer}.{name}"


def test_tracer_install_uninstall_restores_originals():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert me2ph.deconv.deconvolve is not before[("me2ph.deconv", "deconvolve")]
        # choose_mu looks deconvolve up by its module-level name, so each
        # doubling is a deconvolve span inside the choose_mu span
        tracer.active = True
        erlang = MERep(np.array([1.0, 0.0]), np.array([[-1.0, 1.0], [0.0, -1.0]]))
        convert(erlang)
        tracer.active = False
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["deconv.choose_mu_calls"] == 1
    assert metrics["deconv.mu_doublings"] == metrics["deconv.deconvolve_calls"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
