import dataclasses
import importlib
import inspect
import pkgutil

import me2ph
from me2ph import DEFAULT_TOL, ToleranceConfig


def _signatures():
    """Every function and class each ``me2ph`` module defines, private ones
    included, and the public methods of those classes, with their
    signatures (a class's is its constructor's)."""
    for info in pkgutil.iter_modules(me2ph.__path__):
        module = importlib.import_module(f"me2ph.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", inspect.signature(obj)
            if inspect.isclass(obj):
                try:
                    yield f"{module.__name__}.{name}", inspect.signature(obj)
                except ValueError:
                    # an exception class that keeps Exception's constructor
                    assert issubclass(obj, Exception)
                for attr, meth in vars(obj).items():
                    if inspect.isfunction(meth) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", inspect.signature(meth)


def test_only_the_input_pair_takes_a_tolerance():
    # the caller's tolerance checks the input's vector and goes no further;
    # check_c_conditions keeps its own until it is deleted
    takers = {name for name, sig in _signatures() if "tol" in sig.parameters}
    assert takers == {"me2ph.core.MERep", "me2ph.spectral.check_c_conditions"}
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["alpha_sum"]
    assert not hasattr(ToleranceConfig, "replace")
    assert DEFAULT_TOL.equivalence_rel == 1e-7
