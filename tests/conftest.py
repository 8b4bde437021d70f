import time

import pytest

# wall-clock anchor for the whole-suite time budget check
SESSION_T0 = time.monotonic()


@pytest.fixture(scope="session")
def session_t0():
    return SESSION_T0


@pytest.fixture
def spy(monkeypatch):
    """spy(*functions) counts calls to each function, by name, in every tdr
    module that holds it, as the benchmark's tracer counts them, and
    returns the live {name: calls}."""
    import sys

    def install(*functions):
        calls = {}
        for real in functions:
            calls[real.__name__] = 0

            def counted(*args, _real=real, **kwargs):
                calls[_real.__name__] += 1
                return _real(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if mod is not None and (name == "tdr" or name.startswith("tdr.")):
                    for attr, val in list(vars(mod).items()):
                        if val is real:
                            monkeypatch.setattr(mod, attr, counted)
        return calls

    return install


@pytest.fixture
def small_cap(monkeypatch):
    """TENSOR_CAP at 64 for one test: check_size and vertex_shape read the
    cap at call time, so a test of the cap can stay tiny."""
    import tdr.representation

    monkeypatch.setattr(tdr.representation, "TENSOR_CAP", 64)
    return 64


@pytest.fixture
def cold():
    """cold() empties every cache of tdr (decompose.shape_of's Shapes,
    contraction's compiled programs, the CLI parser), so the next call
    takes its path cold."""
    import sys

    def clear():
        caches = {}
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "tdr" or name.startswith("tdr.")):
                for val in vars(mod).values():
                    if callable(getattr(val, "cache_clear", None)):
                        caches[id(val)] = val
        for f in caches.values():
            f.cache_clear()

    clear()
    return clear
