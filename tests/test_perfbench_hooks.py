"""The names the benchmark's tracer and worker bind in the package.

``perfbench/tracing.py`` wraps functions and methods it finds by name, and
binds some of their parameters by name; ``perfbench/worker.py`` clears the
package's ``lru_cache``s before every job.  A rename in ``potts_ghs`` would
break ``--trace 1`` or the cold-cache reset without failing any other test,
so this module imports both files (installing no wrapper) and checks every
name they use.
"""
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing"), importlib.import_module("worker")


def _resolve(module: str, attr: str):
    home = importlib.import_module(f"potts_ghs.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(home, cls_name))[method]
    return getattr(home, attr)


def test_every_traced_target_resolves(perfbench_modules):
    tracing, _ = perfbench_modules
    for module, attr, _ in tracing.SPANS + tracing.COUNTS:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_every_worker_cache_can_be_cleared(perfbench_modules):
    _, worker = perfbench_modules
    assert len(worker.CACHES) == 5
    for name, cached in worker.CACHES.items():
        assert callable(getattr(cached, "cache_clear", None)), name
        assert callable(getattr(cached, "cache_info", None)), name


def test_hooked_parameters_keep_their_names():
    from potts_ghs.constraints import constrained_sum
    from potts_ghs.model import weighted_sums

    assert {"weights", "equalities"} <= set(inspect.signature(constrained_sum).parameters)
    assert {"n_sites", "n_states", "one"} <= set(inspect.signature(weighted_sums).parameters)
