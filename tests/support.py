"""Helpers the test modules share; pytest puts this directory on
``sys.path``, so a test module imports them as ``from support import ...``."""

import functools
import importlib.util
import sys
from pathlib import Path

from sigma_spectra import HypergraphSpec, build_sigma


def spec_of(n, q, parts, alpha=2, beta=2):
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


# the appendix gap fixture H(n=7,q=6|sigma=(6,6)), alpha=beta=3: k=4 is a gap
APPENDIX = spec_of(7, 6, [6, 6], 3, 3)


@functools.cache
def _load(relative):
    """The repository's script at ``relative``, loaded as a module once,
    however many test modules ask for it."""
    path = Path(__file__).resolve().parents[1] / relative
    # a name of its own, so a module another test imported as ``workloads``
    # is never replaced
    spec = importlib.util.spec_from_file_location(f"_repo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_search_digest():
    """``tools/search_digest.py``, whose lines compare two checkouts."""
    return _load("tools/search_digest.py")


def load_bench_workloads():
    """``bench/workloads.py``, the benchmark's seeded jobs."""
    return _load("bench/workloads.py")
