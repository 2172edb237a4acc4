"""Helpers the test modules share; pytest puts this directory on
``sys.path``, so a test module imports them as ``from support import ...``."""

import functools
import importlib.util
from pathlib import Path

from sigma_spectra import HypergraphSpec, build_sigma


def spec_of(n, q, parts, alpha=2, beta=2):
    return HypergraphSpec(n=n, q=q, sigma=build_sigma(parts), alpha=alpha, beta=beta)


@functools.cache
def load_search_digest():
    """``tools/search_digest.py``, whose lines compare two checkouts; loaded
    once, however many test modules ask for it."""
    path = Path(__file__).resolve().parents[1] / "tools" / "search_digest.py"
    spec = importlib.util.spec_from_file_location("search_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
