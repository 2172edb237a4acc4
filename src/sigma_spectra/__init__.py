"""Constrained colourings of sigma-class hypergraphs.

An instance ``H(n, r, q | sigma)`` partitions ``n * q`` vertices into ``n``
classes of ``q``; the r-subsets whose non-zero class-intersection sizes
realise the partition ``sigma`` are the edges.  A colouring is valid for a
window ``(alpha, beta)`` when every edge carries between ``alpha`` and
``beta`` distinct colours.  This package decides exact k-colourability,
computes full spectra with gap detection, evaluates the closed-form zone
and threshold formulas, and realises the constructive colourings behind
them, cross-checked by literal brute-force oracles on small instances.
"""

from . import constructions, core, engine, errors, formulas, oracle, validator
from .core import *  # noqa: F401,F403
from .formulas import *  # noqa: F401,F403
from .validator import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of the module defining it
__all__ = [
    *core.__all__,
    *formulas.__all__,
    *validator.__all__,
    *engine.__all__,
    *oracle.__all__,
    *constructions.__all__,
    *errors.__all__,
]
