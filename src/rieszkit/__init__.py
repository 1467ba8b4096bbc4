"""Numerical toolkit built around four representer constructions.

Four classical existence theorems identify abstract linear functionals
with concrete objects: a coordinate vector, a monotone generator
function, a conditional expectation, a path measure. This package turns
each identification into a computable procedure:

- ``hilbert``: coordinate representers, vector-valued expectations and
  their basis expansions on L2(0, 1);
- ``stieltjes``: Lebesgue-Stieltjes integration and recovery of a
  distribution function from a black-box expectation functional;
- ``conditional``: conditional expectation on finite measure spaces as
  exact block averaging, with the L1 truncation ladder;
- ``wiener``: heat-kernel chains, cylinder-set probabilities, and
  integration of path functionals by quadrature or bridge Monte Carlo;
- ``numerics``: the shared quadrature plumbing;
- ``cli``: the batch command-line interface.
"""

from .errors import *
from .numerics import *
from .hilbert import *
from .stieltjes import *
from .conditional import *
from .wiener import *
from . import conditional, errors, hilbert, numerics, stieltjes, wiener

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, numerics, hilbert, stieltjes, conditional, wiener)
    for name in module.__all__
]
