"""Finite braces: construction, verification, analysis, bounds, and YBE export.

The package builds finite left braces (two compatible group structures on one
carrier), including twisted products assembled from orthogonal block data,
checks their axioms and ideal structure, analyzes their multiplicative
groups, computes witness-dimension bounds, and derives and serializes the
associated set-theoretic Yang-Baxter solution tables.
"""

from .errors import *
from .modular import *
from .braces import *
from .construct import *
from .groupinfo import *
from .bounds import *
from .ybe import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *modular.__all__,
    *braces.__all__,
    *construct.__all__,
    *groupinfo.__all__,
    *bounds.__all__,
    *ybe.__all__,
]
