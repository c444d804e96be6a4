"""Good sets in finite products: decide, certify, and solve additive splits.

A finite subset S of X_1 x ... x X_n is *good* when every function on S is a
sum of univariate functions of the coordinates.  This package decides
goodness with exact rational arithmetic, produces certificates (loops for
failures; geodesics, boundaries, and full splits for structure), solves the
split equation under prescribed boundary values, and certifies extreme
points among measures with fixed marginals.

Public names are declared once, in each module's `__all__`; the package
republishes those of the six library modules below and no others.  The
instance format and the command line stay in `goodsets.instances` and
`goodsets.cli`.
"""

from .goodness import *
from .linalg import *
from .measures import *
from .model import *
from .solve import *
from .structure import *

__version__ = "0.1.0"
