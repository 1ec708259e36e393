"""Analysis of C*-extreme points among unital entanglement-breaking channels.

The package models quantum channels between matrix algebras in Kraus,
Choi, and Holevo (measure-and-prepare) form, decides entanglement
breaking via PPT and ensemble certificates, extracts the canonical block
form of C*-extreme channels, computes derivative-type data of dominated
channels, and decomposes unital EB channels into C*-convex combinations
of extreme points.

The public API is the union of the modules' ``__all__`` lists.
"""

from . import channel, decomp, errors, extremality, linalg, rng, separability, serialize
from .channel import *
from .decomp import *
from .errors import *
from .extremality import *
from .linalg import *
from .rng import *
from .separability import *
from .serialize import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *channel.__all__,
    *separability.__all__,
    *extremality.__all__,
    *decomp.__all__,
    *linalg.__all__,
    *rng.__all__,
    *serialize.__all__,
    *errors.__all__,
]
