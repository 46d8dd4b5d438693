"""Bilinear similarity learning with matrix-norm regularizers and certificates.

The pipeline has two stages: learn a symmetric matrix A whose bilinear form
scores pairs, then fit an L1-constrained linear separator on top of the
learnt score.  The bounds module certifies both stages with Rademacher-based
deviation bounds that can be checked empirically.

Each module states the public names it defines in its own ``__all__``;
the package re-exports them, in pipeline order.
"""

from . import bounds, data, errors, norms, separator, similarity
from .data import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .similarity import *  # noqa: F401,F403
from .separator import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403

__all__ = [name for module in (data, norms, similarity, separator, bounds, errors)
           for name in module.__all__]

__version__ = "0.1.0"
