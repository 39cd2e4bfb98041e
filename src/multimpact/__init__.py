"""Post-impact velocity sets for planar rigid bodies hitting several
frictional contacts at once.

Rigid-body dynamics gives no unique answer when several frictional
contacts impact at once; the outcome depends on the unmodeled micro-order
of impulse transmission.  This package resolves such impacts by a capped
complementarity stepping scheme: each step solves a small LCP that meters
out at most a drawn amount of normal impulse per contact, and the set of
velocities reachable over all draw sequences is sampled, audited and
compared against classical single-outcome baselines.

Layout:

- :mod:`multimpact.lcp` - dense Lemke solver with lexicographic pivoting,
  for one instance or a stack sharing ``M``;
- :mod:`multimpact.contact` - contact problem data and feasibility audits;
- :mod:`multimpact.scenes` - planar scene geometry and bundled examples;
- :mod:`multimpact.resolution` - lockstep capped stepping, baselines,
  certificates;
- :mod:`multimpact.setapprox` - Sobol/uniform sampling of outcome sets;
- :mod:`multimpact.oracles` - independent reference computations;
- :mod:`multimpact.io` - lossless CSV/JSON export;
- :mod:`multimpact.cli` - the ``multimpact`` command.

The package exports the public names (``__all__``) of the first six
modules and of :mod:`multimpact.errors`.  The last two modules load only
when imported by name, so ``import multimpact`` brings in neither
``argparse`` nor ``csv``.
"""

from . import contact, errors, lcp, oracles, resolution, scenes, setapprox
from .contact import *  # noqa: F403
from .errors import *  # noqa: F403
from .lcp import *  # noqa: F403
from .oracles import *  # noqa: F403
from .resolution import *  # noqa: F403
from .scenes import *  # noqa: F403
from .setapprox import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *contact.__all__,
    *errors.__all__,
    *lcp.__all__,
    *oracles.__all__,
    *resolution.__all__,
    *scenes.__all__,
    *setapprox.__all__,
    "__version__",
]
