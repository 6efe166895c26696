"""Finite-frame toolkit: K-frames, controlled K-frames, dual systems, and
preconditioned frame-operator inversion on C^d.

The package is organized in layers:

* :mod:`framekit.operators` — dense complex linear algebra with explicit
  tolerances (square roots, pseudo-inverses, Loewner comparisons).
* :mod:`framekit.frames` — finite sequences, synthesis/analysis, frame bounds.
* :mod:`framekit.kframes` — K-frame verdicts with optimal bounds, atomic
  systems, dual construction on range(K).
* :mod:`framekit.controlled` — controller algebra and controlled K-frame
  checks; bound transfers in both directions.
* :mod:`framekit.solvers` / :mod:`framekit.bench` — plain and controlled
  Richardson solvers and the plain-vs-controlled benchmark grid.
* :mod:`framekit.instances` — seeded generators for tests, demos, benchmarks.
* :mod:`framekit.serialize` / :mod:`framekit.cli` — JSON schemas and the
  ``framekit`` command.

Each layer module's ``__all__`` is its public API, and the package
re-exports every layer's names but those of :mod:`framekit.cli`.
"""

from . import bench, controlled, errors, frames, instances, kframes, operators, serialize, solvers
from .errors import *
from .operators import *
from .frames import *
from .kframes import *
from .controlled import *
from .solvers import *
from .instances import *
from .bench import *
from .serialize import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for layer in (errors, operators, frames, kframes, controlled, solvers, instances, bench, serialize)
    for name in layer.__all__
]
