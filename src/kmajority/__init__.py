"""Biased k-majority dynamics: simulation engine and mean-field analyzer."""

# each module's __all__ is the one list of its public names
from kmajority.meanfield import *  # noqa: F403
from kmajority.graph import *  # noqa: F403
from kmajority.dynamics import *  # noqa: F403
from kmajority.experiments import *  # noqa: F403

__version__ = "0.1.0"
