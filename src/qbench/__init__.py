"""qbench: automatic noise/SNR benchmarking for magnitude MR volumes.

Estimates image noise and object signal from a single magnitude data set via
a variance-based automatic threshold (no user-drawn ROI), and normalizes SNR
across image resolutions so volumes acquired at different voxel sizes can be
compared on one scale. Ships a deterministic phantom generator and a minimal
bit-exact volume container for reproducible experiments.

Each module's ``__all__`` is the one list of its public names; the package
exports those of the modules below, in this order.
"""

__version__ = "0.3.0"

from . import noise, phantom, qvol, resolution, volume
from .volume import *
from .noise import *
from .phantom import *
from .resolution import *
from .qvol import *

__all__ = ["__version__", *(name for m in (volume, noise, phantom, resolution, qvol) for name in m.__all__)]
