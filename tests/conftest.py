import numpy as np
import pytest

from qbench import PhantomObject, PhantomSpec, SearchConfig, Volume, generate
from qbench.noise import _VolumeScan
from qbench.report import input_digest


def pure_noise(sigma, seed, width=64, height=64, n_slices=20):
    return generate(PhantomSpec(width=width, height=height, n_slices=n_slices, sigma=sigma, seed=seed))


def const_phantom(value, sigma, seed, width=64, height=64, n_slices=20):
    return generate(
        PhantomSpec(width=width, height=height, n_slices=n_slices, background_value=value, sigma=sigma, seed=seed)
    )


def disk_phantom(radius, value, sigma, seed, width=64, height=64, n_slices=20, center=None):
    center = center or (width / 2, height / 2)
    obj = PhantomObject("disk", center, radius, value)
    return generate(PhantomSpec(width=width, height=height, n_slices=n_slices, objects=(obj,), sigma=sigma, seed=seed))


def disk_mask(width, height, center, radius):
    yy, xx = np.mgrid[0:height, 0:width]
    return (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius**2


def resolved_digest(path, read):
    """``report.input_digest`` of what ``qvol.read_input`` read from ``path``, hashed on its thread and resolved."""
    return input_digest(path, read).result()


class _PixelScan(_VolumeScan):
    """The scan with every row binned pixel by pixel, integer rows included."""

    def _bin_sums(self, row):
        return super()._bin_sums(row.astype(np.float64))


def build_scan(volume, cfg=SearchConfig(), *, per_pixel=False):
    """The noise scan of ``volume`` on the lattice of ``cfg``; with
    ``per_pixel``, integer rows are binned pixel by pixel instead of by level."""
    return (_PixelScan if per_pixel else _VolumeScan)(volume, cfg)


def volume_from(data, voxel=(1.0, 1.0, 1.0)):
    return Volume.from_array(np.asarray(data, dtype=float), voxel)


@pytest.fixture
def disk_volume():
    return disk_phantom(radius=20, value=1000.0, sigma=100.0, seed=3)
