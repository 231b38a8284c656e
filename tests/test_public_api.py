"""The public names: each is declared once, in its module's ``__all__``; every
one that an ``__all__`` exports resolves, and the phantom module exports one builder."""

import importlib
import pkgutil

import pytest

import qbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(qbench.__path__, "qbench."))


def test_every_name_in_the_package_all_resolves():
    assert len(set(qbench.__all__)) == len(qbench.__all__)
    for name in qbench.__all__:
        assert hasattr(qbench, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_a_module_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_star_import_binds_the_package_all():
    namespace = {}
    exec("from qbench import *", namespace)
    assert set(qbench.__all__) <= set(namespace)


def test_generate_is_the_one_phantom_builder():
    assert qbench.phantom.__all__ == ["PhantomObject", "PhantomSpec", "generate"]
    for removed in ("render_template", "add_complex_gaussian", "quantize", "_magnitude"):
        assert not hasattr(qbench.phantom, removed) and not hasattr(qbench, removed), removed


# the package's names as they were when qbench/__init__.py still listed them by hand
PACKAGE_NAMES = [
    "__version__",
    "Volume",
    "CORRECTION_FACTOR",
    "CORRECTION_FACTOR_ANALYTIC",
    "SearchConfig",
    "ThresholdResult",
    "NoiseEstimate",
    "EstimationError",
    "find_t_lower",
    "find_t_opt",
    "estimate",
    "background_roi_noise",
    "PhantomObject",
    "PhantomSpec",
    "generate",
    "DEFAULT_EXPONENT",
    "lanczos3_kernel",
    "downsample",
    "CurvePoint",
    "ResolutionCurve",
    "QualityScore",
    "fit_power_law",
    "effective_resolution",
    "noise_resolution_curve",
    "normalize_quality",
    "VolumeFormatError",
    "write_container",
    "read_input",
    "load_volume",
]


def test_each_public_name_is_declared_once():
    reexported = (qbench.volume, qbench.noise, qbench.phantom, qbench.resolution, qbench.qvol)
    assert qbench.__all__ == ["__version__", *(name for m in reexported for name in m.__all__)]
    declared = [name for m in map(importlib.import_module, MODULES) for name in getattr(m, "__all__", [])]
    assert len(set(declared)) == len(declared)
    assert qbench.__all__ == PACKAGE_NAMES
