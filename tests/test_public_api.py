"""The public names: every one that ``__all__`` exports resolves, and the phantom module exports one builder."""

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
