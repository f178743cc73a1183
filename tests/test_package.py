"""The package namespace: `lungseg3d.<name>` is the submodule of that name."""

import importlib
import inspect

import pytest

import lungseg3d

SUBMODULES = ("tensor", "ops", "autograd", "blocks", "networks", "losses",
              "data", "train", "gradcheck", "cli")


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    for sub in SUBMODULES:  # so no later import can rebind the name
        importlib.import_module(f"lungseg3d.{sub}")
    assert inspect.ismodule(getattr(lungseg3d, name))
    assert getattr(lungseg3d, name).__name__ == f"lungseg3d.{name}"


def test_import_as_binds_the_train_module():
    import lungseg3d.train as t
    assert inspect.ismodule(t) and t.__name__ == "lungseg3d.train"
