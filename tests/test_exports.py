"""Every exported name resolves.

Deleting a function while leaving it in an ``__all__`` list or in the
package's re-exports would only fail when someone iterates over those
lists (``from dualpairs.fields import *``, tools that walk ``__all__``), so
it is checked here directly.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import dualpairs
from dualpairs.peakons import Trajectory
from dualpairs.polyalg import RationalPoly
from dualpairs.symplectic import Observable

MODULES = ("bridge", "cli", "datagen", "fields", "peakons", "polyalg", "symplectic", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dualpairs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(dualpairs.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(dualpairs, n)] == []


def test_public_methods_exist():
    for method in ("hamiltonians", "total_momenta", "filament_currents", "jr_drifts"):
        assert callable(getattr(Trajectory, method))
    h = Observable(lambda z: z[..., 0], lambda z: np.eye(z.shape[-1])[0] + 0.0 * z)
    assert callable(Observable.gradient) and callable(h._gradient)
    assert "__init__" in vars(RationalPoly)
