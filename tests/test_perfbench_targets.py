"""The benchmark tracer's targets still exist in the library.

``perfbench/tracer.py`` wraps named functions and methods of ``src/`` from
outside the program when a benchmark runs with ``--trace 1``.  A rename or
removal in ``src/`` would only surface there, as a crash of the traced run;
these tests turn it into a test failure instead.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import KERNEL_FUNCTIONS, TARGETS  # noqa: E402


@pytest.mark.parametrize(
    "target", TARGETS, ids=lambda target: f"{target[1]}.{target[2] or ''}.{target[3]}"
)
def test_tracer_target_resolves(target):
    _name, module_name, class_name, attr = target
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        owner = getattr(module, class_name)
        # The tracer patches the class's own attribute, not an inherited one.
        assert callable(owner.__dict__[attr])


def test_kernel_functions_resolve():
    kernels = importlib.import_module("repro.core.kernels")
    impl = kernels.get_impl()
    for name in KERNEL_FUNCTIONS:
        assert callable(getattr(impl, name))


@pytest.mark.parametrize(
    "target", [target for target in TARGETS if target[0] == "inverted_index.probe_batch"]
)
def test_probe_keys_are_the_second_argument(target):
    """The tracer counts probed keys from the ``keys`` argument, passed by
    keyword or second after ``self``."""
    _name, module_name, class_name, attr = target
    method = getattr(importlib.import_module(module_name), class_name).__dict__[attr]
    parameters = list(inspect.signature(method).parameters)
    assert parameters[2] == "keys"
