"""Backend selection and pure-Python vs compiled kernel agreement."""

import os
import random
import subprocess
import sys

import pytest

from conftest import random_coded_input
from pomcheck import _kernel
from pomcheck import _canon_py

cython_kernel = pytest.importorskip(
    "pomcheck._canon_cy", reason="compiled kernel not built"
)


def test_backend_markers():
    assert _canon_py.BACKEND == "python"
    assert cython_kernel.BACKEND == "cython"
    assert _kernel.BACKEND in ("python", "cython")


def test_backends_agree_on_random_inputs():
    rng = random.Random(23)
    for _ in range(400):
        labels, above = random_coded_input(rng, rng.randint(0, 8))
        assert _canon_py.canonical_order(labels, above) == \
            cython_kernel.canonical_order(labels, above)


def test_backends_agree_beyond_mask_width():
    # the compiled kernel delegates above 64 events
    n = 70
    labels = tuple(i % 2 for i in range(n))
    above = []
    for i in range(n):
        mask = 0
        for j in range(i + 1, n):
            mask |= 1 << j
        above.append(mask)
    above = tuple(above)
    assert cython_kernel.canonical_order(labels, above) == \
        _canon_py.canonical_order(labels, above)


def test_empty_input():
    assert _canon_py.canonical_order((), ()) == ()
    assert cython_kernel.canonical_order((), ()) == ()


def test_env_var_forces_pure_backend():
    env = dict(os.environ, POMCHECK_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import pomcheck; print(pomcheck.BACKEND)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "python"


def test_compiled_backend_selected_by_default():
    env = {k: v for k, v in os.environ.items() if k != "POMCHECK_PURE"}
    out = subprocess.run(
        [sys.executable, "-c", "import pomcheck; print(pomcheck.BACKEND)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "cython"
