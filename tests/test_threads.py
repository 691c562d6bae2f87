"""Importing the package pins BLAS to one thread unless the caller chose."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _thread_env(code, **env):
    """The thread variables after `code` runs in a fresh interpreter whose
    environment holds none of them but `env`."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    clean.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import os, json\n{code}\n"
         f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS}}}))"],
        env=clean, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("caller,want", [(None, "1"), ("2", "2")])
def test_import_pins_blas_unless_the_caller_set_it(caller, want):
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    got = _thread_env("import qaoabench", **env)
    assert got["OPENBLAS_NUM_THREADS"] == want
    assert all(got[v] == "1" for v in THREAD_VARS
               if v != "OPENBLAS_NUM_THREADS")


def test_numpy_imported_first_keeps_its_threads():
    # numpy has already read the variables, so setting them would only
    # mislead
    got = _thread_env("import numpy\nimport qaoabench")
    assert got == {v: None for v in THREAD_VARS}
