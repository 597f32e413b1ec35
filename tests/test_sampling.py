import os
import subprocess
import sys

import numpy as np
from scipy.stats import qmc

import linsing
from linsing.sampling import halton_box


def test_halton_box_matches_scipy_bit_for_bit():
    for d in (1, 2, 3, 6, 8, 10):
        names = [f"v{i}" for i in range(d)]
        for n in (1, 2, 600, 1500):
            expected = -1 + 2 * qmc.Halton(d=d, scramble=False).random(n)
            assert np.array_equal(halton_box(names, None, n), expected), (d, n)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(linsing.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # scipy, mpmath and hypothesis are test-only: none is on the CLI's import path
    code = ("import linsing.cli, sys; "
            "loaded = {m.split('.')[0] for m in sys.modules}; "
            "assert not loaded & {'scipy', 'mpmath', 'hypothesis'}, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
