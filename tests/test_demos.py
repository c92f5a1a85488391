"""Every demo script runs to completion against the current package and
prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finprob

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_set_algebras": "5d695394b4e1fbb674837b1ca4940e8c8d2e8ca70f1799527735e24d82a8dbb0",
    "02_measures_and_integration": "5822ab1377e86acb43b8abd5356e36c2c76550552e6aeb3babe4c225ebc1571a",
    "03_reconstruction": "eb0172b88eeec95051ba48dfee2ebd450f5e7d5bf2344b15065ad5539072f3ea",
    "04_monad_laws": "70dfc91e9bd3d341965b97be49c3f07c298f8d9e645e4bee76eb268496f7847a",
    "05_codensity_cones": "0bd30016837391ed228b3549e200cc0ffe69043a6422bba7118d2ff7610ff839",
    "06_extension": "556eebaa96d93058386a5cc41c6c20d1a250c6f9a80f5b53b4730b9132c6e867",
    "07_lipschitz_distance": "c6df397555ca48e0b9a949f2abd0be966a19c4ecc53914badcb4887c71dcf7d7",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(finprob.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem], done.stdout


def test_demos_are_found():
    assert DEMOS
    assert sorted(d.stem for d in DEMOS) == sorted(STDOUT_SHA256)
