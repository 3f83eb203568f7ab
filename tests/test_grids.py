"""The numpy Halton set, the cached sphere direction sets, and a scipy-free load path."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from quadrix._grids import halton, sphere_directions

SRC = Path(__file__).resolve().parents[1] / "src"


class TestHalton:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1, 4242, 123456789])
    @pytest.mark.parametrize("count", [6, 50, 1025])
    def test_scrambled_equals_scipy(self, n, seed, count):
        want = qmc.Halton(d=n, scramble=True, seed=seed).random(count)
        got = halton(n, count, seed)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("count", [1, 50, 1025, 8193, 16385])
    def test_unscrambled_equals_scipy(self, n, count):
        want = qmc.Halton(d=n, scramble=False).random(count)
        assert halton(n, count).tobytes() == want.tobytes()

    def test_pinned_rows(self):
        # captured from scipy 1.17.1, so sampled points do not follow scipy's version
        assert halton(6, 3, 4242).tolist() == [
            [0.6367297369696291, 0.13311285726360797, 0.37949189371535985,
             0.3040937285844706, 0.6252034661515331, 0.7037007862749163],
            [0.1367297369696291, 0.7997795239302744, 0.7794918937153601,
             0.5898080142987565, 0.17065801160607866, 0.6267777093518394],
            [0.8867297369696291, 0.4664461905969412, 0.17949189371535984,
             0.018379442870185038, 0.8979307388788059, 0.16523924781337793],
        ]
        assert halton(2, 2, 123456789).tolist() == [
            [0.7769746935384481, 0.7804379161155163],
            [0.27697469353844806, 0.11377124944884977],
        ]
        assert halton(6, 8193)[-1].tolist() == [
            6.103515625e-05, 0.7128994563836814, 0.537088,
            0.3246266436603796, 0.7862850898162694, 0.19355064598578484,
        ]


class TestSphereDirections:
    def test_halton_gaussian_set_equals_scipy_construction(self):
        u = np.clip(qmc.Halton(d=4, scramble=False).random(8193)[1:], 1e-12, 1.0 - 1e-12)
        gauss = ndtri(u)
        want = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        got = sphere_directions(4, 8192)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous  # the layout, too, sets the rounding of later products

    @pytest.mark.parametrize("n, count", [(1, 2), (2, 64), (3, 128), (4, 8192)])
    def test_cached_read_only(self, n, count):
        u = sphere_directions(n, count)
        assert not u.flags.writeable
        assert sphere_directions(n, count) is u
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


_RUN_CLI = textwrap.dedent("""
    import json, sys
    from quadrix.cli import main
    codes = [main(args.split()) for args in sys.argv[1:]]
    print(json.dumps({"codes": codes,
                      "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                      "numpy_ma": "numpy.ma" in sys.modules}))
""")


def _fresh_cli(tmp_path, *commands):
    """Run CLI commands in a fresh interpreter.

    Returns the exit codes, the loaded scipy modules, and whether numpy.ma was loaded.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *commands],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["codes"], doc["scipy"], doc["numpy_ma"]


def _config(tmp_path, name, a, **extra):
    cfg = {
        "family": {"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": a}},
        "levels": [1.0],
        "offsets": [0.5],
        "points": {"count": 3, "seed": 4242, "box": [-0.5, 0.5]},
        **extra,
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLoadPath:
    def test_n2_commands_load_no_scipy(self, tmp_path):
        cfg = _config(tmp_path, "n2.json", [1, 2], quadrature={"directions": 256})
        codes, scipy_modules, numpy_ma = _fresh_cli(
            tmp_path,
            f"measures --config {cfg} --out m.csv",
            f"classify --config {cfg} --out c.json",
            "verify",
        )
        assert codes == [0, 0, 0]
        assert scipy_modules == []
        assert not numpy_ma  # the threshold median of classify and verify is sort based

    def test_n4_measures_loads_only_scipy_special(self, tmp_path):
        cfg = _config(tmp_path, "n4.json", [1, 1.5, 2, 1], quadrature={"directions": 512})
        codes, scipy_modules, _ = _fresh_cli(tmp_path, f"measures --config {cfg} --out m.csv")
        assert codes == [0]
        assert "scipy.special" in scipy_modules
        assert not [m for m in scipy_modules if m.startswith(("scipy.stats", "scipy.integrate"))]
