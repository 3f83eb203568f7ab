"""The numpy Halton set, the cached sphere rules, and a scipy-free load path."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from quadrix import unit_sphere_area
from quadrix._grids import DEFAULT_ORDER, _gegenbauer, halton, sphere_rule, tensor_rule

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


def sphere_moment(alpha) -> float:
    """Integral of prod x_i^alpha_i over the unit sphere S^{n-1}, n = len(alpha)."""
    if any(a % 2 for a in alpha):
        return 0.0
    return (2.0 * math.prod(math.gamma((a + 1) / 2.0) for a in alpha)
            / math.gamma((sum(alpha) + len(alpha)) / 2.0))


def assert_exact(nodes, weights, degree):
    """Every monomial of degree <= degree integrates to its moment within 1e-13."""
    n = nodes.shape[1]
    assert weights.shape == (len(nodes),)
    assert weights.sum() == pytest.approx(unit_sphere_area(n - 1), rel=1e-14)
    # powers[d, i] is the column x_i ** d
    powers = np.ascontiguousarray(nodes.T) ** np.arange(degree + 1)[:, None, None]
    for d in range(1, degree + 1):
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            # stars and bars: the exponents between consecutive bars sum to d
            edges = (-1,) + bars + (d + n - 1,)
            alpha = [hi - lo - 1 for lo, hi in zip(edges, edges[1:])]
            got = weights @ math.prod(powers[a, i] for i, a in enumerate(alpha))
            assert abs(got - sphere_moment(alpha)) <= 1e-13, alpha


class TestSphereRule:
    @pytest.mark.parametrize("m", [1, 2, 5, 10, 16, 64])
    def test_gegenbauer_half_is_gauss_legendre(self, m):
        u, w = _gegenbauer(m, 0.5)
        x, wx = leggauss(m)
        assert np.max(np.abs(u - x)) <= 1e-14
        assert np.max(np.abs(w - wx)) <= 1e-14

    # the engine's rule: tensor at n <= 4, fully symmetric at n = 5, 6
    @pytest.mark.parametrize("order, n", [(order, n) for n in range(2, 7) for order in range(3, 7)]
                             + [(order, n) for n in (5, 6) for order in (7, 8)])
    def test_exact_to_degree_2_order_minus_1(self, order, n):
        nodes, weights = sphere_rule(n, order)
        if n <= 4:
            assert nodes.shape == (2 * order ** (n - 1), n)
        assert_exact(nodes, weights, 2 * order - 1)

    # the rule of the lateral oracle at every n
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("order", range(3, 7))
    def test_tensor_rule_exact(self, order, n):
        nodes, weights = tensor_rule(n, order)
        assert nodes.shape == (2 * order ** (n - 1), n)
        assert_exact(nodes, weights, 2 * order - 1)

    # the default order's rule and its order - 2 partner have sizes fine, coarse
    @pytest.mark.parametrize("n, fine, coarse", [(5, 1970, 450), (6, 2364, 292)])
    def test_symmetric_rule_has_fewer_nodes(self, n, fine, coarse):
        order = DEFAULT_ORDER[n]
        assert (len(sphere_rule(n, order)[0]), len(sphere_rule(n, order - 2)[0])) == (fine, coarse)
        for order in range(3, 13):
            nodes, weights = sphere_rule(n, order)
            assert len(nodes) < 2 * order ** (n - 1)
            assert weights.sum() == pytest.approx(unit_sphere_area(n - 1), rel=1e-14)
            assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n", [5, 6])
    def test_symmetric_order_one_is_the_coordinate_cross(self, n):
        # the order-3 rule's coarse partner: k = 0 has no generator, so order
        # 1 is the order-2 rule, +-e_i with equal weights, exact to degree 3
        nodes, weights = sphere_rule(n, 1)
        assert sorted(map(tuple, nodes)) == sorted(map(tuple, np.vstack([np.eye(n), -np.eye(n)])))
        assert np.ptp(weights) == 0.0
        assert_exact(nodes, weights, 3)

    def test_one_dimensional_is_two_points(self):
        for order in (3, 4, 10):
            nodes, weights = sphere_rule(1, order)
            assert nodes.tolist() == [[1.0], [-1.0]] and weights.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("n, order", [(1, 3), (2, 16), (3, 10), (6, 6), (5, 7), (5, 3)])
    def test_cached_read_only(self, n, order):
        for rule_of in (sphere_rule, tensor_rule):
            rule = rule_of(n, order)
            assert rule_of(n, order) is rule
            for arr in rule:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0


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


_SCIPY_BLOCKED = textwrap.dedent("""
    import json, sys
    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
    import numpy as np
    from quadrix import quadrics as q
    from quadrix.cli import main
    for n in range(1, 7):
        a, x, k = tuple(np.linspace(1.0, 2.0, n)), np.full(n, 0.3), 1.0
        q.unit_ball_volume(n)
        q.unit_sphere_area(n - 1)
        for kind, h in (("elliptic_hyperboloid", 0.5), ("ellipsoid", -0.5),
                        ("elliptic_paraboloid", 0.5)):
            q.starred_oracle(kind, a, k, h, 2.0)
            q.invariant_constant(kind, a, k)
        q.hyperboloid_cap_volume(a, k, 0.5)
        q.hyperboloid_phi_prime(a, k, 0.5)
        q.hyperboloid_area_relation(a, k, 0.5, 2.0)
        q.ellipsoid_cap_volume(a, k, -0.5)
        q.ellipsoid_area_relation(a, k, -0.5, 2.0)
        q.paraboloid_starred(a, 0.5, 2.0)
        q.refutation_H(x, a, k)
        q.refutation_domain(x, k, 0.5).contains(x)
        q.hyperboloid_lateral_area(a, k, 0.5, x)
        if n < 6:  # at n = 6 each is the lateral oracle's mean_H pass again, about 1 s
            q.mean_H_over_domain(x, a, k, 0.5)
            q.refutation_theta(k, 0.5, a)
            q.mean_value_ratio(x, a, k, 0.5)
    print(json.dumps([main(args.split()) for args in sys.argv[1:]]))
""")


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
        cfg = _config(tmp_path, "n2.json", [1, 2], quadrature={"order": 12})
        codes, scipy_modules, numpy_ma = _fresh_cli(
            tmp_path,
            f"measures --config {cfg} --out m.csv",
            f"classify --config {cfg} --out c.json",
            "verify",
        )
        assert codes == [0, 0, 0]
        assert scipy_modules == []
        assert not numpy_ma  # the threshold median of classify and verify is sort based

    def test_oracles_and_commands_run_with_scipy_blocked(self, tmp_path):
        cfg = _config(tmp_path, "n2.json", [1, 2], quadrature={"order": 12})
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_BLOCKED, "verify", f"measures --config {cfg} --out m.csv",
             f"classify --config {cfg} --out c.json"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]

    def test_n4_measures_loads_only_scipy_special(self, tmp_path):
        # the sphere rule needs no scipy at any n, so this loads none at all
        cfg = _config(tmp_path, "n4.json", [1, 1.5, 2, 1], quadrature={"order": 6})
        codes, scipy_modules, _ = _fresh_cli(tmp_path, f"measures --config {cfg} --out m.csv")
        assert codes == [0]
        assert scipy_modules == []

    def test_n6_commands_load_no_scipy(self, tmp_path):
        cfg = _config(tmp_path, "n6.json", [1, 1.5, 2, 1, 1.2, 0.8])
        codes, scipy_modules, _ = _fresh_cli(
            tmp_path,
            f"measures --config {cfg} --out m.csv",
            f"sweep --config {cfg} --out s.csv",
            f"curvature --config {cfg} --out k.csv",
        )
        assert codes == [0, 0, 0]
        assert scipy_modules == []
