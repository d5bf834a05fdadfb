"""Tests of the benchmark itself.

    python3 bench/selftest.py        (about a minute on two cores)

Every output check must pass the program's real outputs on two seeds
other than the default 0, and must reject a deliberately corrupted copy of
them.  The benchmark's own reference computations are tested against
closed forms, and the tracer against its bookkeeping rules.
"""

import copy
import io
import math
import os
import sys
import unittest
from contextlib import redirect_stdout

import run

os.environ.update(run._fixed_env(False))
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import depin.cli as cli  # noqa: E402

SEEDS = (1, 2)
OUTDIR = run.OUT / "selftest"


class RealOutputs(unittest.TestCase):
    """One round of every workload on SEEDS; shared by the corruption tests."""

    data = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            for seed in SEEDS:
                outdir = OUTDIR / name / str(seed)
                rnd = run._run_round(cli, workloads.commands(name, seed, outdir), outdir)
                assert rnd["failed"] == 0, (name, seed)
                ref = checks.REFERENCE[name](wl.params, workloads.inputs(name, seed))
                cls.data[name, seed] = (checks.PARSE[name](rnd["outputs"]), ref)

    def fails(self, name, data, seed=SEEDS[0]):
        return checks.CHECK[name](data, self.data[name, seed][1],
                                  workloads.WORKLOADS[name].params)

    def corrupt(self, name):
        return copy.deepcopy(self.data[name, SEEDS[0]][0])

    def assert_rejected(self, name, data, needle):
        fails = self.fails(name, data)
        self.assertTrue(any(needle in f for f in fails), f"{needle!r} not in {fails}")

    def test_real_outputs_pass(self):
        for (name, seed), (data, _) in self.data.items():
            with self.subTest(workload=name, seed=seed):
                self.assertEqual(self.fails(name, data, seed), [])

    # smooth

    def test_smooth_hc_below_pure_critical_point(self):
        d = self.corrupt("smooth")
        d["hc"] = -0.01
        self.assert_rejected("smooth", d, "hc=")

    def test_smooth_hc_above_annealed_critical_point(self):
        d = self.corrupt("smooth")
        d["hc"] = 0.51
        self.assert_rejected("smooth", d, "hc=")

    def test_smooth_point_above_annealed(self):
        d = self.corrupt("smooth")
        dens = self.data["smooth", SEEDS[0]][1]["dens"]
        h, _, s = d["points"][0]
        d["points"][0][1] = checks.annealed_pinning(dens, 1.0, h) + 3.0 * s + 1e-3
        self.assert_rejected("smooth", d, "outside [0, F_ann")

    def test_smooth_point_below_zero(self):
        d = self.corrupt("smooth")
        d["points"][2][1] = -3.0 * d["points"][2][2] - 1e-3
        self.assert_rejected("smooth", d, "outside [0, F_ann")

    def test_smooth_delocalized_point_too_high(self):
        d = self.corrupt("smooth")
        p = d["points"][-1]
        self.assertGreater(p[0], d["hc"])
        p[1] = 3.0 * p[2] + 4.0 / 2048 + 1e-3
        self.assert_rejected("smooth", d, "delocalized F")

    def test_smooth_exponent_not_above_one(self):
        d = self.corrupt("smooth")
        d["exponent_err"] = 0.5 * (d["exponent"] - 1.0)
        self.assert_rejected("smooth", d, "exponent")

    def test_smooth_pure_slope_off(self):
        d = self.corrupt("smooth")
        d["pure_slope"] *= 1.02
        self.assert_rejected("smooth", d, "pure contrast")

    # pure

    def test_pure_hc_shifted(self):
        for i in range(2):
            d = self.corrupt("pure")
            d["hc"][i] += 0.01
            self.assert_rejected("pure", d, "hc=")

    def test_pure_b_off(self):
        d = self.corrupt("pure")
        h, b, loc = d["rows"][0]
        d["rows"][0] = (h, b * 1.002, loc)
        self.assert_rejected("pure", d, "b(")

    def test_pure_wrong_order(self):
        d = self.corrupt("pure")
        d["asymptotics"]["order"] = "first"
        self.assert_rejected("pure", d, "classified")

    # phi

    def test_phi_infeasible(self):
        d = self.corrupt("phi")
        m, v, s, _ = d["rows"][0]
        d["rows"][0] = (m, v, s, False)
        self.assert_rejected("phi", d, "infeasible")

    def test_phi_above_free_energy(self):
        d = self.corrupt("phi")
        ref = self.data["phi", SEEDS[0]][1]
        m, _, s, f = d["rows"][4]
        d["rows"][4] = (m, ref["f"] + 3.0 * math.hypot(s, ref["f_err"]) + 1e-3, s, f)
        self.assert_rejected("phi", d, "above F_N")

    def test_phi_not_concave(self):
        d = self.corrupt("phi")
        rows = d["rows"]
        m, _, s, f = rows[3]
        sig = math.sqrt(s**2 + 0.25 * rows[2][2] ** 2 + 0.25 * rows[4][2] ** 2)
        rows[3] = (m, 0.5 * (rows[2][1] + rows[4][1]) - 3.0 * sig - 1e-4, s, f)
        self.assert_rejected("phi", d, "midpoint-concave")

    # copolymer

    def test_copolymer_rising_in_h(self):
        d = self.corrupt("copolymer")
        rows = d["rows"]
        # the largest field gets a free energy above the one at the smallest
        first = min(range(len(rows)), key=lambda i: rows[i][1])
        last = max(range(len(rows)), key=lambda i: rows[i][1])
        n, h, _, s = rows[last]
        rows[last] = (n, h, rows[first][2] + 0.05, s)
        self.assert_rejected("copolymer", d, "rises")

    def test_copolymer_above_annealed(self):
        d = self.corrupt("copolymer")
        ref = self.data["copolymer", SEEDS[0]][1]
        n, h, _, s = d["rows"][0]
        d["rows"][0] = (n, h, ref["f_ann"][h] + 3.0 * s + 1e-3, s)
        self.assert_rejected("copolymer", d, "above F_ann")

    def test_copolymer_below_disorder_free(self):
        d = self.corrupt("copolymer")
        ref = self.data["copolymer", SEEDS[0]][1]
        n, h, _, s = d["rows"][-1]
        d["rows"][-1] = (n, h, ref["f0"][(n, h)] - 3.0 * s - 1e-3, s)
        self.assert_rejected("copolymer", d, "below log Z_N(0,h)/N")


class References(unittest.TestCase):
    """The benchmark's own computations against closed forms."""

    def test_kernels_normalized(self):
        self.assertAlmostEqual(checks.srw_density(512).sum(), 1.0, places=13)
        self.assertAlmostEqual(checks.geometric_density(0.5, 64).sum(), 1.0, places=13)
        self.assertAlmostEqual(checks.power_density(3.0, 64, 0.5).sum(), 0.5, places=13)

    def test_srw_atoms(self):
        dens = checks.srw_density(8)
        for m in range(1, 8):
            want = math.comb(2 * m, m) / ((2 * m - 1) * 4**m)
            self.assertAlmostEqual(dens[m - 1] / want, 1.0, places=12)

    def test_pinning_recursion_renewal_probability(self):
        # geometric renewal: P(N is a renewal point) = 1 - p for every N >= 1
        omega = np.zeros((2, 100))
        f = checks.pinning_free_energies(checks.geometric_density(0.5, 64), 0.0, 0.0, omega)
        np.testing.assert_allclose(f * 100, math.log(0.5), rtol=1e-13)

    def test_copolymer_recursion_return_probability(self):
        # at h = 0 every excursion weighs K(k): Z_N = P(S_N = 0) = C(N, N/2) / 2^N
        got = checks.copolymer_logz0(checks.srw_density(512), 2, 0.0, 64)
        self.assertAlmostEqual(got, math.log(math.comb(64, 32) / 2**64), places=12)

    def test_annealed_pinning_geometric(self):
        # sum (1-p) p^(n-1) e^(-bn) = e^h  <=>  b = log(1 - p + p e^h) - h
        for h in (-0.5, -0.05):
            want = math.log(0.5 + 0.5 * math.exp(h)) - h
            got = checks.annealed_pinning(checks.geometric_density(0.5, 400), 0.0, h)
            self.assertAlmostEqual(got / want, 1.0, places=10)
        self.assertEqual(checks.annealed_pinning(checks.geometric_density(0.5, 64), 1.0, 0.6),
                         0.0)

    def test_annealed_copolymer_phase(self):
        dens = checks.srw_density(512)
        self.assertEqual(checks.annealed_copolymer(dens, 2, 1.0, 0.5), 0.0)
        self.assertEqual(checks.annealed_copolymer(dens, 2, 1.0, 0.8), 0.0)
        self.assertGreater(checks.annealed_copolymer(dens, 2, 1.0, 0.4), 0.0)

    def test_srw_free_energy(self):
        # 1 - sqrt(1 - e^-2b) = e^h at the returned b
        for h in (-0.03, -0.004):
            b = checks.srw_free_energy(h)
            self.assertAlmostEqual(1.0 - math.sqrt(-math.expm1(-2.0 * b)), math.exp(h),
                                   places=14)


class Tracing(unittest.TestCase):

    def test_window_cells(self):
        for n, s, n_max in ((64, 1, 8), (64, 2, 512), (30, 1, 64)):
            want = sum(min(t, n_max) for t in range(1, n // s + 1))
            self.assertEqual(tracing.window_cells(n, s, n_max), want)

    def test_self_times_add_up_and_bindings_restored(self):
        import depin.engine
        import depin.estimator
        original = depin.estimator.log_partition_pinning
        tracer = tracing.Tracer()
        argv = ["fe", "--kernel", "geometric:p=0.5,n_max=16", "--beta", "1",
                "--h=-0.5,-0.2", "--N", "64", "--replicas", "2"]
        os.environ["DEPIN_THREADS"] = "1"
        try:
            with tracer.installed(), tracer.span("round", "bench"):
                with redirect_stdout(io.StringIO()):
                    self.assertEqual(cli.run(argv), 0)
        finally:
            os.environ.update(run._fixed_env(False))
        self.assertIs(depin.estimator.log_partition_pinning, original)
        self.assertIs(depin.engine.log_partition_pinning, original)
        spans = tracer.records()
        wall = spans[0]["end"] - spans[0]["start"]
        self.assertAlmostEqual(sum(s["self_s"] for s in spans), wall, delta=1e-9 * wall)
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["engine.pinning_calls"], 4)
        self.assertEqual(m["engine.pinning_cells"], 4 * tracing.window_cells(64, 1, 16))
        self.assertEqual(m["disorder.draws"], 4 * 64)
        self.assertEqual(m["kernel.builds"], 1)


if __name__ == "__main__":
    unittest.main()
