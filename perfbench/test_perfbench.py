"""Self-tests of the benchmark: its Fock oracle, its failure accounting and its tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cvsteer  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.workdir = Path(tmp.name)


class FockOracleTest(unittest.TestCase):
    def test_matches_fock_density_at_cutoff_7(self):
        worst = 0.0
        for channel, params in (("loss", np.linspace(0.05, 1.0, 6)), ("gain", np.linspace(1.0, 2.0, 6))):
            apply = cvsteer.apply_loss if channel == "loss" else cvsteer.apply_gain
            for r in np.linspace(0.0, 1.4, 8):
                for param in params:
                    rho = cvsteer.fock_density(apply(cvsteer.tmsv_covariance(r), param, "B"), 7, 7)
                    reference = oracles.fock_elements(channel, r, param, 7, 7)
                    worst = max(worst, np.abs(rho.elements - reference).max())
        self.assertLessEqual(worst, 1e-12)


class FailureAccountingTest(WorkdirCase):
    def run_ops(self, workload, count):
        tally = run.Tally()
        results = [run.attempt(workload, i, tally) for i in range(count)]
        return tally, results

    def test_wrong_result_is_counted_as_failed(self):
        class WrongOnce(workloads.Analyze):
            def run(self, params):
                gaussian, rho, n2, n3, witness = super().run(params)
                if params == self.params(2):
                    rho = cvsteer.FockDensity(rho.elements + 1e-9, rho.reduced_a, rho.reduced_b)
                return gaussian, rho, n2, n3, witness

        tally, results = self.run_ops(WrongOnce(7, self.workdir), 4)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertIsNone(results[2])
        self.assertIn("Fock elements", tally.notes[0])

    def test_refused_witness_is_counted_as_failed(self):
        class Undetected(workloads.Analyze):
            def params(self, i):
                return 1.3, 0.05

        tally, _ = self.run_ops(Undetected(7, self.workdir), 2)
        self.assertEqual(tally.failed, 2)
        self.assertIn("ValueError", tally.notes[0])

    def test_correct_ops_pass_on_every_workload(self):
        for cls in workloads.WORKLOADS.values():
            tally, _ = self.run_ops(cls(3, self.workdir), 2)
            self.assertEqual(tally.failed, 0, (cls.name, tally.notes))


class TracerTest(WorkdirCase):
    def trace(self, workload, ops):
        tally = run.Tally()
        with tracing.Tracer() as tracer:
            for i in range(ops):
                run.attempt(workload, i, tally, wrap=tracer.op)
        self.assertEqual(tally.failed, 0, tally.notes)
        return tracer

    def test_self_times_add_up_to_each_op(self):
        for workload, ops in ((workloads.Analyze(5, self.workdir), 5), (workloads.Sweep(5, self.workdir), 1)):
            tracer = self.trace(workload, ops)
            spans = tracer.spans
            own = tracing.self_times(spans)
            per_op = {}
            for span, self_s in zip(spans, own):
                self.assertIsNotNone(span[tracing.OP])
                per_op[span[tracing.OP]] = per_op.get(span[tracing.OP], 0.0) + self_s
            roots = [span for span in spans if span[tracing.NAME] == tracing.ROOT_SPAN]
            self.assertEqual(len(roots), ops)
            for root in roots:
                wall = root[tracing.END] - root[tracing.START]
                self.assertAlmostEqual(per_op[root[tracing.OP]], wall, delta=1e-9 * max(wall, 1.0))

    def test_stages_are_rebound_everywhere_and_restored(self):
        original = cvsteer.covariance.check_physical
        taylor = cvsteer.fock._exp_neg_quadratic
        binders = (cvsteer, cvsteer.covariance, cvsteer.fock, cvsteer.gaussian_criterion)
        with tracing.Tracer() as tracer:
            wrapped = cvsteer.covariance.check_physical
            self.assertIsNot(wrapped, original)
            for module in binders:
                self.assertIs(module.check_physical, wrapped)
            self.assertIsNot(cvsteer.fock._exp_neg_quadratic, taylor)
        for module in binders:
            self.assertIs(module.check_physical, original)
        self.assertIs(cvsteer.fock._exp_neg_quadratic, taylor)
        self.assertEqual(tracer.absent, [])

    def test_missing_stage_is_reported_absent(self):
        stages = dict(tracing.STAGES, fock=tracing.STAGES["fock"] + ("no_such_stage",), gone=("main",))
        with unittest.mock.patch.object(tracing, "STAGES", stages):
            tracer = self.trace(workloads.Fockdeep(5, self.workdir), 2)
        self.assertEqual(tracer.absent, ["fock.no_such_stage", "gone.main"])
        metrics = tracing.layer_metrics(tracer, ops=2, rows=1, bytes_out=0, overhead_frac=0.0)
        self.assertEqual(metrics["fock.density.calls"], 4)  # one loss and one gain state per op
        self.assertEqual(metrics["fock.taylor.entries"], 4 * 7**4)


if __name__ == "__main__":
    unittest.main()
