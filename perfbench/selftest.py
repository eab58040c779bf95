"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

They need no amenlab import and start no job process.
"""

import json
import math
import sys
import types
import unittest
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import NULL, Recorder, self_times, traced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _job(name, seed=workloads.DEFAULT_SEED):
    wl = next(w for w in workloads.WORKLOADS.values()
              if name in [j.name for j in w.build(seed)])
    return next(j for j in wl.build(seed) if j.name == name)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["root", 0.0, 10.0, None, "j"],
            ["a", 1.0, 4.0, 0, "j"],
            ["leaf", 2.0, 3.0, 1, "j"],
            ["b", 5.0, 9.0, 0, "j"],
            ["leaf", 8.0, 12.0, 3, "j"],  # overruns its parent: clipped there
            ["c", 6.0, 7.0, 3, "j"],
            ["c", 6.5, 7.5, 3, "j"],  # overlaps its sibling: counted once
        ]
        got = self_times(spans)
        want = {"root": 10 - 3 - 4, "a": 3 - 1, "leaf": 1 + 4, "b": 4 - 1.5 - 1, "c": 2}
        self.assertEqual(got.keys(), want.keys())
        for name, value in want.items():
            self.assertAlmostEqual(got[name], value, msg=name)

    def test_recorder_self_times_add_up(self):
        rec = Recorder("job-1")
        with rec.span("outer"):
            with rec.span("inner"):
                sum(range(10000))
            with rec.span("inner"):
                sum(range(10000))
        self.assertEqual([s[3] for s in rec.spans], [None, 0, 0])
        self.assertEqual({s[4] for s in rec.spans}, {"job-1"})
        outer = rec.spans[0][2] - rec.spans[0][1]
        self.assertAlmostEqual(sum(self_times(rec.spans).values()), outer, places=9)

    def test_traced_patch_is_undone(self):
        module = types.SimpleNamespace(f=lambda a, b: a + b)
        original = module.f
        rec = Recorder("j")
        with ExitStack() as stack:
            traced(stack, rec, module, "f", "layer.f", lambda args, r: ("layer.calls", r))
            self.assertEqual(module.f(2, 3), 5)
        self.assertIs(module.f, original)
        self.assertEqual([s[0] for s in rec.spans], ["layer.f"])
        self.assertEqual(rec.counts, {"layer.calls": 5})
        with ExitStack() as stack:
            traced(stack, NULL, module, "f", "layer.f")
            self.assertIs(module.f, original)


class Checks(unittest.TestCase):
    def _hardsq_result(self, rect_count):
        bits = math.log2(55447)
        body = f"i,size,bits,rate\n5,25,{bits:.6f},{bits / 25:.6f}\n"
        # no argv: the payload digest is not what this test exercises
        return {"steps": [{"out": body}], "rect_count": rect_count}

    def test_pinned_counts(self):
        job = _job("hardsq")
        self.assertEqual(workloads.check(job, self._hardsq_result(454385)), [])
        problems = workloads.check(job, self._hardsq_result(454384))
        self.assertTrue(any("5x6" in p for p in problems), problems)

    def test_corrupt_payloads_are_failures(self):
        job = _job("bernoulli")
        argv = job.inputs["argv"][0]
        for result in (
            None,
            "not a dict",
            {"steps": [{"argv": argv, "rc": 0, "out": "# amenlab\ngarbage\n"}]},
            {"steps": [{"argv": argv, "rc": 0, "out": ""}]},
            {"steps": [{"out": "estimator,i,size,bits,rate\nfreq,8,65536,x,y\n"}]},
        ):
            self.assertNotEqual(workloads.check(job, result), [], result)

    def test_exit_code_3_is_a_failure(self):
        job = _job("golden")
        step = {"argv": job.inputs["argv"][0], "rc": 3, "out": "# partial true\n"}
        problems = workloads.check(job, {"steps": [step]})
        self.assertTrue(any("exit code 3" in p for p in problems), problems)


class Inputs(unittest.TestCase):
    def test_seeded_inputs(self):
        for wl in workloads.WORKLOADS.values():
            self.assertEqual(wl.build(7), wl.build(7))
        for name in ("brudno", "codec"):
            build = workloads.WORKLOADS[name].build
            self.assertNotEqual([j.inputs for j in build(7)], [j.inputs for j in build(8)])

    def test_no_flags_planned_for_deletion(self):
        for wl in workloads.WORKLOADS.values():
            for job in wl.build(workloads.DEFAULT_SEED):
                for argv in job.inputs.get("argv", ()):
                    self.assertNotIn("--threads", argv)

    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [tuple(m) for m in workloads.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in workloads.PER_LAYER])
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])


if __name__ == "__main__":
    unittest.main()
