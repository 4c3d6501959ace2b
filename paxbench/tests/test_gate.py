"""The correctness gate must catch a planted wrong expected value.

Builds the benchmark (through run.py) and runs one short persist workload
and one short kv workload with --corrupt-expected, which plants exactly one
wrong expected value before each gate runs: the run must report it as a
failure, set correct to false and exit non-zero. Takes about a minute.

    python3 -m unittest discover -s paxbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class GateTest(unittest.TestCase):
    def test_persist_gate_catches_planted_mismatch(self):
        code, clean = run("persist_sparse")
        self.assertEqual(code, 0)
        self.assertTrue(clean["correct"])
        self.assertEqual(clean["failed"], 0)

        code, bad = run("persist_sparse", "--corrupt-expected")
        self.assertNotEqual(code, 0)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], 1)  # the one planted word

    def test_kv_gate_catches_planted_mismatch(self):
        code, bad = run("kv_write", "--corrupt-expected")
        self.assertNotEqual(code, 0)
        self.assertFalse(bad["correct"])
        # One planted key in the live client's gate, one in the replay's.
        self.assertEqual(bad["failed"], 2)


if __name__ == "__main__":
    unittest.main()
