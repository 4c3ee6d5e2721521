"""The benchmark's failure paths: strict flags, and corrupted inputs that
must end a run with a nonzero exit and no result. Run from the
repository root with

    python3 -m unittest discover -s perfbench/tests

The harness tests need the harness binary that a benchmark run builds
(python3 perfbench/run.py ...); they are skipped until it exists.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

HARNESS = os.path.join(run.build_dir(), "perfbench_harness")


def flip_byte(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        b = f.read(1)
        f.seek(offset)
        f.write(bytes([b[0] ^ 0x40]))


class RunFlags(unittest.TestCase):
    def exit_code(self, argv):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as cm:
            run.parse_args(argv)
        return cm.exception.code

    def test_rejects_bad_flags_with_exit_2(self):
        good = ["--workload", "city_capture", "--seed", "1", "--seconds", "5", "--trace", "0"]
        self.assertEqual(run.parse_args(good).seed, 1)
        self.assertEqual(self.exit_code(good + ["--extra", "1"]), 2)
        self.assertEqual(self.exit_code(good[:2] + ["--seed", "x"] + good[4:]), 2)
        self.assertEqual(self.exit_code(good[:4] + ["--seconds", "0"] + good[6:]), 2)
        self.assertEqual(self.exit_code(good[:6] + ["--trace", "2"]), 2)
        self.assertEqual(self.exit_code(["--workload", "nope"] + good[2:]), 2)
        self.assertEqual(self.exit_code(["--work", "city_capture"] + good[2:]), 2)


@unittest.skipUnless(os.path.exists(HARNESS), "harness not built yet")
class HarnessChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def harness(self, *args):
        return subprocess.run([HARNESS, *args], capture_output=True, text=True, timeout=120)

    def test_strict_flags_exit_2(self):
        spool = os.path.join(self.tmp.name, "s")
        base = ["gen-spool", "--hours", "1", "--shards", "1", "--threads", "1",
                "--seed", "1", "--spool", spool, "--setups", "1"]
        for bad in (["--houses", "0"], ["--houses", "1x"], ["--houses", "-3"],
                    ["--houses", "2", "--bogus", "1"]):
            proc = self.harness(*base, *bad)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "")
        self.assertEqual(self.harness("no-such-command").returncode, 2)

    def test_flipped_spool_byte_fails_both_studies(self):
        spool = os.path.join(self.tmp.name, "spool")
        gen = self.harness("gen-spool", "--houses", "3", "--hours", "1", "--shards", "1",
                           "--threads", "1", "--seed", "5", "--spool", spool, "--setups", "1")
        self.assertEqual(gen.returncode, 0, gen.stderr)
        summary = os.path.join(self.tmp.name, "summary.txt")
        ok = self.harness("study-online", "--spool", spool, "--seconds", "1",
                          "--summary", summary)
        self.assertEqual(ok.returncode, 0, ok.stderr)
        segment = sorted(f for f in os.listdir(spool) if f.startswith("dns-"))[0]
        path = os.path.join(spool, segment)
        flip_byte(path, os.path.getsize(path) // 2)
        for command in ("study-batch", "study-online"):
            proc = self.harness(command, "--spool", spool, "--seconds", "1",
                                "--summary", summary)
            self.assertEqual(proc.returncode, 1, command)
            self.assertNotIn('"ok"', proc.stdout)

    def test_flipped_frame_byte_fails_the_rung(self):
        frames = os.path.join(self.tmp.name, "frames.bin")
        reference = os.path.join(self.tmp.name, "reference.json")
        gen = self.harness("serve-gen", "--houses", "4", "--minutes", "30", "--shards", "1",
                           "--threads", "1", "--seed", "3", "--frame-records", "64",
                           "--rung-records", "1000", "--frames", frames,
                           "--reference", reference, "--setups", "1")
        self.assertEqual(gen.returncode, 0, gen.stderr)
        rung = run.serve_rung(HARNESS, self.tmp.name, 50_000, frames, reference, None)
        self.assertEqual(rung.step.failed_frames(), 0)
        flip_byte(frames, os.path.getsize(frames) // 2)
        with self.assertRaises(run.CheckFailed):
            run.serve_rung(HARNESS, self.tmp.name, 50_000, frames, reference, None)

    def test_report_is_one_json_line(self):
        spool = os.path.join(self.tmp.name, "spool")
        gen = self.harness("gen-spool", "--houses", "2", "--hours", "1", "--shards", "1",
                           "--threads", "1", "--seed", "9", "--spool", spool, "--setups", "1")
        report = json.loads(gen.stdout.strip().splitlines()[-1])
        self.assertTrue(report["ok"])
        self.assertGreater(report["metrics"]["records"], 0)
        self.assertIn("build_type", report["info"])


if __name__ == "__main__":
    unittest.main()
