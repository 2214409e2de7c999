"""Checkpoint/resume: file-format unit tests, executor integration, and
the end-to-end kill-and-resume round trip through the ``repro batch``
CLI (the batch dies by SIGKILL mid-run, a rerun with the same
checkpoint completes bit-exactly without re-solving)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.rootfinder import RealRootFinder
from repro.poly.dense import IntPoly
from repro.resilience import BatchCheckpoint, CheckpointMismatch, poly_key

MU = 16
ROOT_SETS = ["-3,0,2", "1,4", "-2,5", "0,6,9", "2,3,4"]
POLYS = [IntPoly.from_roots([int(r) for r in s.split(",")])
         for s in ROOT_SETS]


class TestPolyKey:
    def test_stable_and_parameter_sensitive(self):
        k = poly_key([1, 2, 3], 16, "hybrid")
        assert k == poly_key([1, 2, 3], 16, "hybrid")
        assert k != poly_key([1, 2, 4], 16, "hybrid")
        assert k != poly_key([1, 2, 3], 17, "hybrid")
        assert k != poly_key([1, 2, 3], 16, "newton")

    def test_huge_coefficients_are_exact(self):
        big = 10**100
        assert poly_key([big], 16, "hybrid") != poly_key([big + 1], 16,
                                                         "hybrid")

    def test_no_digit_bleed_between_coeffs_and_mu(self):
        # ([1, 23], mu=4) vs ([1, 2], mu=34): a flat join like
        # "1 23 4" / "1 2 34" would collide; the JSON-canonical list
        # structure must keep the fields apart.
        assert poly_key([1, 23], 4, "hybrid") != poly_key([1, 2], 34,
                                                          "hybrid")
        assert poly_key([12], 3, "hybrid") != poly_key([1], 23, "hybrid")

    def test_no_digit_bleed_between_adjacent_coeffs(self):
        assert poly_key([1, 23], 16, "h") != poly_key([12, 3], 16, "h")
        assert poly_key([1, -2], 16, "h") != poly_key([1], -216, "h")

    def test_adversarial_strategy_strings_cannot_collide(self):
        # A strategy containing the payload's own delimiters (quotes,
        # commas, brackets) must hash differently from the job whose
        # fields it tries to imitate.
        k_plain = poly_key([1, 2], 16, "hybrid")
        k_spoof = poly_key([1], 16, '2"],16,"hybrid')
        assert k_plain != k_spoof
        assert (poly_key([1], 2, 'a","b')
                != poly_key([1], 2, 'a"') != poly_key([1], 2, "a"))

    def test_non_ascii_strategy_is_hashable_and_distinct(self):
        assert poly_key([1], 16, "hybrideé") != poly_key([1], 16,
                                                              "hybridee")

    def test_bool_coefficients_normalize_to_ints(self):
        # json would render True as "True" != "1"; int-normalization
        # keeps numeric look-alikes on one key.
        assert poly_key([True, 0], 16, "h") == poly_key([1, 0], 16, "h")
        assert poly_key([1, 0], True, "h") == poly_key([1, 0], 1, "h")

    def test_non_string_strategy_rejected(self):
        with pytest.raises(TypeError, match="strategy"):
            poly_key([1, 2], 16, None)

    def test_existing_integer_keys_unchanged(self):
        # The hardening must keep every old checkpoint readable: the
        # canonical payload for plain int inputs is byte-identical, so
        # the digest is pinned here against the pre-fix encoding.
        import hashlib

        payload = '[["1","-2","3"],16,"hybrid"]'
        expected = hashlib.sha256(payload.encode("ascii")).hexdigest()
        assert poly_key([1, -2, 3], 16, "hybrid") == expected


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with BatchCheckpoint(path, MU, "hybrid") as ck:
            key = ck.key_for([1, 2, 3])
            assert ck.get(key) is None
            ck.record(key, 0, [-(1 << MU), 5 << MU])
        with BatchCheckpoint(path, MU, "hybrid") as ck2:
            assert ck2.get(key) == [-(1 << MU), 5 << MU]
            assert ck2.dropped_lines == 0

    def test_mismatched_parameters_rejected(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        BatchCheckpoint(path, MU, "hybrid").close()
        with pytest.raises(CheckpointMismatch, match="mu_bits"):
            BatchCheckpoint(path, MU + 1, "hybrid")
        with pytest.raises(CheckpointMismatch):
            BatchCheckpoint(path, MU, "newton")

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "notack.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": "something-else"}) + "\n")
        with pytest.raises(CheckpointMismatch, match="not a"):
            BatchCheckpoint(path, MU, "hybrid")

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with BatchCheckpoint(path, MU, "hybrid") as ck:
            k1 = ck.key_for([1, 1])
            ck.record(k1, 0, [7])
        with open(path, "a") as fh:
            fh.write('{"key": "deadbeef", "scaled": ["1", "2"')  # the kill
        with BatchCheckpoint(path, MU, "hybrid") as ck2:
            assert ck2.dropped_lines == 1
            assert ck2.get(k1) == [7]
            assert ck2.get("deadbeef") is None

    def test_record_after_a_torn_tail_survives_reload(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with BatchCheckpoint(path, MU, "hybrid") as ck:
            k1 = ck.key_for([1, 1])
            ck.record(k1, 0, [7])
        with open(path, "a") as fh:
            fh.write('{"key": "torn')               # the kill
        with BatchCheckpoint(path, MU, "hybrid") as ck2:
            k2 = ck2.key_for([2, 1])
            ck2.record(k2, 1, [-9])
        with BatchCheckpoint(path, MU, "hybrid") as ck3:
            assert ck3.get(k1) == [7]
            assert ck3.get(k2) == [-9]
            assert ck3.dropped_lines == 1

    def test_duplicate_record_is_single_entry(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with BatchCheckpoint(path, MU, "hybrid") as ck:
            key = ck.key_for([0, 1])
            ck.record(key, 0, [0])
            ck.record(key, 3, [999])  # ignored: first write wins
        with BatchCheckpoint(path, MU, "hybrid") as ck2:
            assert ck2.get(key) == [0]
        with open(path) as fh:
            assert len(fh.readlines()) == 2  # header + one entry

    def test_big_scaled_values_survive_json(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        huge = -(10**60)
        with BatchCheckpoint(path, MU, "hybrid") as ck:
            ck.record(ck.key_for([5]), 0, [huge])
        with BatchCheckpoint(path, MU, "hybrid") as ck2:
            assert ck2.get(ck2.key_for([5])) == [huge]


@pytest.mark.slow
class TestExecutorCheckpoint:
    def test_find_roots_many_uses_and_fills_checkpoint(self, tmp_path):
        from repro.sched.executor import ParallelRootFinder

        path = str(tmp_path / "ck.jsonl")
        refs = [RealRootFinder(mu_bits=MU).find_roots(p).scaled
                for p in POLYS[:3]]
        with ParallelRootFinder(mu=MU, processes=2) as finder:
            with BatchCheckpoint(path, MU, "hybrid") as ck:
                assert finder.find_roots_many(POLYS[:3], checkpoint=ck) == refs
                assert ck.hits == 0
            with BatchCheckpoint(path, MU, "hybrid") as ck2:
                # Second run: everything answered from the checkpoint.
                assert finder.find_roots_many(POLYS[:3],
                                              checkpoint=ck2) == refs
                assert ck2.hits == 3
            assert finder.metrics.counter(
                "executor.checkpoint_hits").value == 3


def _run_batch(args, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        [sys.executable, "-m", "repro", "batch", "--bits", str(MU),
         "--roots-sets=" + ";".join(ROOT_SETS), "--json", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )


@pytest.mark.slow
class TestBatchKillResume:
    def test_killed_batch_resumes_bit_exactly(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")

        # 1. The batch is SIGKILLed after 2 durably recorded results
        #    (deterministic mid-run death via the hidden test hook).
        dead = _run_batch(["--checkpoint", ck, "--fault-exit-after", "2"])
        assert dead.returncode == -9, dead.stderr
        with open(ck) as fh:
            lines = fh.readlines()
        assert len(lines) == 3  # header + exactly 2 durable entries

        # 2. Resume with the same checkpoint: completes, reports the
        #    2 recovered results, and solves only the remaining 3.
        resumed = _run_batch(["--checkpoint", ck])
        assert resumed.returncode == 0, resumed.stderr
        out = json.loads(resumed.stdout)
        assert out["resumed"] == 2

        # 3. Bit-exact union with an uninterrupted run.
        plain = _run_batch([])
        assert plain.returncode == 0, plain.stderr
        assert out["results"] == json.loads(plain.stdout)["results"]

        # 4. No re-solving happened: the checkpoint gained exactly the
        #    3 missing entries, and the first 2 were not rewritten.
        with open(ck) as fh:
            final = fh.readlines()
        assert len(final) == 6  # header + 5 entries
        assert final[:3] == lines

    def test_resume_with_wrong_precision_fails_loudly(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        done = _run_batch(["--checkpoint", ck])
        assert done.returncode == 0, done.stderr
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        clash = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "--bits", str(MU + 1),
             "--roots-sets=" + ";".join(ROOT_SETS), "--checkpoint", ck],
            capture_output=True, text=True, timeout=240, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
        )
        assert clash.returncode != 0
        assert "checkpoint" in clash.stderr.lower()
