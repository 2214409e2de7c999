"""The durable JSONL primitive: append, fsync batching, rotation, torn
lines, atomic rewrite, and the two failure policies."""

import json
import os

import pytest

from repro.obs.jsonl import JsonlWriter, read_jsonl, rewrite
from repro.obs.metrics import MetricsRegistry


def rec_line(rid):
    return json.dumps({"request_id": rid, "stages": [1, 2, 3]},
                      separators=(",", ":"))


def ids(path):
    return [r["request_id"] for r in read_jsonl(path)[0]]


class TestJsonlWriter:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        log = JsonlWriter(path)
        assert log.write(rec_line("a")) and log.write(rec_line("b"))
        log.close()
        log.close()                       # idempotent
        assert read_jsonl(path) == ([json.loads(rec_line("a")),
                                     json.loads(rec_line("b"))], 0)

    def test_rotation_keeps_one_generation(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        line_len = len(rec_line("r-0")) + 1
        log = JsonlWriter(path, max_bytes=line_len * 2 + 10)
        for i in range(6):
            log.write(rec_line(f"r-{i}"))
        log.close()
        assert os.path.exists(path + ".1")
        # The rotated generation holds the lines before the live file's.
        assert ids(path + ".1") + ids(path) == ["r-2", "r-3", "r-4", "r-5"]
        assert os.path.getsize(path) <= line_len * 2 + 10
        # Only one rotated generation is kept.
        assert not os.path.exists(path + ".2")

    def test_reader_skips_torn_and_blank_lines(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"request_id": "good-1"}) + "\n")
            fh.write("\n")
            fh.write('{"request_id": "torn-')        # no newline, cut
        assert read_jsonl(path) == ([{"request_id": "good-1"}], 1)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "nope.jsonl")) == ([], 0)

    def test_fsync_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlWriter(str(tmp_path / "a.jsonl"), fsync_interval=0)

    def test_fsync_interval_batches(self, tmp_path, monkeypatch):
        import os as _os

        synced = []
        real_fsync = _os.fsync
        monkeypatch.setattr("repro.obs.jsonl.os.fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        log = JsonlWriter(str(tmp_path / "a.jsonl"), fsync_interval=2)
        log.write(rec_line("a"))
        assert synced == []              # below the interval: flushed only
        log.write(rec_line("b"))
        assert len(synced) == 1          # every 2nd line hits the platter
        log.write(rec_line("c"))
        log.close()                      # close always fsyncs the rest
        assert len(synced) == 2

    def test_write_after_close_is_noop(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        log = JsonlWriter(path)
        log.close()
        assert log.write(rec_line("late")) is False
        assert read_jsonl(path) == ([], 0)

    def test_torn_tail_is_ended_before_the_first_append(self, tmp_path):
        path = str(tmp_path / "a.jsonl")
        with open(path, "w") as fh:
            fh.write(rec_line("a") + "\n" + '{"request_id": "to')
        log = JsonlWriter(path)
        with open(path) as fh:           # opening alone changes nothing
            assert fh.read().endswith('"to')
        log.write(rec_line("b"))
        log.close()
        assert ids(path) == ["a", "b"]
        assert read_jsonl(path)[1] == 1  # the cut line stays torn

    def test_parent_directories_created(self, tmp_path):
        path = str(tmp_path / "x" / "y" / "a.jsonl")
        with JsonlWriter(path) as log:
            log.write(rec_line("a"))
        assert ids(path) == ["a"]


class TestFailurePolicy:
    def test_default_policy_raises(self, tmp_path):
        log = JsonlWriter(str(tmp_path / "a.jsonl"))
        log.fail_writes_after = 0
        with pytest.raises(OSError):
            log.write(rec_line("a"))
        log.close()

    def test_counted_policy_stops_the_log(self, tmp_path):
        path = str(tmp_path / "a.jsonl")
        errors = MetricsRegistry().counter("x.errors")
        log = JsonlWriter(path, errors=errors)
        log.fail_writes_after = 1
        assert log.write(rec_line("a")) is True
        assert log.write(rec_line("b")) is False     # injected ENOSPC
        assert log.write(rec_line("c")) is False     # stopped
        assert log.broken and errors.value == 1
        log.close()
        assert ids(path) == ["a"]

    def test_counted_fsync_failure_on_close(self, tmp_path, monkeypatch):
        def enospc(fd):
            raise OSError(28, "No space left on device")

        errors = MetricsRegistry().counter("x.errors")
        log = JsonlWriter(str(tmp_path / "a.jsonl"), fsync_interval=8,
                          errors=errors)
        log.write(rec_line("a"))
        monkeypatch.setattr("repro.obs.jsonl.os.fsync", enospc)
        log.close()                      # counted, never raised
        assert errors.value == 1 and log.broken
        assert log.write(rec_line("b")) is False


class TestRewrite:
    def test_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write("old\n")
        rewrite(path, ['{"a":1}', '{"b":2}'])
        with open(path, "rb") as fh:
            assert fh.read() == b'{"a":1}\n{"b":2}\n'
        assert not os.path.exists(path + ".tmp")
        rewrite(path, [])
        assert os.path.getsize(path) == 0

    def test_failure_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write('{"keep":1}\n')

        def enospc(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.obs.jsonl.os.fsync", enospc)
        with pytest.raises(OSError):
            rewrite(path, ['{"new":1}'])
        assert read_jsonl(path) == ([{"keep": 1}], 0)
        assert not os.path.exists(path + ".tmp")
