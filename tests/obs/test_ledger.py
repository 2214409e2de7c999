"""Tests for the append-only cross-run performance ledger."""

import json
import os

import pytest

from repro.obs.ledger import (
    SCHEMA,
    Ledger,
    RunRecord,
    ledger_dir,
    new_run_id,
    record_from_artifact,
    validate_record,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import BenchArtifact


def _record(command="bench", name="smoke", **kw) -> RunRecord:
    rec = RunRecord(command=command, name=name, **kw)
    rec.add_metric("bit_cost", 1000)
    rec.add_metric("wall_seconds", 0.25, kind="wall")
    return rec


class TestRunRecord:
    def test_roundtrip(self):
        rec = _record(params={"degrees": [10, 15]})
        rec.phases = {"remainder": {"bit_cost": 600, "wall_ns": 10}}
        rec.reliability = {"executor.retries": 1}
        back = RunRecord.from_dict(rec.to_dict())
        assert back.to_dict() == rec.to_dict()
        assert back.metric("bit_cost") == 1000

    def test_dump_is_json_safe_and_versioned(self):
        d = json.loads(json.dumps(_record().to_dict()))
        assert d["schema"] == SCHEMA
        validate_record(d)

    def test_unique_sortable_run_ids(self):
        ids = [new_run_id() for _ in range(50)]
        assert len(set(ids)) == 50

    def test_rejects_bad_metric_kind(self):
        with pytest.raises(ValueError, match="kind"):
            _record().add_metric("x", 1, kind="weird")

    def test_env_fingerprint_stamped(self):
        assert "python" in _record().env


class TestValidateRecord:
    def test_rejects_wrong_schema(self):
        d = _record().to_dict()
        d["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            validate_record(d)

    def test_rejects_missing_run_id(self):
        d = _record().to_dict()
        d["run_id"] = ""
        with pytest.raises(ValueError, match="run_id"):
            validate_record(d)

    def test_rejects_malformed_metric(self):
        d = _record().to_dict()
        d["metrics"]["bad"] = {"value": 1}  # no kind
        with pytest.raises(ValueError, match="bad"):
            validate_record(d)


class TestRecordFromArtifact:
    def _artifact(self) -> BenchArtifact:
        a = BenchArtifact(name="smoke", params={"seed": 11})
        a.add_metric("bit_cost", 500)
        a.add_metric("executor.retries", 2)
        a.phases = {"tree": {"bit_cost": 100, "wall_ns": 5}}
        a.parallel = {"workers": 2, "efficiency": 0.8}
        return a

    def test_copies_artifact_sections(self):
        rec = record_from_artifact(self._artifact())
        assert rec.command == "bench" and rec.name == "smoke"
        assert rec.params == {"seed": 11}
        assert rec.metric("bit_cost") == 500
        assert rec.phases["tree"]["bit_cost"] == 100
        assert rec.parallel["workers"] == 2

    def test_reliability_from_registry(self):
        reg = MetricsRegistry()
        reg.counter("executor.retries").inc(7)
        rec = record_from_artifact(self._artifact(), registry=reg)
        assert rec.reliability["executor.retries"] == 7
        assert rec.reliability["executor.fallbacks"] == 0  # zero-filled

    def test_reliability_from_artifact_metrics_without_registry(self):
        rec = record_from_artifact(self._artifact())
        assert rec.reliability == {"executor.retries": 2}


class TestLedger:
    def test_append_and_read_back(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        path = led.append(_record())
        assert path == led.path("local") and os.path.exists(path)
        recs = led.records()
        assert len(recs) == 1 and recs[0].metric("bit_cost") == 1000

    def test_tiers_are_separate_files(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        led.append(_record(name="local-run"), tier="local")
        led.append(_record(name="committed-run"), tier="committed")
        assert [r.name for r in led.records("local")] == ["local-run"]
        assert [r.name for r in led.records("committed")] == ["committed-run"]
        assert {r.name for r in led.records("all")} == {
            "local-run", "committed-run"
        }

    def test_unknown_tier_rejected(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        with pytest.raises(ValueError, match="tier"):
            led.path("nope")

    def test_torn_tail_line_skipped(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        led.append(_record())
        with open(led.path("local"), "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.run-led')  # crash mid-append
        assert len(led.records()) == 1

    def test_append_after_a_torn_tail_is_read_back(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        led.append(_record(name="before"))
        with open(led.path("local"), "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.run-ledger/1", "run_id": "torn')
        led.append(_record(name="after"))
        assert [r.name for r in Ledger(root=str(tmp_path)).records()] == [
            "before", "after"]

    def test_records_sorted_oldest_first(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        led.append(_record(time_unix=200.0, name="later"))
        led.append(_record(time_unix=100.0, name="earlier"))
        assert [r.name for r in led.records()] == ["earlier", "later"]

    def test_query_filters_newest_first(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        led.append(_record(command="roots", time_unix=1.0))
        led.append(_record(command="bench", name="a", time_unix=2.0))
        led.append(_record(command="bench", name="b", time_unix=3.0))
        bench = led.query(command="bench")
        assert [r.name for r in bench] == ["b", "a"]
        assert len(led.query(command="bench", limit=1)) == 1
        assert [r.name for r in led.query(name="a")] == ["a"]

    def test_get_by_prefix(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        rec = _record()
        led.append(rec)
        assert led.get(rec.run_id).run_id == rec.run_id
        assert led.get(rec.run_id[:12]).run_id == rec.run_id
        with pytest.raises(KeyError):
            led.get("zzzz-no-such")

    def test_get_ambiguous_prefix(self, tmp_path):
        led = Ledger(root=str(tmp_path))
        a = _record(run_id="abc-1")
        b = _record(run_id="abc-2")
        led.append(a)
        led.append(b)
        with pytest.raises(ValueError, match="ambiguous"):
            led.get("abc")
        assert led.get("abc-1").run_id == "abc-1"

    def test_ledger_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "custom"))
        assert ledger_dir() == str(tmp_path / "custom")
        assert os.path.isdir(str(tmp_path / "custom"))
        led = Ledger()
        assert led.root == str(tmp_path / "custom")
