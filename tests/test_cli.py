"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestRoots:
    def test_roots_demo(self, capsys):
        assert main(["roots", "--roots=-3,0,2", "--digits", "6"]) == 0
        out = capsys.readouterr().out
        assert "3 distinct real roots" in out
        assert "-3.0" in out

    def test_coeffs_json(self, capsys):
        assert main(["roots", "--coeffs=-2,0,1", "--bits", "20",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu_bits"] == 20
        assert len(data["floats"]) == 2
        assert data["floats"][1] == pytest.approx(2**0.5, abs=1e-5)

    def test_root_beyond_float_range(self, capsys):
        # 10**400 overflows a float: the float view is null, the
        # exact scaled root is still printed.
        coeffs = f"--coeffs=-1{'0' * 400},1"
        assert main(["roots", coeffs, "--bits", "16", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scaled"] == [str(10**400 << 16)]
        assert data["floats"] == [None]
        json.dumps(data, allow_nan=False)     # strict JSON

    def test_certify_flag(self, capsys):
        assert main(["roots", "--roots=1,5", "--digits", "4",
                     "--certify"]) == 0
        assert "certified" in capsys.readouterr().err

    def test_strategy_flag(self, capsys):
        assert main(["roots", "--roots=1,5", "--digits", "4",
                     "--strategy", "bisection"]) == 0

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["roots", "--digits", "4"])

    def test_multiplicity_display(self, capsys):
        assert main(["roots", "--roots=2,2,7", "--digits", "5"]) == 0
        assert "multiplicity 2" in capsys.readouterr().out


class TestEigvals:
    def test_random_matrix(self, capsys):
        assert main(["eigvals", "--n", "6", "--seed", "3",
                     "--digits", "8"]) == 0
        out = capsys.readouterr().out
        assert "degree 6" in out

    def test_matrix_file(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text("[[2, 0], [0, 5]]")
        assert main(["eigvals", "--matrix", str(f), "--digits", "6"]) == 0
        out = capsys.readouterr().out
        assert "+2.0" in out and "+5.0" in out


class TestSpeedup:
    def test_speedup_output(self, capsys):
        assert main(["speedup", "--roots=1,3,6,10,15,21",
                     "--digits", "8", "--processors", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "p=1" in out and "p=4" in out and "T1/Tinf" in out

    def test_queue_overhead_flag(self, capsys):
        assert main(["speedup", "--roots=1,3,6,10",
                     "--digits", "6", "--processors", "1,8",
                     "--queue-overhead", "100000"]) == 0

    def test_sequential_remainder_flag(self, capsys):
        assert main(["speedup", "--roots=1,3,6,10", "--digits", "6",
                     "--processors", "1,2", "--sequential-remainder"]) == 0


class TestBatch:
    @pytest.mark.slow
    def test_batch_roots_sets(self, capsys):
        assert main(["batch", "--roots-sets=-3,0,2;1,4", "--digits", "6",
                     "--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 polynomials" in out
        assert "0 sequential fallbacks" in out
        assert "-3.0" in out and "+4.0" in out

    @pytest.mark.slow
    def test_batch_file_json(self, tmp_path, capsys):
        f = tmp_path / "polys.jsonl"
        f.write_text('[-2, 0, 1]\n{"coeffs": [-6, 1, 1]}\n\n')
        assert main(["batch", "--file", str(f), "--bits", "16",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 2
        assert data["processes"] == 2
        assert data["results"][0]["floats"][1] == pytest.approx(
            2 ** 0.5, abs=1e-3
        )
        assert data["results"][1]["floats"] == pytest.approx(
            [-3.0, 2.0], abs=1e-3
        )

    @pytest.mark.slow
    def test_batch_chrome_trace_has_worker_lanes(self, tmp_path, capsys):
        path = str(tmp_path / "batch.json")
        assert main(["batch", "--roots-sets=-5,1,6;2,9", "--digits", "6",
                     "--chrome-trace", path]) == 0
        with open(path) as fh:
            trace = json.load(fh)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "pool.spawn" in names and "executor.batch" in names
        assert "gap" in names  # adopted worker spans

    def test_batch_requires_input(self):
        with pytest.raises(SystemExit):
            main(["batch"])

    def test_batch_rejects_bad_file(self, tmp_path):
        f = tmp_path / "bad.jsonl"
        f.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["batch", "--file", str(f)])


class TestReport:
    def test_report_output(self, capsys):
        assert main(["report", "--roots=2,4,9", "--digits", "8"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "interval solver" in out

    def test_report_lists_paper_phases(self, capsys):
        assert main(["report", "--roots=-9,-5,-2,1,4,8", "--digits", "10"]) == 0
        out = capsys.readouterr().out
        for phase in ("remainder", "tree", "interval."):
            assert phase in out

    def test_report_from_coeffs(self, capsys):
        assert main(["report", "--coeffs=-2,0,1", "--bits", "16"]) == 0
        out = capsys.readouterr().out
        assert "1 roots" in out or "2 roots" in out

    def test_report_case_counts_are_consistent(self, capsys):
        assert main(["report", "--roots=1,2,3,4", "--digits", "6"]) == 0
        out = capsys.readouterr().out
        assert "cases" in out and "solves" in out

    @pytest.mark.slow
    def test_report_parallel_prints_rollup(self, capsys):
        assert main(["report", "--roots=-6,-1,3,8", "--digits", "6",
                     "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out and "efficiency" in out


class TestBench:
    _FAST = ["bench", "--degrees", "6,8", "--digits", "4",
             "--processes", "0"]

    def test_bench_writes_schema_valid_artifact(self, tmp_path, capsys):
        from repro.obs.perf import read_artifact

        out = str(tmp_path / "BENCH_t.json")
        assert main(self._FAST + ["--name", "t", "--out", out]) == 0
        art = read_artifact(out)
        assert art.name == "t"
        assert art.params["degrees"] == [6, 8]
        assert art.metric("n6.mu4.bit_cost") > 0
        assert art.metrics["wall_seconds"]["kind"] == "wall"
        assert "interval.newton_iters" in art.histograms
        assert "tree" in art.phases
        assert "wrote" in capsys.readouterr().out

    def test_bench_phase_rows_come_from_the_counter(self, tmp_path,
                                                    capsys):
        from repro.obs.perf import read_artifact

        out = str(tmp_path / "BENCH_t.json")
        assert main(self._FAST + ["--out", out, "--no-ledger"]) == 0
        phases = read_artifact(out).phases
        assert all(isinstance(row["wall_ns"], int)
                   for row in phases.values())
        for ph in ("remainder", "tree", "interval.preinterval",
                   "interval.sieve", "interval.bisection",
                   "interval.newton"):
            assert phases[ph]["wall_ns"] > 0, ph
            assert phases[ph]["bit_cost"] > 0, ph
        # Span phases are not counter phases.
        assert "" not in phases and "interval" not in phases

    def test_bench_check_passes_against_identical_run(self, tmp_path,
                                                      capsys):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        assert main(self._FAST + ["--out", base]) == 0
        assert main(self._FAST + ["--out", cur, "--check", base]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_bench_check_fails_on_count_drift(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        assert main(self._FAST + ["--out", base]) == 0
        doc = json.loads(open(base).read())
        doc["metrics"]["bit_cost"]["value"] += 1
        with open(base, "w") as fh:
            json.dump(doc, fh)
        cur = str(tmp_path / "cur.json")
        assert main(self._FAST + ["--out", cur, "--check", base]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bit_cost" in out

    def test_bench_default_output_location(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(self._FAST + ["--name", "loc"]) == 0
        assert (tmp_path / "BENCH_loc.json").exists()

    def test_bench_rejects_tiny_degrees(self):
        with pytest.raises(SystemExit):
            main(["bench", "--degrees", "1,8", "--processes", "0"])

    @pytest.mark.slow
    def test_bench_parallel_trace_has_counter_lanes(self, tmp_path,
                                                    capsys):
        from repro.obs.perf import read_artifact

        out = str(tmp_path / "BENCH_p.json")
        trace = str(tmp_path / "trace.json")
        assert main(["bench", "--degrees", "6,8", "--digits", "4",
                     "--processes", "2", "--out", out,
                     "--chrome-trace", trace]) == 0
        art = read_artifact(out)
        assert art.metric("executor.fallbacks") == 0
        assert "executor.queue_depth.samples" in art.histograms
        events = json.loads(open(trace).read())["traceEvents"]
        lanes = {e["name"] for e in events if e["ph"] == "C"}
        assert "executor.queue_depth" in lanes
        assert "executor.in_flight" in lanes
        assert any(n.startswith("worker-") and n.endswith("busy")
                   for n in lanes)
        assert any(e["ph"] == "X" for e in events)
        stdout = capsys.readouterr().out
        assert "efficiency" in stdout


class TestTraceFlags:
    """--trace / --chrome-trace on roots, eigvals, and speedup."""

    def test_roots_trace_jsonl_schema(self, tmp_path, capsys):
        from repro.obs.events import read_events, validate_events

        path = str(tmp_path / "run.jsonl")
        assert main(["roots", "--roots=-3,0,2", "--digits", "8",
                     "--trace", path]) == 0
        events = read_events(path)
        validate_events(events)  # spans close; costs sum to counter totals
        assert events[0]["ev"] == "run"
        assert events[0]["command"] == "roots"
        assert events[-1]["ev"] == "run_end"
        assert events[-1]["phases"]  # per-phase CostCounter totals present
        assert any(e["ev"] == "interval_case" for e in events)

    def test_roots_chrome_trace_loads(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "run.json")
        assert main(["roots", "--roots=-3,0,2", "--digits", "8",
                     "--chrome-trace", path]) == 0
        with open(path) as fh:
            trace = json.load(fh)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "find_roots" in names

    def test_roots_both_flags_together(self, tmp_path, capsys):
        from repro.obs.events import read_events, validate_events

        jl = str(tmp_path / "run.jsonl")
        cj = str(tmp_path / "run.json")
        assert main(["roots", "--roots=1,5", "--digits", "6",
                     "--trace", jl, "--chrome-trace", cj]) == 0
        validate_events(read_events(jl))

    def test_untraced_roots_unaffected(self, capsys):
        assert main(["roots", "--roots=-3,0,2", "--digits", "6"]) == 0
        assert "3 distinct real roots" in capsys.readouterr().out

    def test_eigvals_trace(self, tmp_path, capsys):
        from repro.obs.events import read_events, validate_events

        path = str(tmp_path / "eig.jsonl")
        assert main(["eigvals", "--n", "5", "--seed", "3", "--digits", "6",
                     "--trace", path]) == 0
        events = read_events(path)
        validate_events(events)
        assert events[0]["command"] == "eigvals"

    def test_speedup_chrome_trace_simulated_lanes(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "sim.json")
        assert main(["speedup", "--roots=1,3,6,10", "--digits", "6",
                     "--processors", "1,4", "--chrome-trace", path]) == 0
        with open(path) as fh:
            trace = json.load(fh)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {1, 4}
        p4_lanes = {e["tid"] for e in xs if e["pid"] == 4}
        assert p4_lanes <= set(range(4)) and len(p4_lanes) > 1

    def test_speedup_trace_jsonl(self, tmp_path, capsys):
        from repro.obs.events import read_events, validate_events

        path = str(tmp_path / "sim.jsonl")
        assert main(["speedup", "--roots=1,3,6,10", "--digits", "6",
                     "--processors", "1,2", "--trace", path]) == 0
        events = read_events(path)
        validate_events(events)
        scheds = [e for e in events if e["ev"] == "schedule"]
        assert [e["processors"] for e in scheds] == [1, 2]
        assert all(e["makespan"] > 0 for e in scheds)


class TestFuzz:
    def test_clean_campaign(self, capsys):
        assert main(["fuzz", "--seed", "11", "--budget", "8",
                     "--engines", "hybrid,sturm"]) == 0
        out = capsys.readouterr().out
        assert "8/8 cases" in out
        assert "0 finding(s)" in out

    def test_family_subset_and_log(self, tmp_path, capsys):
        log = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--seed", "3", "--budget", "4",
                     "--engines", "hybrid,newton",
                     "--families", "degenerate,integer",
                     "--log", str(log)]) == 0
        from repro.obs.events import read_events, validate_events

        events = read_events(str(log))
        validate_events(events)
        assert sum(e["ev"] == "fuzz_case" for e in events) == 4

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit, match="unknown engines"):
            main(["fuzz", "--budget", "1", "--engines", "hybrid,bogus"])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown fuzz families"):
            main(["fuzz", "--budget", "1", "--engines", "hybrid",
                  "--families", "bogus"])

    def test_zero_budget_rejected(self):
        with pytest.raises(SystemExit, match="budget"):
            main(["fuzz", "--budget", "0"])

    def test_findings_exit_nonzero(self, monkeypatch, tmp_path, capsys):
        from repro.baselines.sturm_bisect import SturmBisectFinder

        original = SturmBisectFinder.find_roots_scaled

        def mutated(self, p):
            out = original(self, p)
            if out:
                out[-1] += 1
            return out

        monkeypatch.setattr(SturmBisectFinder, "find_roots_scaled", mutated)
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--seed", "11", "--budget", "10",
                     "--engines", "hybrid,sturm",
                     "--corpus-dir", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "[disagreement] sturm" in out
        assert "shrunk repro written" in out
        assert list(corpus.glob("*.json"))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestRobustness:
    def test_malformed_roots(self):
        with pytest.raises(SystemExit, match="could not parse"):
            main(["roots", "--roots=1,x", "--digits", "4"])

    def test_malformed_coeffs(self):
        with pytest.raises(SystemExit, match="could not parse"):
            main(["roots", "--coeffs=1,,2", "--digits", "4"])

    def test_constant_coeffs_rejected(self):
        with pytest.raises(SystemExit, match="nonconstant"):
            main(["roots", "--coeffs=5", "--digits", "4"])

    def test_bad_processor_list(self):
        with pytest.raises(SystemExit):
            main(["speedup", "--roots=1,2", "--digits", "4",
                  "--processors", "1,0"])

    def test_malformed_processor_list(self):
        with pytest.raises(SystemExit, match="could not parse"):
            main(["speedup", "--roots=1,2", "--digits", "4",
                  "--processors", "two"])


class TestRegressionAttribution:
    """`bench --check` failure names the regressed phase (tracediff)."""

    _FAST = ["bench", "--degrees", "6,8", "--digits", "6",
             "--processes", "0", "--no-ledger"]

    def test_seeded_regression_is_phase_attributed(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        assert main(self._FAST + ["--out", base]) == 0
        # Seed a regression: deflate the baseline's headline bit cost
        # and the remainder phase so the current run reads ~+13% on both.
        doc = json.loads(open(base).read())
        doc["metrics"]["bit_cost"]["value"] = int(
            doc["metrics"]["bit_cost"]["value"] * 0.88
        )
        doc["phases"]["remainder"]["bit_cost"] = int(
            doc["phases"]["remainder"]["bit_cost"] * 0.88
        )
        with open(base, "w") as fh:
            json.dump(doc, fh)
        cur = str(tmp_path / "cur.json")
        assert main(self._FAST + ["--out", cur, "--check", base]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "attribution (dominant phase per failed metric):" in out
        # the dominant mover named on the failing metric's line
        attr_line = next(line for line in out.splitlines()
                         if line.strip().startswith("bit_cost:"))
        assert "'remainder'" in attr_line
        # the full phase table follows for context
        assert "bit_cost A" in out


class TestLedgerCLI:
    _FAST = ["bench", "--degrees", "6,8", "--digits", "4",
             "--processes", "0"]

    def _run_ids(self, capsys):
        assert main(["runs", "list", "--json"]) == 0
        return [r["run_id"] for r in json.loads(capsys.readouterr().out)]

    def test_bench_appends_by_default(self, tmp_path, capsys):
        assert main(self._FAST + ["--out", str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        ids = self._run_ids(capsys)
        assert len(ids) == 1

    def test_no_ledger_suppresses(self, tmp_path, capsys):
        assert main(self._FAST + ["--no-ledger",
                                  "--out", str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        assert "no ledger records" in capsys.readouterr().out

    def test_roots_ledger_opt_in(self, capsys):
        assert main(["roots", "--roots=1,5", "--digits", "4",
                     "--ledger"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--json"]) == 0
        (rec,) = json.loads(capsys.readouterr().out)
        assert rec["command"] == "roots"
        assert rec["metrics"]["bit_cost"]["value"] > 0
        assert rec["params"]["degree"] == 2

    def test_roots_ledger_records_phase_walls(self, capsys):
        # Untraced: the walls come from the counter, not from spans.
        assert main(["roots", "--roots=-3,0,2,7,11", "--digits", "12",
                     "--ledger"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--json"]) == 0
        (rec,) = json.loads(capsys.readouterr().out)
        interval = {ph: row for ph, row in rec["phases"].items()
                    if ph.startswith("interval.")}
        assert set(interval) == {"interval.preinterval", "interval.sieve",
                                 "interval.bisection", "interval.newton"}
        assert all(row["wall_ns"] > 0 and row["bit_cost"] > 0
                   for row in interval.values())

    def test_runs_list_and_show(self, tmp_path, capsys):
        assert main(self._FAST + ["--name", "led",
                                  "--out", str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        (run_id,) = self._run_ids(capsys)
        assert main(["runs", "list"]) == 0
        table = capsys.readouterr().out
        assert run_id in table and "bench" in table
        assert main(["runs", "show", run_id[:12]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == run_id
        assert shown["name"] == "led"
        assert "remainder" in shown["phases"]

    def test_runs_show_unknown_id_errors(self):
        with pytest.raises(SystemExit):
            main(["runs", "show", "zzz-does-not-exist"])

    def test_diff_artifacts_and_ledger_refs(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(self._FAST + ["--no-ledger", "--out", a]) == 0
        assert main(self._FAST + ["--no-ledger", "--out", b]) == 0
        capsys.readouterr()
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "remainder" in out
        # ledger-ref operand resolves through the same command
        assert main(self._FAST + ["--out", a]) == 0
        capsys.readouterr()
        (run_id,) = self._run_ids(capsys)
        assert main(["diff", run_id[:12], b]) == 0
        assert "remainder" in capsys.readouterr().out

    def test_diff_json_shape(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        assert main(self._FAST + ["--no-ledger", "--out", a]) == 0
        capsys.readouterr()
        assert main(["diff", a, a, "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert set(d) == {"phases", "histograms", "lanes", "parallel"}
        assert all(p["bit_rel"] == 0.0 for p in d["phases"])


class TestProfileCLI:
    def test_roots_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        from repro.obs.profile import read_collapsed

        out = str(tmp_path / "roots.folded")
        assert main(["roots", "--roots=1,5", "--digits", "4",
                     "--profile", out]) == 0
        folded = read_collapsed(out)
        assert folded and all(v >= 1 for v in folded.values())
        assert "profile: wrote" in capsys.readouterr().err

    def test_bench_sequential_profile(self, tmp_path, capsys):
        out = str(tmp_path / "bench.folded")
        assert main(["bench", "--degrees", "6,8", "--digits", "4",
                     "--processes", "0", "--no-ledger",
                     "--out", str(tmp_path / "b.json"),
                     "--profile", out]) == 0
        from repro.obs.profile import read_collapsed

        assert read_collapsed(out)


class TestServeCLI:
    def test_front_end_required(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_front_ends_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["serve", "--stdio", "--http", "0"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--stdio"])
        assert args.stdio is True and args.http is None
        assert args.processes == 2 and args.max_pending == 64
        assert args.cache_dir is None and args.cache_bytes is None
        assert args.max_deadline_seconds is None

    def test_tracing_flag_defaults(self):
        args = build_parser().parse_args(["serve", "--stdio"])
        assert args.access_log is None and args.capture_dir is None
        assert args.slow_threshold_ms == 250.0
        assert args.ring_size == 512
        assert args.slo_config is None

    def test_bad_slo_config_rejected(self, tmp_path):
        bad = tmp_path / "slo.json"
        bad.write_text('{"objectives": [{"name": "x", "kind": "nope", '
                       '"threshold": 1}]}')
        with pytest.raises(SystemExit):
            main(["serve", "--stdio", "--slo-config", str(bad)])

    def test_bad_max_pending_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--stdio", "--max-pending", "0"])


class TestLoadtestCLI:
    def test_bad_arguments_rejected(self):
        for argv in (
            ["loadtest", "--mode", "inprocess", "--requests", "2",
             "--duplicate-fraction", "1.0"],
            ["loadtest", "--mode", "inprocess", "--requests", "2",
             "--degrees", "0,2"],
            ["loadtest", "--mode", "inprocess", "--requests", "0"],
            ["loadtest", "--mode", "http", "--requests", "2",
             "--degrees", "2"],    # http needs --url
        ):
            with pytest.raises(SystemExit):
                main(argv)

    @pytest.mark.slow
    def test_inprocess_run_writes_gateable_artifact(self, tmp_path,
                                                    capsys, monkeypatch):
        from repro.obs.perf import read_artifact

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        base_args = ["loadtest", "--mode", "inprocess", "--requests", "16",
                     "--seed", "11", "--degrees", "2,3",
                     "--duplicate-fraction", "0.4", "--bits", "16",
                     "--processes", "2"]
        out = str(tmp_path / "BENCH_serve.json")
        assert main(base_args + ["--out", out]) == 0
        assert "INCORRECT 0" in capsys.readouterr().out
        art = read_artifact(out)
        m = art.metrics
        assert m["loadtest.incorrect"]["value"] == 0
        assert m["loadtest.errors"]["value"] == 0
        assert m["loadtest.cache_hits"]["value"] == (
            m["loadtest.requests"]["value"] - m["loadtest.unique"]["value"])
        # The same pinned stream gates cleanly against its own artifact.
        out2 = str(tmp_path / "BENCH_serve2.json")
        assert main(base_args + ["--out", out2, "--check", out]) == 0
        out_text = capsys.readouterr().out
        assert "regression gate" in out_text
        # The artifact carries the decomposition + SLO verdict and the
        # CLI prints the verdict line.
        from repro.obs.perf import read_artifact as _read

        m2 = _read(out2).metrics
        assert "loadtest.queue_wait_p99_seconds" in m2
        assert "loadtest.solve_p99_seconds" in m2
        assert m2["loadtest.slo_ok"]["value"] == 1.0
        assert "SLO: ok" in out_text


class TestTailCLI:
    def _write_log(self, tmp_path, n_ok=2, n_err=1):
        from repro.obs.jsonl import JsonlWriter
        from repro.serve.reqtrace import RequestTimeline

        path = str(tmp_path / "access.jsonl")
        log = JsonlWriter(path)
        seq = 0
        for status, code, count in (("ok", 200, n_ok),
                                    ("error", 500, n_err)):
            for _ in range(count):
                seq += 1
                tl = RequestTimeline(request_id=f"ab-{seq:06d}",
                                     client_id=seq, degree=2,
                                     start_ns=1000, time_unix=50.0)
                tl.add_stage("solve", 1000, 4_000_000)
                tl.close(status, code, end_ns=1000 + 5_000_000)
                log.write(json.dumps(tl.to_dict()))
        log.close()
        return path

    def test_table_output_failures_first(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["tail", path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("request_id")
        # The error row outranks the ok rows.
        assert "error" in lines[2]
        assert "3 requests, 1 failures" in out

    def test_json_output(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["tail", path, "--json", "--limit", "2"]) == 0
        recs = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert len(recs) == 2
        assert recs[0]["status"] == "error"    # ranked, failures first
        assert all("request_id" in r for r in recs)

    def test_missing_log_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no access log"):
            main(["tail", str(tmp_path / "nope.jsonl")])

    def test_reads_rotated_generation(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        import os

        os.replace(path, path + ".1")      # only the rotated file left
        assert main(["tail", path]) == 0
        assert "3 requests" in capsys.readouterr().out
