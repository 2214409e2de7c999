"""The JSONL front-end: in-memory protocol walk plus a live daemon."""

import asyncio
import io
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.serve.server import RootServer
from repro.serve.stdio import serve_stdio

from tests.serve.test_server import FakeFinder

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLE_FILE = os.path.join(REPO_ROOT, "examples", "serve_requests.jsonl")


def daemon_env():
    """Subprocess env that can import repro from the source tree."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_stdio(lines):
    """Feed request lines to serve_stdio over StringIO pipes; returns
    (exit_code, responses, server)."""
    server = RootServer(mu=16, finder=FakeFinder(), cache_dir="")
    in_fh = io.StringIO("".join(line + "\n" for line in lines))
    out_fh = io.StringIO()

    code = asyncio.run(serve_stdio(server, in_fh, out_fh))
    resps = [json.loads(line) for line in
             out_fh.getvalue().splitlines() if line]
    return code, resps, server


class TestStdioProtocol:
    def test_full_session(self):
        code, resps, server = run_stdio([
            json.dumps({"op": "ping", "id": "p"}),
            json.dumps({"id": 1, "coeffs": [-6, 1, 1]}),
            json.dumps({"id": 2, "coeffs": [-6, 1, 1]}),
            json.dumps({"op": "metrics", "id": "m"}),
            json.dumps({"op": "shutdown", "id": "s"}),
        ])
        assert code == 0
        by_id = {r["id"]: r for r in resps}
        assert by_id["p"]["op"] == "ping"
        assert by_id[1]["status"] == "ok" and by_id[1]["cached"] is False
        assert by_id[2]["status"] == "ok" and by_id[2]["cached"] is True
        # The metrics barrier: the snapshot observes both solves.
        m = by_id["m"]
        assert m["status"] == "metrics"
        assert m["metrics"]["server.ok"]["value"] == 2
        assert m["metrics"]["cache.hits"]["value"] == 1
        assert by_id["s"]["status"] == "shutdown"
        # Everything before shutdown was answered; finder released.
        assert server.finder.closed is True

    def test_metrics_barrier_precedes_snapshot(self):
        """A metrics line after N solves always reports all N."""
        lines = [json.dumps({"id": i, "coeffs": [-(i + 2), 0, 1]})
                 for i in range(6)]
        lines.append(json.dumps({"op": "metrics", "id": "m"}))
        code, resps, _ = run_stdio(lines)
        assert code == 0
        m = next(r for r in resps if r.get("status") == "metrics")
        assert m["metrics"]["server.requests"]["value"] == 6
        assert m["metrics"]["server.ok"]["value"] == 6

    def test_garbage_lines_answered_inline(self):
        code, resps, _ = run_stdio([
            "this is not json",
            json.dumps({"op": "dance", "id": "d"}),
            json.dumps({"id": 1, "coeffs": [-2, 0, 1]}),
        ])
        assert code == 0
        assert any(r["status"] == "error" and "not valid JSON" in r["error"]
                   for r in resps)
        unknown = next(r for r in resps if r.get("id") == "d")
        assert unknown["status"] == "error" and "dance" in unknown["error"]
        assert any(r.get("id") == 1 and r["status"] == "ok" for r in resps)

    def test_eof_drains_without_shutdown_line(self):
        code, resps, server = run_stdio([
            json.dumps({"id": 1, "coeffs": [-2, 0, 1]}),
        ])
        assert code == 0
        assert resps[-1]["status"] == "ok"
        assert server.finder.closed is True

    def test_blank_lines_skipped(self):
        code, resps, _ = run_stdio(["", "  ",
                                    json.dumps({"op": "ping", "id": 1})])
        assert code == 0
        assert len(resps) == 1

    def test_slo_op(self):
        code, resps, _ = run_stdio([
            json.dumps({"id": 1, "coeffs": [-6, 1, 1]}),
            json.dumps({"op": "metrics", "id": "barrier"}),
            json.dumps({"op": "slo", "id": "s"}),
        ])
        assert code == 0
        slo = next(r for r in resps if r.get("status") == "slo")
        assert slo["id"] == "s" and slo["code"] == 200
        report = slo["slo"]
        assert report["ok"] is True and report["samples"] >= 1
        assert {o["name"] for o in report["objectives"]} == \
            {"latency_p99", "availability"}

    def test_solve_responses_carry_request_ids(self):
        code, resps, _ = run_stdio([
            json.dumps({"id": 1, "coeffs": [-6, 1, 1]}),
            json.dumps({"id": 2, "coeffs": [-2, 0, 1]}),
        ])
        assert code == 0
        rids = [r["request_id"] for r in resps]
        assert all(isinstance(r, str) for r in rids)
        assert len(set(rids)) == 2

    def test_bad_json_salvages_client_id(self):
        code, resps, _ = run_stdio([
            '{"id": 77, "coeffs": [1, 2,}',
        ])
        assert code == 0
        (err,) = resps
        assert err["status"] == "error" and "not valid JSON" in err["error"]
        assert err["id"] == 77
        assert isinstance(err["request_id"], str)

    def test_integer_over_digit_limit_gets_a_reply(self):
        # json.loads raises a plain ValueError, not JSONDecodeError, for
        # an integer literal over Python's int-string digit limit — in
        # the payload or in the id the reply tries to salvage.
        huge = "1" + "0" * 5000
        code, resps, _ = run_stdio([
            '{"coeffs": [%s, 1]}' % huge,
            '{"id": %s, "coeffs": [1, 1]}' % huge,
            json.dumps({"id": 1, "coeffs": [-2, 0, 1]}),
        ])
        assert code == 0
        errors = [r for r in resps if r["status"] == "error"]
        assert [(r["code"], r["id"]) for r in errors] == [(400, None)] * 2
        assert any(r.get("id") == 1 and r["status"] == "ok" for r in resps)

    def test_full_access_log_disk_keeps_serving(self, tmp_path):
        """A failed access-log write is counted and stops that log; the
        request is still answered and the daemon keeps reading."""
        server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                            access_log=str(tmp_path / "access.jsonl"))
        server.tracker.access_log.fail_writes_after = 0   # ENOSPC at once
        lines = [json.dumps({"id": 1, "coeffs": [-6, 1, 1]}),
                 json.dumps({"op": "metrics"}),
                 json.dumps({"id": 2, "coeffs": [-2, 0, 1]}),
                 json.dumps({"op": "shutdown"})]
        in_fh = io.StringIO("".join(line + "\n" for line in lines))
        out_fh = io.StringIO()
        assert asyncio.run(serve_stdio(server, in_fh, out_fh)) == 0
        resps = [json.loads(line) for line in
                 out_fh.getvalue().splitlines() if line]
        assert [r["status"] for r in resps] == [
            "ok", "metrics", "ok", "shutdown"]
        assert server.metrics.counter(
            "reqtrace.access_log_errors").value == 1


@pytest.mark.slow
class TestLiveDaemon:
    def test_replay_example_file(self):
        """Boot the real daemon, replay the committed example request
        file, and check the cache worked — the CI smoke, as a test."""
        with open(EXAMPLE_FILE, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--bits", "16", "--processes", "2"],
            input="\n".join(lines) + "\n",
            capture_output=True, text=True, timeout=150,
            cwd=REPO_ROOT, env=daemon_env(),
        )
        assert proc.returncode == 0, proc.stderr
        resps = [json.loads(line) for line in proc.stdout.splitlines()]
        by_id = {r.get("id"): r for r in resps}

        solves = [json.loads(line) for line in lines
                  if "coeffs" in line or "roots" in line]
        assert len(resps) == len(lines)    # every line answered
        oks = [by_id[s["id"]] for s in solves]
        assert all(r["status"] == "ok" for r in oks)

        # Duplicates in the file hit the cache, byte-identically.
        seen = {}
        hits = 0
        for s, r in zip(solves, oks):
            key = json.dumps(s["coeffs"])
            if key in seen:
                assert r["scaled"] == seen[key]
                hits += 1
            else:
                seen[key] = r["scaled"]
        assert hits > 0
        cached = sum(bool(r.get("cached")) for r in oks)
        assert cached == hits

        # The trailing metrics barrier saw every solve.
        m = next(r for r in resps if r.get("status") == "metrics")
        assert m["metrics"]["cache.hits"]["value"] == hits
        assert m["metrics"]["server.ok"]["value"] == len(oks)

    def test_sigterm_drains_and_leaves_no_torn_record(self, tmp_path):
        """SIGTERM is the graceful stop: the daemon drains, exits 0,
        and the fsynced access log parses to the last byte — no torn
        final record."""
        access = str(tmp_path / "access.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--bits", "16", "--processes", "2", "--access-log", access],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=daemon_env(),
        )
        try:
            for i in range(3):
                proc.stdin.write(json.dumps(
                    {"id": i, "coeffs": [-6 - i, 1, 1]}) + "\n")
            proc.stdin.flush()
            resps = [json.loads(proc.stdout.readline()) for _ in range(3)]
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert all(r["status"] == "ok" for r in resps)

        with open(access, encoding="utf-8") as fh:
            raw = fh.read()
        assert raw.endswith("\n")              # complete final record
        records = [json.loads(line) for line in raw.splitlines() if line]
        assert len(records) == 3
        answered = {r["request_id"] for r in resps}
        assert {r["request_id"] for r in records} == answered
        # Every record closed with the full stage set through write.
        for rec in records:
            names = [s["name"] for s in rec["stages"]]
            assert "solve" in names and "write" in names

    def test_answer_too_long_to_print_does_not_wedge(self):
        """A root whose decimal string would exceed Python's digit limit
        gets a typed 4xx reply, and the solves after it are answered."""
        lines = [
            {"id": "a", "coeffs": [-2, 0, 1], "bits": 20000},
            {"id": "a-next", "coeffs": [-6, 1, 1]},
            # passes validation: the coefficient has 4299 digits
            {"id": "b", "coeffs": ["-1" + "0" * 4298, 1]},
            {"id": "b-next", "coeffs": [-2, 0, 1]},
        ]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--bits", "16", "--processes", "1"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=daemon_env(),
        )
        try:
            out, err = proc.communicate(
                "".join(json.dumps(line) + "\n" for line in lines),
                timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        by_id = {r["id"]: r for r in map(json.loads, out.splitlines())}
        for bad in ("a", "b"):
            resp = by_id[bad]
            assert resp["status"] == "error" and resp["code"] == 400
            assert "digits" in resp["error"]
        assert by_id["a-next"]["status"] == "ok"
        assert by_id["b-next"]["status"] == "ok"

    def test_answers_match_repro_roots(self):
        """Byte-exact parity between the daemon and the one-shot CLI."""
        coeffs = [-6, 1, 1]
        daemon = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--bits", "16", "--processes", "2"],
            input=json.dumps({"id": 1, "coeffs": coeffs}) + "\n",
            capture_output=True, text=True, timeout=150,
            cwd=REPO_ROOT, env=daemon_env(),
        )
        assert daemon.returncode == 0, daemon.stderr
        served = json.loads(daemon.stdout.splitlines()[0])
        oneshot = subprocess.run(
            [sys.executable, "-m", "repro", "roots",
             "--coeffs=-6,1,1", "--bits", "16", "--json"],
            capture_output=True, text=True, timeout=150,
            cwd=REPO_ROOT, env=daemon_env(),
        )
        assert oneshot.returncode == 0, oneshot.stderr
        direct = json.loads(oneshot.stdout)
        assert served["scaled"] == direct["scaled"]
        assert served["mu_bits"] == direct["mu_bits"]
