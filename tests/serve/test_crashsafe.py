"""Crash safety in-process: journaling on the request path, replay at
start(), the startup fsck, and the four-state pool-liveness probe.

The end-to-end versions of these scenarios (real subprocess, real
SIGKILL) live in ``tests/chaos/``; here a fake finder pins the
scheduling so each property is checked in isolation.
"""

import asyncio
import os

from repro.resilience.checkpoint import poly_key
from repro.serve.journal import RequestJournal, read_journal
from repro.serve.server import RootServer
from tests.serve.test_server import FakeFinder


def run(coro):
    return asyncio.run(coro)


def journal_events(path):
    return [(r["ev"], r.get("status")) for r in read_journal(path)]


class TestJournaling:
    def test_accept_and_complete_recorded(self, tmp_path):
        path = str(tmp_path / "j.jsonl")

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            resp = await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return resp

        resp = go_resp = run(go())
        assert go_resp["status"] == "ok"
        recs = read_journal(path)
        assert [r["ev"] for r in recs] == ["accept", "complete"]
        assert recs[0]["request_id"] == resp["request_id"]
        assert recs[0]["key"] == poly_key([-6, 1, 1], 16, "hybrid")
        assert recs[1]["status"] == "ok"

    def test_shed_and_bad_requests_not_journaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            bad = await server.submit({"id": 1, "coeffs": "nope"})
            await server.aclose()
            return bad

        bad = run(go())
        assert bad["status"] == "error"
        # The WAL records only admitted requests: nothing to replay for
        # a request that never owed an answer.
        assert read_journal(path) == []

    def test_cache_hit_still_journaled(self, tmp_path):
        # A duplicate admitted behind its leader is still an accepted
        # request — it owes (and gets) a completion.
        path = str(tmp_path / "j.jsonl")

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            r2 = await server.submit({"id": 2, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return r2

        assert run(go())["cached"] is True
        assert journal_events(path) == [
            ("accept", None), ("complete", "ok"),
            ("accept", None), ("complete", "ok")]


class TestReplay:
    def seed_journal(self, path, coeffs, mu=16):
        j = RequestJournal(path, fsync_interval=1)
        j.accept("lost-1", poly_key(coeffs, mu, "hybrid"), coeffs, mu,
                 "hybrid")
        j.close()

    def test_incomplete_entry_replayed_into_cache(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self.seed_journal(path, [-6, 1, 1])

        async def go():
            finder = FakeFinder()
            server = RootServer(mu=16, finder=finder, cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            # The replayed result is already cached: the retry is a hit.
            resp = await server.submit({"id": 9, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return finder, resp, server

        finder, resp, server = run(go())
        assert resp["status"] == "ok" and resp["cached"] is True
        # Exactly one solve: the replay's (the retry hit the cache).
        assert len(finder.calls) == 1
        assert server.metrics.counter("journal.replayed").value == 1
        # Replays are not client traffic: server.ok counts only the
        # retry (served from cache), so chaos reconciliation stays
        # exact.
        assert server.metrics.counter("server.ok").value == 1
        # The completion was journaled, so a second restart is a no-op.
        assert ("complete", "replayed") in journal_events(path)

    def test_already_cached_entry_not_resolved(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        cache_dir = str(tmp_path / "cache")
        key = poly_key([-6, 1, 1], 16, "hybrid")

        async def go():
            f1 = FakeFinder()
            s1 = RootServer(mu=16, finder=f1, cache_dir=cache_dir)
            await s1.start()
            await s1.submit({"id": 1, "coeffs": [-6, 1, 1]})
            await s1.aclose()

            self.seed_journal(path, [-6, 1, 1])
            f2 = FakeFinder()
            s2 = RootServer(mu=16, finder=f2, cache_dir=cache_dir,
                            journal_path=path, fsync_interval=1)
            await s2.start()
            await s2.aclose()
            return f2, s2

        f2, s2 = run(go())
        assert f2.calls == []  # disk cache already held the answer
        assert s2.metrics.counter("journal.replay_cached").value == 1
        assert s2.cache.get(key) is not None

    def test_unparseable_entry_completed_as_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        # Degree-zero polynomial: survives journal parsing but fails
        # protocol validation at replay.
        j = RequestJournal(path, fsync_interval=1)
        j.accept("lost-1", "somekey", [7], 16, "hybrid")
        j.close()

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            await server.aclose()
            return server

        server = run(go())
        assert server.metrics.counter("journal.replay_errors").value == 1
        assert ("complete", "replay_error") in journal_events(path)

    def test_answer_too_long_completed_as_error(self, tmp_path):
        # A root over Python's int-string digit limit cannot be cached
        # (entries are decimal strings); replay must record the error
        # and let the daemon start instead of failing start() on every
        # restart.
        path = str(tmp_path / "j.jsonl")
        self.seed_journal(path, [-6, 1, 1])

        class HugeRootFinder(FakeFinder):
            def find_roots_scaled(self, p):
                super().find_roots_scaled(p)
                return [7 ** 6000]

        async def go():
            server = RootServer(mu=16, finder=HugeRootFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            resp = await server.submit({"id": 9, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return server, resp

        server, resp = run(go())
        assert server.metrics.counter("journal.replay_errors").value == 1
        assert ("complete", "replay_error") in journal_events(path)
        assert resp["status"] == "error" and resp["code"] == 400

    def test_startup_fsck_populates_summary(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        bad = os.path.join(cache_dir, "de", "deadbeef.json")
        os.makedirs(os.path.dirname(bad))
        with open(bad, "w") as fh:
            fh.write("garbage")

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(),
                                cache_dir=cache_dir)
            await server.start()
            await server.aclose()
            return server

        server = run(go())
        assert server.fsck_summary == {"scanned": 1, "ok": 0,
                                       "quarantined": 1}
        assert os.path.exists(bad + ".corrupt")


class PidFinder(FakeFinder):
    """FakeFinder with a controllable worker_pids() probe."""

    def __init__(self, pids=None, raise_probe=False):
        super().__init__()
        self._pids = pids if pids is not None else []
        self._raise = raise_probe

    def worker_pids(self):
        if self._raise:
            raise ValueError("pool mutated mid-probe")
        return list(self._pids)


class TestPoolLiveness:
    async def started(self, finder):
        server = RootServer(mu=16, finder=finder, cache_dir="")
        await server.start()
        return server

    def test_unspawned_pool_is_ready(self):
        async def go():
            server = await self.started(FakeFinder())
            code, body = server.health()
            await server.aclose()
            return code, body

        code, body = run(go())
        # FakeFinder has no worker_pids at all -> unspawned, ready.
        assert code == 200 and body["workers"]["pool"] == "unspawned"

    def test_live_pool_is_ready(self):
        async def go():
            server = await self.started(PidFinder(pids=[os.getpid()]))
            code, body = server.health()
            await server.aclose()
            return code, body

        code, body = run(go())
        assert code == 200
        assert body["workers"]["pool"] == "live"
        assert body["workers"]["alive"] == 1

    def test_dead_pool_flips_unready(self):
        async def go():
            # A pid that certainly isn't running (freshly reaped child).
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            server = await self.started(PidFinder(pids=[pid]))
            code, body = server.health()
            m = server.metrics.counter("server.pool_dead").value
            await server.aclose()
            return code, body, m

        code, body, pool_dead = run(go())
        assert code == 503
        assert body["status"] == "unready"
        assert body["workers"]["pool"] == "dead"
        assert pool_dead == 1

    def test_probe_race_stays_ready(self):
        async def go():
            server = await self.started(PidFinder(raise_probe=True))
            code, body = server.health()
            m = server.metrics.counter("server.probe_races").value
            await server.aclose()
            return code, body, m

        code, body, races = run(go())
        # A transient enumeration race must not flap readiness.
        assert code == 200
        assert body["workers"]["pool"] == "respawning"
        assert races == 1

    def test_readyz_reports_cache_and_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")

        async def go():
            server = RootServer(mu=16, finder=FakeFinder(), cache_dir="",
                                journal_path=path, fsync_interval=1)
            await server.start()
            await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            _, body = server.health()
            await server.aclose()
            return body

        body = run(go())
        assert body["cache"]["fsck"] == {"scanned": 0, "ok": 0,
                                         "quarantined": 0}
        j = body["journal"]
        assert j["enabled"] is True and j["broken"] is False
        assert j["accepts"] == 1 and j["completes"] == 1

    def test_journal_disabled_reported(self):
        async def go():
            server = await self.started(FakeFinder())
            _, body = server.health()
            await server.aclose()
            return body

        assert run(go())["journal"] == {"enabled": False}
