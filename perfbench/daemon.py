"""The serve stage: a live ``repro serve --stdio`` daemon (two pool
workers, request journal on) driven by one client over one pipe.

The client keeps a fixed number of requests in flight and sends them in
stream order, so a duplicate always reaches the daemon after its
leader.  Latency is taken from just before a request line is written
to just after its reply line is read.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass

from common import ROOT, child_env, python, tree_peak_rss_mb

#: Outside every workload: degree 24 sends tasks to both workers.
WARMUP_DEGREE = 24


@dataclass
class Reply:
    req: dict
    resp: dict
    latency_s: float


class Daemon:
    """One daemon process; ``await start()`` measures its set-up."""

    def __init__(self, workdir: str, tag: str, access_log: bool = False):
        self.journal = os.path.join(workdir, f"journal-{tag}.jsonl")
        self.access_log = (os.path.join(workdir, f"access-{tag}.jsonl")
                           if access_log else None)
        self.proc = None
        self.setup_s = 0.0
        self._waiting: dict[str, tuple[asyncio.Future, float]] = {}
        self._reader = None

    async def start(self) -> "Daemon":
        from repro.bench.workloads import random_real_rooted

        argv = [python(), "-m", "repro", "serve", "--stdio",
                "--bits", "16", "--processes", "2", "--max-pending", "4096",
                "--journal", self.journal]
        if self.access_log:
            argv += ["--access-log", self.access_log]
        warm = {"id": "warmup", "bits": 16,
                "coeffs": list(random_real_rooted(WARMUP_DEGREE, 0).coeffs)}
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, cwd=ROOT, env=child_env(),
            limit=1 << 24)
        self._reader = asyncio.ensure_future(self._read_loop())
        try:
            reply = await self.send(warm)
            if reply.resp.get("status") != "ok":
                raise RuntimeError(f"daemon warm-up failed: {reply.resp}")
        except BaseException:
            await self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        return self

    async def _read_loop(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            t = time.perf_counter()
            if not line:
                break
            resp = json.loads(line)
            fut, t_send = self._waiting.pop(resp.get("id"), (None, 0.0))
            if fut is not None and not fut.done():
                fut.set_result((resp, t - t_send))
        for fut, _ in self._waiting.values():
            if not fut.done():
                fut.set_exception(ConnectionError("daemon exited"))

    def _write(self, obj: dict) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        line = (json.dumps(obj) + "\n").encode()
        self._waiting[obj["id"]] = (fut, time.perf_counter())
        self.proc.stdin.write(line)
        return fut

    async def send(self, obj: dict) -> Reply:
        fut = self._write(obj)
        await self.proc.stdin.drain()
        resp, latency = await fut
        return Reply(obj, resp, latency)

    async def op(self, name: str) -> dict:
        return (await self.send({"op": name, "id": f"op-{name}"})).resp

    async def phase(self, requests: list[dict],
                    in_flight: int) -> tuple[list[Reply], float]:
        """Send ``requests`` in order with at most ``in_flight``
        outstanding; returns the replies in send order and the wall."""
        window = asyncio.Semaphore(in_flight)
        futs = []
        t0 = time.perf_counter()
        for req in requests:
            await window.acquire()
            fut = self._write(req)
            fut.add_done_callback(lambda _f: window.release())
            futs.append(fut)
            await self.proc.stdin.drain()
        done = await asyncio.gather(*futs)
        wall = time.perf_counter() - t0
        return [Reply(r, resp, lat)
                for r, (resp, lat) in zip(requests, done)], wall

    async def counters(self) -> dict[str, float]:
        """The daemon's counters (the ``metrics`` op is a barrier)."""
        snap = await self.op("metrics")
        return {k: v.get("value", 0) for k, v in snap["metrics"].items()
                if v.get("type") == "counter"}

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    async def close(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            try:
                await asyncio.wait_for(self.op("shutdown"), 60)
                await asyncio.wait_for(proc.wait(), 60)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                proc.kill()
                await proc.wait()
        if self._reader is not None:
            await self._reader


async def start_daemons(workdir: str, setups: int, tag: str,
                        access_log: bool = False) -> tuple[Daemon, list]:
    """Set the daemon up ``setups`` times, one after another; keep the
    last for the workload and return every set-up time."""
    times = []
    daemon = None
    for i in range(setups):
        daemon = await Daemon(workdir, f"{tag}{i}", access_log).start()
        times.append(daemon.setup_s)
        if i < setups - 1:
            await daemon.close()
    return daemon, times


def read_access_log(path: str) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return out
