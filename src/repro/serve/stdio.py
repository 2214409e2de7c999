"""JSON-Lines front-end: one request per stdin line, one response per
stdout line.

The shape embeddings and batch pipelines want: spawn
``repro serve --stdio``, write request lines, read response lines —
no sockets, no ports, works over SSH.  Responses may interleave out of
input order (requests are pipelined through the server's priority
queue); match them by ``id`` — or by the server-assigned
``request_id`` every response (error shapes included) carries.

Control lines:

* ``{"op": "ping"[, "id": ...]}`` — liveness probe, answered inline;
* ``{"op": "metrics"[, "id": ...]}`` — **barrier**: waits for every
  request already read to be answered, then emits the snapshot — so a
  replay file ending in a metrics line observes the counters of
  everything before it, deterministically;
* ``{"op": "slo"[, "id": ...]}`` — the server's SLO report over the
  timeline ring (:meth:`~repro.serve.server.RootServer.slo_report`),
  answered inline;
* ``{"op": "shutdown"[, "id": ...]}`` — drain in-flight requests,
  acknowledge, and exit cleanly.  EOF on stdin behaves the same,
  minus the acknowledgement.

``SIGTERM`` is the graceful-stop signal: the daemon stops reading,
drains every admitted request, and exits 0 — and because the server's
close path fsyncs the access log, a SIGTERM'd daemon leaves no torn
final record.  Stdin is read by a daemonic thread (a thread blocked in
``readline`` cannot be cancelled; daemonizing it keeps it from pinning
the process open after the drain).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from typing import IO, Any

from repro.serve.protocol import (
    control_op,
    error_response,
    salvage_id,
    shutdown_response,
)
from repro.serve.server import RootServer

__all__ = ["serve_stdio"]


async def serve_stdio(server: RootServer, in_fh: IO[str],
                      out_fh: IO[str]) -> int:
    """Serve JSONL requests from ``in_fh`` to ``out_fh`` until EOF, a
    shutdown op, or SIGTERM; returns the process exit code (0).

    The server is started if needed and **always** closed on the way
    out — the pool's workers are joined and the access log fsynced
    before the function returns.
    """
    await server.start()
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    stop = asyncio.Event()

    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        sigterm_handled = True
    except (NotImplementedError, RuntimeError, ValueError):
        sigterm_handled = False  # non-main thread / platform without it

    lines: asyncio.Queue[str] = asyncio.Queue()

    def _reader() -> None:
        while True:
            line = in_fh.readline()
            try:
                loop.call_soon_threadsafe(lines.put_nowait, line)
            except RuntimeError:  # loop already closed (daemon exiting)
                return
            if not line:
                return

    threading.Thread(target=_reader, daemon=True,
                     name="repro-stdin").start()

    async def emit(resp: dict[str, Any]) -> None:
        async with write_lock:
            out_fh.write(json.dumps(resp) + "\n")
            out_fh.flush()

    async def handle(obj: Any) -> None:
        resp = await server.submit(obj, defer_io=True)
        # Measure the serialize and write stages ourselves and report
        # them back: the timeline's stage sum then reconciles with the
        # latency the client actually saw.
        t0 = time.perf_counter_ns()
        payload = json.dumps(resp) + "\n"
        t1 = time.perf_counter_ns()
        async with write_lock:
            out_fh.write(payload)
            out_fh.flush()
        t2 = time.perf_counter_ns()
        rid = resp.get("request_id")
        if isinstance(rid, str):
            server.tracker.finish_io(rid, t1 - t0, t2 - t1, start_ns=t0)

    async def next_line() -> str | None:
        """The next stdin line, or ``None`` when SIGTERM interrupts."""
        get = asyncio.ensure_future(lines.get())
        wait_stop = asyncio.ensure_future(stop.wait())
        done, _ = await asyncio.wait({get, wait_stop},
                                     return_when=asyncio.FIRST_COMPLETED)
        if get in done:
            wait_stop.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await wait_stop
            return get.result()
        get.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await get
        return None

    try:
        while True:
            line = await next_line()
            if line is None or not line:  # SIGTERM or EOF: drain + exit
                break
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # incl. integers over the digit limit
                await emit(server.reject(salvage_id(line),
                                         f"not valid JSON: {e}"))
                continue
            op = control_op(obj)
            rid = obj.get("id") if isinstance(obj, dict) else None
            if op == "ping":
                await emit({"id": rid, "status": "ok", "code": 200,
                            "op": "ping"})
            elif op == "metrics":
                if tasks:  # the barrier: snapshot after the backlog
                    await asyncio.gather(*tasks)
                await emit(server.metrics_snapshot(rid))
            elif op == "slo":
                await emit({"id": rid, "status": "slo", "code": 200,
                            "slo": server.slo_report()})
            elif op == "shutdown":
                if tasks:
                    await asyncio.gather(*tasks)
                await emit(shutdown_response(rid))
                break
            elif op is not None:
                await emit(error_response(rid, f"unknown op {op!r}"))
            else:
                t = asyncio.ensure_future(handle(obj))
                tasks.add(t)
                t.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        if sigterm_handled:
            loop.remove_signal_handler(signal.SIGTERM)
        await server.aclose()
    return 0
