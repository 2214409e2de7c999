"""The HTTP front-end, over real sockets on an ephemeral port."""

import asyncio
import json
import threading

from repro.serve.http import start_http_server
from repro.serve.server import RootServer

from tests.serve.test_server import FakeFinder, wait_for


async def raw_exchange(host, port, payload, keepalive_payloads=()):
    """Send raw bytes, optionally pipeline more, return raw response
    bytes (all of them)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        chunks = [await read_one_response(reader)]
        for extra in keepalive_payloads:
            writer.write(extra)
            await writer.drain()
            chunks.append(await read_one_response(reader))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return chunks


async def read_one_response(reader):
    """One HTTP response from a keep-alive stream: (status, headers,
    body bytes)."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, body


def post_bytes(obj, close=False):
    body = json.dumps(obj).encode()
    conn = b"Connection: close\r\n" if close else b""
    return (b"POST /solve HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            + conn + b"\r\n" + body)


def get_bytes(path):
    return ("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n").encode()


async def with_http_server(scenario, **server_kwargs):
    server_kwargs.setdefault("finder", FakeFinder())
    server_kwargs.setdefault("cache_dir", "")
    server = RootServer(mu=16, **server_kwargs)
    aio = await start_http_server(server, "127.0.0.1", 0)
    host, port = aio.sockets[0].getsockname()[:2]
    try:
        return await scenario(server, host, port)
    finally:
        aio.close()
        await aio.wait_closed()
        await server.aclose()


class TestHttp:
    def test_solve_and_cache_roundtrip(self):
        async def scenario(server, host, port):
            (s1, _, b1), = await raw_exchange(
                host, port, post_bytes({"id": 1, "coeffs": [-6, 1, 1]},
                                       close=True))
            (s2, _, b2), = await raw_exchange(
                host, port, post_bytes({"id": 2, "coeffs": [-6, 1, 1]},
                                       close=True))
            return s1, json.loads(b1), s2, json.loads(b2)

        s1, r1, s2, r2 = asyncio.run(with_http_server(scenario))
        assert s1 == 200 and r1["status"] == "ok" and not r1["cached"]
        assert s2 == 200 and r2["cached"] is True
        assert r2["scaled"] == r1["scaled"]

    def test_keepalive_pipelining(self):
        async def scenario(server, host, port):
            return await raw_exchange(
                host, port,
                post_bytes({"id": 1, "coeffs": [-2, 0, 1]}),
                keepalive_payloads=[get_bytes("/metrics"),
                                    get_bytes("/healthz")])

        solve, metrics, health = asyncio.run(with_http_server(scenario))
        assert solve[0] == 200
        assert metrics[0] == 200
        text = metrics[2].decode()
        assert "repro_server_ok_total 1" in text
        assert text.rstrip().endswith("# EOF")
        assert health[0] == 200
        hj = json.loads(health[2])
        assert hj["status"] == "ok" and "queue_depth" in hj

    def test_bad_json_is_400(self):
        async def scenario(server, host, port):
            body = b"{nope"
            payload = (b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                       b"Content-Length: " + str(len(body)).encode()
                       + b"\r\nConnection: close\r\n\r\n" + body)
            (status, _, body), = await raw_exchange(host, port, payload)
            return status, json.loads(body)

        status, resp = asyncio.run(with_http_server(scenario))
        assert status == 400 and resp["status"] == "error"

    def test_protocol_error_is_400(self):
        async def scenario(server, host, port):
            (status, _, body), = await raw_exchange(
                host, port, post_bytes({"id": 1, "coeffs": [0]},
                                       close=True))
            return status, json.loads(body)

        status, resp = asyncio.run(with_http_server(scenario))
        assert status == 400 and resp["status"] == "error"

    def test_unknown_route_is_404(self):
        async def scenario(server, host, port):
            (status, _, body), = await raw_exchange(
                host, port, get_bytes("/nope"))
            return status, json.loads(body)

        status, resp = asyncio.run(with_http_server(scenario))
        assert status == 404 and "/nope" in resp["error"]

    def test_oversized_body_is_413(self):
        async def scenario(server, host, port):
            payload = (b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                       b"Content-Length: 9999999999\r\n\r\n")
            (status, _, body), = await raw_exchange(host, port, payload)
            return status, json.loads(body)

        status, resp = asyncio.run(with_http_server(scenario))
        assert status == 413 and resp["status"] == "error"

    def test_overload_sets_retry_after(self):
        async def scenario(server, host, port):
            server.finder.gate = threading.Event()
            t1 = asyncio.ensure_future(raw_exchange(
                host, port, post_bytes({"id": 1, "coeffs": [-2, 0, 1]},
                                       close=True)))
            await wait_for(lambda: len(server.finder.calls) == 1)
            (status, headers, body), = await raw_exchange(
                host, port, post_bytes({"id": 2, "coeffs": [-3, 0, 1]},
                                       close=True))
            server.finder.gate.set()
            await t1
            return status, headers, json.loads(body)

        status, headers, resp = asyncio.run(
            with_http_server(scenario, max_pending=1))
        assert status == 429 and resp["status"] == "overloaded"
        assert int(headers["retry-after"]) >= 1

    def test_solve_echoes_request_id_in_header_and_body(self):
        async def scenario(server, host, port):
            (status, headers, body), = await raw_exchange(
                host, port, post_bytes({"id": 1, "coeffs": [-6, 1, 1]},
                                       close=True))
            return status, headers, json.loads(body)

        status, headers, resp = asyncio.run(with_http_server(scenario))
        assert status == 200
        assert headers["x-request-id"] == resp["request_id"]

    def test_bad_json_salvages_id_and_sets_header(self):
        async def scenario(server, host, port):
            body = b'{"id": 41, "coeffs": [1, 2,}'
            payload = (b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                       b"Content-Length: " + str(len(body)).encode()
                       + b"\r\nConnection: close\r\n\r\n" + body)
            (status, headers, body), = await raw_exchange(host, port,
                                                          payload)
            return status, headers, json.loads(body)

        status, headers, resp = asyncio.run(with_http_server(scenario))
        assert status == 400 and resp["status"] == "error"
        # The recoverable client id was salvaged from the broken line.
        assert resp["id"] == 41
        assert headers["x-request-id"] == resp["request_id"]

    def test_http_write_completes_the_timeline(self):
        """The connection handler reports serialize/write back onto the
        request timeline — the access-log record gains both stages."""
        async def scenario(server, host, port):
            await raw_exchange(
                host, port, post_bytes({"id": 1, "coeffs": [-6, 1, 1]},
                                       close=True))
            for _ in range(200):
                if not server.tracker._pending_io:
                    break
                await asyncio.sleep(0.005)
            return list(server.tracker.ring)

        (tl,) = asyncio.run(with_http_server(scenario))
        assert tl.stage_ns("serialize") > 0
        assert tl.stage_ns("write") > 0
        assert tl.stage_sum_ns <= tl.total_ns

    def test_readyz_flips_to_503_on_drain(self):
        async def scenario(server, host, port):
            (r1, _, b1), = await raw_exchange(host, port,
                                              get_bytes("/readyz"))
            server._accepting = False
            (r2, _, b2), = await raw_exchange(host, port,
                                              get_bytes("/readyz"))
            server._accepting = True
            return r1, json.loads(b1), r2, json.loads(b2)

        r1, b1, r2, b2 = asyncio.run(with_http_server(scenario))
        assert r1 == 200 and b1["status"] == "ready"
        assert "breaker" in b1 and "workers" in b1 and "headroom" in b1
        assert r2 == 503 and b2["status"] == "unready"

    def test_healthz_stays_200_while_unready(self):
        """Liveness vs readiness: /healthz answers 200 even when
        /readyz refuses — restart loops key off liveness only."""
        async def scenario(server, host, port):
            server._accepting = False
            (status, _, body), = await raw_exchange(host, port,
                                                    get_bytes("/healthz"))
            server._accepting = True
            return status, json.loads(body)

        status, body = asyncio.run(with_http_server(scenario))
        assert status == 200 and body["alive"] is True

    def test_slo_endpoint(self):
        async def scenario(server, host, port):
            await raw_exchange(host, port,
                               post_bytes({"id": 1, "coeffs": [-6, 1, 1]}))
            (status, _, body), = await raw_exchange(host, port,
                                                    get_bytes("/slo"))
            return status, json.loads(body)

        status, report = asyncio.run(with_http_server(scenario))
        assert status == 200
        assert report["ok"] is True and report["samples"] >= 1
        assert {o["name"] for o in report["objectives"]} == \
            {"latency_p99", "availability"}

    def test_metrics_json_endpoint(self):
        async def scenario(server, host, port):
            (status, headers, body), = await raw_exchange(
                host, port, get_bytes("/metrics.json"))
            return status, headers, json.loads(body)

        status, headers, snap = asyncio.run(with_http_server(scenario))
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert "metrics" in snap and "time_unix" in snap
