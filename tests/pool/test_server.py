"""End-to-end asyncio tests of the NDJSON front door.

Server and client share one event loop (real sockets on loopback,
ephemeral ports); device workers run inline except for one
cross-mode smoke test against real processes.
"""

import asyncio
import itertools
import json
from dataclasses import replace

from repro.core.params import SystemParameters
from repro.pool import (
    DevicePool,
    PoolClient,
    PoolServer,
    get_json,
    request_shutdown,
    run_jobs,
)
from repro.runtime import ExecutorConfig
from repro.runtime.jobs import SourceSpec, StageSpec, StreamJob

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=5.0, idle_streak=1, max_us=100_000.0)


def tiny_job(name, count=8):
    return StreamJob(
        name=name,
        stages=[StageSpec("passthrough")],
        source=SourceSpec("ramp", count=count),
    )


async def start_server(devices=2, clock=None, use_processes=False):
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    pool = DevicePool(
        devices=devices, params=FAST, config=CONFIG,
        use_processes=use_processes, **kwargs,
    )
    server = PoolServer(pool, "127.0.0.1", 0)
    await server.start()
    return server


# ----------------------------------------------------------------------
def test_round_trip_with_fake_clock():
    ticks = itertools.count(start=7000.0, step=0.25)

    async def scenario():
        server = await start_server(clock=lambda: next(ticks))
        events = []
        summary = await run_jobs(
            server.host, server.port,
            [tiny_job(f"rt{i}") for i in range(6)],
            tenant="alpha", on_event=events.append,
        )
        await server.aclose()
        return summary, events

    summary, events = asyncio.run(scenario())
    assert summary["ok"]
    assert summary["jobs"] == 6
    assert summary["states"] == {"done": 6}
    assert summary["words_lost"] == 0
    kinds = {e["event"] for e in events}
    assert {"submitted", "placed", "bound", "running", "first_sample",
            "done", "batch_done"} <= kinds
    # every event timestamp came from the injected clock
    stamped = [e["t"] for e in events if "t" in e]
    assert stamped and all(t >= 7000.0 and (t * 4) == int(t * 4)
                           for t in stamped)
    for e in events:
        if e["event"] == "first_sample":
            assert e["latency_s"] > 0


def test_tenant_isolation_on_concurrent_connections():
    async def scenario():
        server = await start_server()
        ev_a, ev_b = [], []
        sum_a, sum_b = await asyncio.gather(
            run_jobs(server.host, server.port,
                     [tiny_job(f"a{i}") for i in range(4)],
                     tenant="alpha", on_event=ev_a.append),
            run_jobs(server.host, server.port,
                     [tiny_job(f"b{i}") for i in range(4)],
                     tenant="beta", on_event=ev_b.append),
        )
        await server.aclose()
        return sum_a, sum_b, ev_a, ev_b

    sum_a, sum_b, ev_a, ev_b = asyncio.run(scenario())
    assert sum_a["ok"] and sum_b["ok"]
    # each connection saw only its own jobs' lifecycle events
    assert {e["job"] for e in ev_a if e.get("tenant")} == {
        f"a{i}" for i in range(4)
    }
    assert {e["job"] for e in ev_b if e.get("tenant")} == {
        f"b{i}" for i in range(4)
    }
    assert all(e["tenant"] == "alpha" for e in ev_a if e.get("tenant"))
    assert all(e["tenant"] == "beta" for e in ev_b if e.get("tenant"))


def test_health_stats_and_metrics_endpoints():
    from repro.pool import ClientError

    async def scenario():
        server = await start_server()
        try:
            health = await get_json(server.host, server.port, "/healthz")
            stats = await get_json(server.host, server.port, "/stats")
            # /metrics is text, fetch raw
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            try:
                await get_json(server.host, server.port, "/nope")
                not_found = None
            except ClientError as exc:
                not_found = str(exc)
            return health, stats, raw.decode(), not_found
        finally:
            await server.aclose()

    health, stats, metrics, not_found = asyncio.run(scenario())
    assert health["ok"] and health["devices"] == 2
    assert len(stats["devices"]) == 2
    assert "repro_pool_overcommit_pressure" in metrics
    assert not_found is not None and "404" in not_found


def test_malformed_submissions_are_rejected_not_fatal():
    async def scenario():
        server = await start_server()
        client = PoolClient(server.host, server.port)
        await client.open()
        client._writer.write(b"this is not json\n")
        client._writer.write(
            (json.dumps({"job": {"stages": ["passthrough"]}}) + "\n")
            .encode()
        )  # no name
        await client.submit(tiny_job("good"))
        await client.submit(tiny_job("good"))  # duplicate active name
        await client.finish_submissions()
        events = [e async for e in client.events()]
        await client.close()
        await server.aclose()
        return events

    events = asyncio.run(scenario())
    rejects = [e for e in events if e["event"] == "reject"]
    assert len(rejects) == 3
    assert any("bad JSON" in e["error"] for e in rejects)
    assert any("name" in e["error"] for e in rejects)
    assert any("already active" in e["error"] for e in rejects)
    done = [e for e in events if e["event"] == "batch_done"]
    assert done and done[0]["jobs"] == 1 and done[0]["ok"]


def test_ill_typed_line_is_rejected_and_the_next_line_served():
    async def scenario():
        server = await start_server()
        client = PoolClient(server.host, server.port)
        await client.open()
        await client.submit({"name": "typed", "priority": "hi"})
        await client.submit(tiny_job("after"))
        await client.finish_submissions()
        events = [e async for e in client.events()]
        await client.close()
        await asyncio.wait_for(server.aclose(), timeout=30)
        return events

    events = asyncio.run(scenario())
    kinds = [e["event"] for e in events]
    assert kinds.count("reject") == 1
    assert kinds.count("done") == 1
    assert kinds[-1] == "batch_done"
    reject = next(e for e in events if e["event"] == "reject")
    assert reject["job"] == "typed" and "priority" in reject["error"]
    assert events[-1]["jobs"] == 1 and events[-1]["ok"]


def test_shutdown_endpoint_drains_gracefully():
    async def scenario():
        server = await start_server()
        run_task = asyncio.get_running_loop().create_task(
            server.run_until_shutdown()
        )
        summary = await run_jobs(
            server.host, server.port,
            [tiny_job(f"sd{i}") for i in range(4)],
        )
        await request_shutdown(server.host, server.port)
        await asyncio.wait_for(run_task, timeout=30)
        return summary, server.pool

    summary, pool = asyncio.run(scenario())
    assert summary["ok"]
    assert pool.strict_ok
    assert pool.stats()["draining"]


def test_process_workers_match_inline_results():
    """One cross-mode check: the multiprocessing bridge returns the
    same reports as inline threads."""
    specs = [tiny_job(f"xm{i}", count=6) for i in range(4)]

    async def run_mode(use_processes):
        server = await start_server(use_processes=use_processes)
        summary = await run_jobs(server.host, server.port, specs)
        reports = {
            job.spec.name: (job.report.words_out, job.report.run_us,
                            job.report.max_gap_us, job.report.state)
            for job in server.pool._jobs.values()
        }
        await server.aclose()
        return summary, reports

    sum_proc, rep_proc = asyncio.run(run_mode(True))
    sum_inline, rep_inline = asyncio.run(run_mode(False))
    assert sum_proc["ok"] and sum_inline["ok"]
    assert rep_proc == rep_inline
