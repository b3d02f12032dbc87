"""Concurrent serving subsystem for QC-tree warehouses.

Turns a :class:`~repro.core.warehouse.QCWarehouse` into a concurrent
query service: a :class:`~repro.serving.server.QCServer` fans point /
range / iceberg / exploration requests across a pool of worker threads
that read lock-free from an atomically swapped
:class:`~repro.serving.snapshot.ServingSnapshot`, while a single-writer
mutation path applies maintenance to the dict tree, refreezes off the
read path, and publishes the result — readers never block on writers.
Production trimmings live alongside: a bounded admission queue with
load shedding and per-request deadlines
(:mod:`~repro.serving.admission`) and a metrics registry
(:mod:`~repro.serving.metrics`).

The fault-tolerance layer rides on top: a worker supervisor and
recoverable write pipeline inside the server, health/readiness probes
and the admission :class:`~repro.serving.health.CircuitBreaker`
(:mod:`~repro.serving.health`), and deterministic serving-layer fault
injection in :class:`~repro.reliability.faults.ServingFaults` (the
retrying client the chaos suites drive it with is ``tests/retry.py``).

The network front door is asyncio: :class:`AsyncQCServer`
(:mod:`~repro.serving.async_server`) speaks the shared line protocol
(:mod:`~repro.serving.protocol`) over TCP, bridging each request into
``QCServer.submit()`` futures with end-to-end backpressure.  The one
load generator is the coordinated-omission-free open-loop harness of
:mod:`~repro.serving.arrivals`, which ``benchmarks/e2e`` drives.
"""

from repro.serving.admission import AdmissionQueue, Request
from repro.serving.arrivals import (
    ArrivalSchedule,
    latency_summary,
    open_loop_run,
    run_open_loop_tcp,
)
from repro.serving.async_server import AsyncQCServer, AsyncServerThread
from repro.serving.health import CircuitBreaker, health_report
from repro.serving.metrics import LatencyHistogram, ServerMetrics
from repro.serving.protocol import LineClient, parse_line, response_complete
from repro.serving.server import QCServer
from repro.serving.snapshot import ServingSnapshot

__all__ = [
    "AdmissionQueue",
    "ArrivalSchedule",
    "AsyncQCServer",
    "AsyncServerThread",
    "CircuitBreaker",
    "LatencyHistogram",
    "LineClient",
    "QCServer",
    "Request",
    "ServerMetrics",
    "ServingSnapshot",
    "health_report",
    "latency_summary",
    "open_loop_run",
    "parse_line",
    "response_complete",
    "run_open_loop_tcp",
]
