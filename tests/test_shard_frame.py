"""The shard worker pipe's frames: the codec, and the code frames'
answers.

A :class:`~repro.shard.frame.FrameReader` must hand out exactly the
frames written, however the socket cuts them; a point or ``map_query``
chunk sent as label codes must answer what the parent's own snapshot
answers, value and type, or fail with the same error type.
"""

from __future__ import annotations

import pickle
import threading
from itertools import product

import pytest

from repro.core.cells import ALL
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.errors import ServerDegradedError
from repro.reliability.faults import ServingFaults
from repro.serving.server import SNAPSHOT_OP_TABLE
from repro.shard import ShardServer, created_segments, frame
from repro.shard.frame import FrameReader
from repro.shard.worker import _BATCH_MIN
from tests.faults import InjectedCrash


class _Feed:
    """A socket end that hands out ``chunks`` one ``recv_into`` each,
    then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv_into(self, view):
        if not self.chunks:
            return 0
        chunk = self.chunks.pop(0)
        n = min(len(view), len(chunk))
        view[:n] = chunk[:n]
        if n < len(chunk):
            self.chunks.insert(0, chunk[n:])
        return n


def frames_of(reader) -> list:
    """Every frame until EOF, as ``(kind, rid, payload bytes)``."""
    out = []
    while True:
        got = reader.read()
        if got is None:
            return out
        kind, rid, start, end = got
        out.append((kind, rid, bytes(reader.buf[start:end])))


PUBLISH = ("publish", 7, 3, "qctree-1-2-3", None)


class TestCodec:
    def test_a_frame_split_across_two_reads(self):
        data = frame.pickled(frame.CONTROL, 0, PUBLISH)
        for cut in (1, frame.HEADER.size - 1, frame.HEADER.size,
                    len(data) - 1):
            reader = FrameReader(_Feed([data[:cut], data[cut:]]))
            assert not reader.ready()
            [(kind, rid, payload)] = frames_of(reader)
            assert (kind, rid, pickle.loads(payload)) == (
                frame.CONTROL, 0, PUBLISH)

    def test_two_frames_in_one_read(self):
        first = frame.pickled(frame.ANSWER, 4, (True, 9.0))
        second = frame.VALUE_FRAME.pack(
            frame.VALUE, 5, frame.VALUE_BODY.size, frame.FLOAT, 6.5)
        reader = FrameReader(_Feed([first + second]))
        got = reader.read()
        assert got[:2] == (frame.ANSWER, 4)
        # The second is whole in the buffer: ready with no read.
        assert reader.ready()
        kind, rid, start, _end = reader.read()
        assert (kind, rid) == (frame.VALUE, 5)
        assert frame.VALUE_BODY.unpack_from(reader.buf, start) == (
            frame.FLOAT, 6.5)
        assert not reader.ready()
        assert reader.read() is None

    @pytest.mark.parametrize("cut", [None, 1000])
    def test_frames_larger_than_the_buffer(self, sales_table, cut):
        """A 4,000-cell code chunk and a ``publish``, each past the
        buffer, arrive whole (in one read, or cut every ``cut`` bytes),
        and a small frame after them still reads."""
        cells = [(("S1", "*", "s"),), (("S9", None, ALL),)] * 2000
        codes = frame.chunk_codes(cells, sales_table)
        chunk = frame.frame(frame.CODES, 1,
                            frame.EPOCH.pack(2) + codes.tobytes())
        publish = frame.pickled(frame.CONTROL, 0, PUBLISH)
        small = frame.frame(frame.REFUSED, 9)
        data = chunk + publish + small
        pieces = ([data] if cut is None else
                  [data[i:i + cut] for i in range(0, len(data), cut)])
        reader = FrameReader(_Feed(pieces), size=len(publish) - 1)
        got = frames_of(reader)
        assert [(kind, rid) for kind, rid, _ in got] == [
            (frame.CODES, 1), (frame.CONTROL, 0), (frame.REFUSED, 9)]
        assert got[0][2] == frame.EPOCH.pack(2) + codes.tobytes()
        assert pickle.loads(got[1][2]) == PUBLISH
        assert codes.shape == (4000, 3)
        assert codes[1].tolist() == [frame.UNSEEN, frame.ANY, frame.ANY]

    def test_eof_in_the_middle_of_a_frame(self):
        data = frame.pickled(frame.ANSWER, 4, (True, 9.0))
        whole = frame.frame(frame.REFUSED, 3)
        reader = FrameReader(_Feed([whole + data[:-1]]))
        assert reader.read()[:2] == (frame.REFUSED, 3)
        assert reader.read() is None

    def test_what_travels_pickled(self, sales_table):
        encoders = sales_table._encoders
        assert frame.point_codes(("S1", None, ALL), encoders) == [
            sales_table.encode_value(0, "S1"), frame.ANY, frame.ANY]
        for cell in (("S1", "P1"), ("S9", "*", "*"), (["S1"], "*", "*"),
                     5):
            assert frame.point_codes(cell, encoders) is None, cell
        assert frame.chunk_codes([(("S1", "P1"),)], sales_table) is None
        assert frame.chunk_codes([((["S1"], "*", "*"),)],
                                 sales_table) is None
        assert frame.chunk_codes([(("S1", "*", "*"), 2)],
                                 sales_table) is None


# -- the code frames answer as the parent does ------------------------------


def same_answer(server, cell) -> None:
    """The direct answer to ``point(cell)`` is the parent snapshot's,
    value and type; an error is one of the same type."""
    try:
        want = SNAPSHOT_OP_TABLE["point"](server.snapshot, cell)
    except Exception as exc:
        with pytest.raises(type(exc)):
            server.submit("point", cell).result(timeout=5)
        return
    got = server.submit("point", cell).result(timeout=5)
    assert (got, type(got)) == (want, type(want)), cell


@pytest.fixture
def make_server():
    servers = []

    def make(warehouse, **kwargs):
        kwargs.setdefault("processes", 1)
        kwargs.setdefault("cache_size", 0)
        server = ShardServer(warehouse, **kwargs)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
    assert created_segments() == []


SALES_CELLS = [
    *product(("S1", "S2", "S9", "*", None, ALL), ("P1", "P2", "*", None),
             ("s", "f", "*", ALL)),
    ("S1", "P1"), ("S1", "P1", "s", "x"), (["S1"], "*", "*"),
    ("S1", {"P1"}, "s"), ("S9", ["x"], "s"),
]


class TestCodeFrameAnswers:
    def test_sales_cells(self, sales_table, make_server):
        server = make_server(QCWarehouse(sales_table, aggregate="avg(Sale)"))
        for cell in SALES_CELLS:
            same_answer(server, cell)
        calls = [(cell,) for cell in SALES_CELLS[:-5]]
        for share in (calls[:5], calls * (_BATCH_MIN // len(calls) + 1)):
            assert server.map_query("point", share) == [
                SNAPSHOT_OP_TABLE["point"](server.snapshot, cell)
                for (cell,) in share]
        shard = server.shard_health()
        assert shard["local_fallbacks"] == 0
        assert shard["workers"][0]["answered"] > len(SALES_CELLS)

    def test_an_int_labelled_dimension(self, make_server):
        schema = Schema(dimensions=("Year", "Item"), measures=("m",))
        warehouse = QCWarehouse.from_records(
            [(2001, "a", 1.0), (2002, "b", 2.0), (1, "a", 4.0)], schema,
            aggregate="sum(m)")
        server = make_server(warehouse)
        for cell in product((2001, 2001.0, 2002, 1, True, 1.5, "2001", "*"),
                            ("a", "b", None)):
            same_answer(server, cell)
        calls = [(cell,) for cell in product((2001, 1, True, 7), ("a", "*"))]
        assert server.map_query("point", calls * 10) == [
            SNAPSHOT_OP_TABLE["point"](server.snapshot, cell)
            for (cell,) in calls * 10]

    def test_a_publish_that_adds_a_label(self, sales_table, make_server):
        server = make_server(QCWarehouse(sales_table, aggregate="avg(Sale)"))
        same_answer(server, ("S3", "*", "*"))
        server.insert([("S3", "P9", "s", 5.0)])
        for cell in [("S3", "*", "*"), ("S3", "P9", "s"), ("*", "P9", "*"),
                     ("S1", "P9", "*"), ("S2", "*", "f")]:
            same_answer(server, cell)
        assert server.map_query("point", [(("S3", "P9", "*"),)] * 70) == [
            5.0] * 70

    def test_a_read_racing_a_publish(self, sales_table, make_server):
        """Points read while writes publish a new label each: every
        answer is the value before or after its label's write, and once
        the writes are in, the parent's."""
        server = make_server(QCWarehouse(sales_table, aggregate="sum(Sale)"),
                             processes=2)
        labels = [f"N{i}" for i in range(6)]
        stop = threading.Event()
        seen = []

        def read():
            while not stop.is_set():
                for label in labels:
                    seen.append(server.submit(
                        "point", (label, "*", "*")).result(timeout=5))
                seen.extend(server.map_query(
                    "point", [((label, "*", "*"),) for label in labels]))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for label in labels:
                server.insert([(label, "P1", "s", 2.0)])
        finally:
            stop.set()
            reader.join(10)
        assert not reader.is_alive()
        assert set(seen) <= {None, 2.0}
        for label in labels:
            same_answer(server, (label, "*", "*"))

    def test_reads_after_recover(self, sales_table, make_server):
        faults = ServingFaults()
        server = make_server(QCWarehouse(sales_table, aggregate="avg(Sale)"),
                             faults=faults)
        faults.arm("shard:publish", times=None, exc=InjectedCrash)
        with pytest.raises(ServerDegradedError):
            server.insert([("S3", "P1", "s", 5.0)])
        assert server.write_degraded
        faults.disarm("shard:publish")
        assert server.recover() is True
        for cell in SALES_CELLS + [("S3", "P1", "s"), ("S3", "*", "*")]:
            same_answer(server, cell)
