"""Weather-station OLAP: compression, queries, daily loads, persistence.

A scaled model of the paper's evaluation dataset (September 1985 land
station records): nine correlated dimensions, heavily skewed station
activity.  The example compares the four storage structures on the same
data, runs the paper's query workloads, applies a day of incremental
loads, and round-trips the warehouse through its checkpoint directory
and write-ahead log.

Run:  python examples/weather_olap.py
"""

import os
import tempfile

from repro import QCWarehouse
from repro.core.point_query import point_query
from repro.data.weather import weather_table
from repro.data.workloads import point_query_workload, range_query_workload
from repro.storage import compression_report


def main():
    table = weather_table(2500, scale=0.01, seed=0, n_dims=6)
    print(f"Weather-like base table: {table}")
    print(f"  cardinalities: {dict(zip(table.schema.dimension_names, table.cardinalities()))}")

    print("\n-- Storage comparison (bytes; cf. the paper's Figure 15) --")
    report = compression_report(table, "count")
    for name in ("cube", "dwarf", "qc_table", "qctree"):
        ratio = report.get(f"{name}_ratio_pct", 100.0)
        print(f"  {name:9s}: {report[f'{name}_bytes']:>9,} bytes "
              f"({ratio:5.1f}% of cube)")

    warehouse = QCWarehouse(table, aggregate=("avg", "temperature"))

    print("\n-- 1,000 random point queries --")
    queries = point_query_workload(table, 1000, seed=1)
    hits = sum(
        1 for q in queries if point_query(warehouse.tree, q) is not None
    )
    print(f"  {hits} hits / {1000 - hits} provably-empty cells")

    print("\n-- A wide range query: all stations, one day, all hours --")
    specs = range_query_workload(table, 1, seed=4, min_range_dims=1,
                                 max_range_dims=1, values_per_range="full")
    decoded = warehouse.range(
        tuple(
            [table.decode_value(j, v) for v in e] if isinstance(e, list) else
            ("*" if e is None or str(e) == "*" else table.decode_value(j, e))
            for j, e in enumerate(specs[0])
        )
    )
    print(f"  {len(decoded)} non-empty cells in the range")

    print("\n-- Daily load: 150 new readings, then a sensor recall --")
    before = warehouse.stats()
    day = weather_table(150, scale=0.01, seed=123, n_dims=6)
    new_readings = list(day.iter_records())
    warehouse.insert(new_readings)
    print(f"  classes {before['classes']} -> {warehouse.stats()['classes']}")
    # A station's morning readings turn out faulty: retract them.
    faulty = new_readings[:20]
    warehouse.delete(faulty)
    print(f"  after recall: {warehouse.stats()['classes']} classes")

    print("\n-- Persistence round trip: checkpoint, log, crash, recover --")
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "weather.d")
        wal_path = os.path.join(directory, "wal.log")
        warehouse.checkpoint(directory)
        size = sum(os.path.getsize(os.path.join(directory, name))
                   for name in os.listdir(directory))
        # A late reading, logged before it is applied: the process
        # "crashes" here without a second checkpoint.
        warehouse.attach_wal(wal_path)
        warehouse.insert(new_readings[20:21])
        loaded = QCWarehouse.recover(directory, wal_path, table.schema)
        print(f"  checkpointed {size:,} bytes; replayed "
              f"{loaded.last_recovery['replayed']} logged batch; "
              f"recovered {loaded.n_rows:,} of {warehouse.n_rows:,} rows")
        probe = ("*",) * 6
        print(f"  AVG(temperature) overall: {loaded.point(probe):.2f} "
              f"(before the crash: {warehouse.point(probe):.2f})")
        # Labels are ints; the checkpoint keeps their type, so a
        # labelled cell answers after the restart as it did before.
        station, *_, day = new_readings[20][:6]
        labelled = (station, "*", "*", "*", "*", day)
        print(f"  AVG(temperature) at station {station} on day {day}: "
              f"{loaded.point(labelled):.2f} "
              f"(before the crash: {warehouse.point(labelled):.2f})")


if __name__ == "__main__":
    main()
