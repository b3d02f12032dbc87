"""Marketing-management OLAP on a synthetic sales warehouse.

The scenario the paper's introduction motivates: a manager browses a
sales cube looking for exceptions without knowing where to drill.  This
example builds a multi-measure QC-tree warehouse over generated sales
facts and walks through the semantic services a quotient cube enables:

* iceberg queries with a measure index ("where is revenue concentrated?");
* constrained iceberg queries over a region of interest;
* intelligent roll-up ("how general is this observation?");
* class drill-in ("which other contexts are exactly equivalent?").

Run:  python examples/sales_analysis.py
"""

import random

from repro import QCWarehouse, Schema

STORES = [f"Store-{c}" for c in "ABCDEFGH"]
PRODUCTS = ["laptop", "phone", "tablet", "watch", "monitor", "dock"]
REGIONS = {"Store-A": "west", "Store-B": "west", "Store-C": "east",
           "Store-D": "east", "Store-E": "north", "Store-F": "north",
           "Store-G": "south", "Store-H": "south"}
QUARTERS = ["Q1", "Q2", "Q3", "Q4"]


def generate_sales(n_rows=1500, seed=7):
    """Sales facts with planted structure: the west region only sells
    electronics in Q4 promotions, so many contexts collapse together."""
    rng = random.Random(seed)
    records = []
    for _ in range(n_rows):
        store = rng.choice(STORES)
        region = REGIONS[store]
        if region == "west" and rng.random() < 0.6:
            quarter, product = "Q4", rng.choice(["laptop", "phone"])
        else:
            quarter, product = rng.choice(QUARTERS), rng.choice(PRODUCTS)
        units = rng.randint(1, 20)
        revenue = units * {"laptop": 1200, "phone": 800, "tablet": 500,
                           "watch": 300, "monitor": 250, "dock": 60}[product]
        records.append((store, region, product, quarter,
                        float(units), float(revenue)))
    return records


def main():
    schema = Schema(
        dimensions=("store", "region", "product", "quarter"),
        measures=("units", "revenue"),
    )
    warehouse = QCWarehouse.from_records(
        generate_sales(),
        schema,
        # Icebergs rank a multi-aggregate by its first part: revenue.
        aggregate=[("sum", "revenue"), "count"],
    )
    print("Warehouse:", warehouse)
    stats = warehouse.stats()
    print(f"  {stats['classes']} classes summarize the cube "
          f"({stats['nodes']} nodes, {stats['links']} links)\n")

    total_revenue = warehouse.point(("*", "*", "*", "*"))[0]
    print(f"Total revenue: {total_revenue:,.0f}")

    print("\n-- Iceberg: contexts earning at least 20% of total revenue --")
    for upper_bound, (revenue, count) in warehouse.iceberg(
        0.2 * total_revenue
    ):
        print(f"  {upper_bound}: revenue {revenue:,.0f} over {count} facts")

    print("\n-- Constrained iceberg: Q4 contexts above 5% of revenue --")
    heavy_q4 = warehouse.iceberg_in_range(
        ("*", "*", ["laptop", "phone"], "Q4"), 0.05 * total_revenue
    )
    for cell, (revenue, count) in sorted(heavy_q4.items()):
        print(f"  {cell}: {revenue:,.0f}")

    print("\n-- Intelligent roll-up --")
    anchor = ("Store-A", "west", "laptop", "Q4")
    observed = warehouse.point(anchor)
    if observed is None:
        print(f"  {anchor} not in the cube this seed; skipping")
    else:
        print(f"  Observation: {anchor} has revenue {observed[0]:,.0f}")
        contexts = warehouse.rollup(anchor)
        widest = contexts[0][0]
        print(f"  Most general context with the same class value: {widest}")

    print("\n-- Equivalent contexts (class drill-in) --")
    probe = ("Store-E", "*", "dock", "*")
    cls = warehouse.class_of(probe)
    if cls is None:
        print(f"  {probe} is empty")
    else:
        opened = warehouse.open_class(probe)
        print(f"  {probe} belongs to class {opened['upper_bound']} "
              f"with {len(opened['members'])} equivalent cells:")
        for member in opened["members"]:
            print(f"    {member}")

    print("\n-- Week of late-arriving facts (incremental maintenance) --")
    late = generate_sales(n_rows=40, seed=99)
    warehouse.insert(late)
    print(f"  after insert: {warehouse.stats()['classes']} classes")
    warehouse.delete(late[:10])  # ten of them were duplicates; retract
    print(f"  after retraction: {warehouse.stats()['classes']} classes")
    print(f"  total revenue now {warehouse.point(('*','*','*','*'))[0]:,.0f}")


if __name__ == "__main__":
    main()
