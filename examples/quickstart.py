"""Quickstart: build an m-LIGHT index and run every operation once.

Run with::

    python examples/quickstart.py

Set ``REPRO_STORE=columnar|numpy`` to pick the bucket record-store
backend; every backend returns identical answers.
"""

import os

from repro import IndexConfig, MLightIndex, Region, create_dht


def main() -> None:
    # An over-DHT index needs only a DHT exposing put/get/lookup; the
    # default runtime simulates 128 peers with consistent hashing.
    # The `store` knob picks how leaf buckets hold their records.
    store = os.environ.get("REPRO_STORE", "columnar")
    config = IndexConfig(dims=2, max_depth=20, split_threshold=8,
                         merge_threshold=4, store=store)
    index = MLightIndex(create_dht(n_peers=128), config)

    # Insert a handful of 2-D records: (key, value).
    songs = [
        ((0.90, 0.70), "Song A: rating 4.5, year 2007"),
        ((0.84, 0.75), "Song B: rating 4.2, year 2007.5"),
        ((0.95, 0.80), "Song C: rating 4.8, year 2008"),
        ((0.40, 0.72), "Song D: rating 2.0, year 2007.2"),
        ((0.88, 0.30), "Song E: rating 4.4, year 2003"),
    ]
    for key, value in songs:
        index.insert(key, value)
    print(f"inserted {index.total_records()} records "
          f"into {index.tree_size()} leaf bucket(s)")

    # Exact-match lookup (Section 5): binary search over the candidate
    # labels, one DHT-get per probe.
    result = index.lookup((0.90, 0.70))
    print(f"lookup reached leaf {result.bucket.label!r} "
          f"in {result.lookups} DHT-lookups")

    # The paper's motivating query: "songs rated above 4 published
    # during 2007 and 2008" — with rating normalised on x and year on y.
    query = Region(lows=(0.8, 0.7), highs=(1.0, 0.8))
    answer = index.range_query(query)
    print(f"range query used {answer.lookups} DHT-lookups over "
          f"{answer.rounds} round(s) and matched:")
    for record in sorted(answer.records, key=lambda r: r.key):
        print(f"  {record.value}")

    # The parallel variant trades bandwidth for latency (Section 6).
    parallel = index.range_query(query, lookahead=4)
    print(f"parallel-4: {parallel.lookups} lookups, "
          f"{parallel.rounds} round(s)")

    # Deletion triggers merges when sibling buckets underflow.
    index.delete((0.40, 0.72))
    print(f"after delete: {index.total_records()} records")


if __name__ == "__main__":
    main()
