"""Pin what an index puts on the service runtime's wire.

One scripted scenario — bulk load, cold and repeated lookups, range
queries at ``lookahead`` 1 and 2, inserts through splits, deletes
through a merge — over both transports, with the leaf cache off and on.
Its full ``DhtStats`` snapshot, the message, byte and round counters
of ``NetworkStats`` and its messages and bytes per message type
(``per_type``, ``bytes_per_type``, so no byte moves between the types
unnoticed) must equal the numbers in ``service_wire_pin.json``,
recorded before the lookup and range drivers moved onto the service
loop: "the same messages, fewer thread hops" is a tier-1 assertion.

Re-record (only when the protocol is *meant* to change) with
``PYTHONPATH=src:. python tests/test_service_wire_pin.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.runtime import create_dht

RECORDED = Path(__file__).with_name("service_wire_pin.json")

POINTS = uniform_points(420, seed=11)
BASE, FRESH = POINTS[:300], POINTS[300:]
#: Leaf-cache capacities; both transports must produce the same numbers.
CAPACITIES = (0, 16)
NETWORK_COUNTERS = (
    "messages", "bytes_sent", "payload_bytes", "rpc_calls", "rounds",
    "round_messages", "max_round_fanout",
)


def box(point, span: float = 0.05) -> Region:
    """The closed square of half-width *span* around *point*, clipped
    to the unit square."""
    return Region(
        tuple(max(0.0, c - span) for c in point),
        tuple(min(1.0, c + span) for c in point),
    )


def run_scenario(transport: str, capacity: int) -> dict:
    config = IndexConfig(
        dims=2, split_threshold=20, merge_threshold=10,
        cache_capacity=capacity,
    )
    with create_dht(kind=transport, n_peers=8) as dht:
        bulk_load(dht, BASE, config)
        index = MLightIndex(dht, config)
        leaves_loaded = index.tree_size()
        for point in BASE[:30] + BASE[:10] + FRESH[:10]:
            index.lookup(point)
        for number, point in enumerate(BASE[40:60]):
            index.range_query(box(point, 0.03 + 0.01 * (number % 4)), 1)
        for number, point in enumerate(BASE[60:80]):
            index.range_query(box(point, 0.03 + 0.01 * (number % 4)), 2)
        for point in FRESH:
            index.insert(point, "fresh")
        leaves_grown = index.tree_size()
        for point in BASE[:220]:
            index.delete(point)
        for point in FRESH[:20]:
            index.lookup(point)
        index.check_invariants()
        network = dht.network.stats
        return {
            # The scenario must have split and merged to pin them.
            "splits_and_merges": [
                leaves_grown > leaves_loaded,
                dht.stats.removes > 0,
            ],
            "dht": dht.stats.snapshot(),
            "network": {
                name: getattr(network, name) for name in NETWORK_COUNTERS
            },
            "per_type": dict(sorted(network.per_type.items())),
            "bytes_per_type": dict(sorted(network.bytes_per_type.items())),
            "tree_size": index.tree_size(),
            "total_records": index.total_records(),
        }


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_scripted_scenario_matches_the_recorded_wire(transport, capacity):
    recorded = json.loads(RECORDED.read_text())[f"cache{capacity}"]
    observed = json.loads(json.dumps(run_scenario(transport, capacity)))
    assert observed["splits_and_merges"] == [True, True]
    assert observed == recorded


if __name__ == "__main__":
    out = {
        f"cache{capacity}": run_scenario("asyncio", capacity)
        for capacity in CAPACITIES
    }
    RECORDED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(out)} scenarios to {RECORDED}\n")
