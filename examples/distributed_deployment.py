"""Peer-side query execution over a Chord ring.

The other examples drive the index through a client-style engine (the
OpenDHT deployment).  This one runs the paper's narrated deployment:
every peer hosts a query agent; a range query enters at an arbitrary
peer, hops to the corner cell of its LCA, and fans out peer-to-peer
through branch-node forwards, each routed from the forwarding peer's
own place in the ring — and the metered costs come out identical
to the client-orchestrated engine, which is why the two deployments are
interchangeable under the paper's cost model.

Run with::

    python examples/distributed_deployment.py
"""

from repro import IndexConfig, MLightIndex, Region, RuntimeConfig, create_dht
from repro.datasets.northeast import northeast_surrogate
from repro.mcast import MulticastRuntime


def main() -> None:
    config = IndexConfig(dims=2, max_depth=18, split_threshold=25,
                         merge_threshold=12)
    print("building a 16-peer Chord ring and indexing 3,000 addresses...")
    dht = create_dht(RuntimeConfig(kind="sim", overlay="chord", n_peers=16))
    index = MLightIndex(dht, config)
    for position, point in enumerate(northeast_surrogate(3000, seed=13)):
        index.insert(point, value=position)

    runtime = MulticastRuntime(dht, config.dims, config.max_depth)
    query = Region((0.36, 0.30), (0.66, 0.60))  # the NY metro box

    print("\nclient-orchestrated engine:")
    engine_result = index.range_query(query)
    print(f"  {len(engine_result.records)} hits, "
          f"{engine_result.lookups} DHT-lookups, "
          f"{engine_result.rounds} rounds")

    for initiator in (dht.peers()[0], dht.peers()[7]):
        result = runtime.query(query, initiator=initiator)
        print(f"peer-side execution from {initiator}:")
        print(f"  {len(result.records)} hits, "
              f"{result.lookups} DHT-lookups, {result.rounds} rounds")
        assert {r.value for r in result.records} == {
            r.value for r in engine_result.records
        }
        assert result.lookups == engine_result.lookups
        assert result.rounds == engine_result.rounds

    print("\nidentical answers and identical metered costs from every "
          "entry point — the cost model cannot tell the deployments "
          "apart.")


if __name__ == "__main__":
    main()
