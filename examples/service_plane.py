"""The service plane: the same index over live asyncio peers.

Every other example runs on the simulated substrates.  This one builds
the index twice — once on the simulator, once on live asyncio peers
speaking the framed wire protocol — replays the same
workload on both, and shows the answers and index-level cost meters
come out identical, while the service side additionally reports real
wall-clock latency from a short open-loop load run.

Run with::

    python examples/service_plane.py
"""

from repro import IndexConfig, MLightIndex, RuntimeConfig, create_dht
from repro.datasets.synthetic import uniform_points
from repro.service.loadgen import run_load
from repro.workloads.traces import request_trace, run_operation


def replay(runtime: RuntimeConfig, points, trace):
    dht = create_dht(runtime)
    try:
        config = IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
        index = MLightIndex(dht, config)
        index.insert_many(points)
        answers = []
        for operation in trace:
            result = run_operation(index, operation)
            if operation.kind == "lookup":
                answers.append(sorted(r.key for r in result.bucket.records))
            elif operation.kind == "range":
                answers.append(sorted(r.key for r in result.records))
        return answers, dht.stats.snapshot()
    finally:
        close = getattr(dht, "close", None)
        if close is not None:
            close()


def main() -> None:
    points = uniform_points(1500, seed=21)
    trace = request_trace(points, 200, seed=22)

    print("replaying 200 operations on the simulated substrate ...")
    sim_answers, sim_stats = replay(
        RuntimeConfig(kind="sim", overlay="chord", n_peers=8), points, trace
    )
    print("replaying the same trace on live asyncio peers ...")
    svc_answers, svc_stats = replay(
        RuntimeConfig(kind="asyncio", n_peers=8), points, trace
    )

    assert sim_answers == svc_answers
    drift = {
        key for key in sim_stats
        if key != "hops" and sim_stats[key] != svc_stats[key]
    }
    assert not drift, drift
    print("answers and index-level cost meters identical across runtimes "
          "(overlay routing hops excluded).")

    print("\nnow a short open-loop load run against the service plane:")
    dht = create_dht(RuntimeConfig(kind="asyncio", n_peers=8))
    try:
        config = IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
        index = MLightIndex(dht, config)
        index.insert_many(points)
        report = run_load(
            index,
            request_trace(points, 300, seed=23),
            target_qps=150.0,
            runtime_label="asyncio",
            records_loaded=len(points),
            n_peers=8,
        )
    finally:
        dht.close()
    print(report.render())


if __name__ == "__main__":
    main()
