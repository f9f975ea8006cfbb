"""Service-plane load gate: the runtime keeps up with an open loop.

Drives the open-loop load generator against the asyncio runtime at a
small scale.  The gate is deliberately loose — achieved throughput
must reach at least half the target — because its job is to catch the
runtime falling over (a stuck event loop, a request that never gets
its reply), not to
benchmark the host; how fast the service plane is, is ``perf/``'s
``svc_scan`` / ``svc_journal``.  The full-scale run (100k records, 8
peers, 500 QPS for 10 s) is the command-line module itself; see
docs/usage.md.
"""

import pytest

from repro.service.loadgen import build_loaded_index, run_load
from repro.workloads.traces import request_trace

TARGET_QPS = 200.0
DURATION_S = 3.0
#: The CI sanity gate: achieved QPS must be at least this fraction of
#: the target, or the service runtime is considered broken.
MIN_ACHIEVED_FRACTION = 0.5


@pytest.fixture(scope="module")
def load_report():
    index, points = build_loaded_index(
        "asyncio", n_peers=4, n_records=5_000, seed=11
    )
    try:
        operations = request_trace(
            points, round(TARGET_QPS * DURATION_S), seed=11
        )
        report = run_load(
            index,
            operations,
            TARGET_QPS,
            runtime_label="asyncio",
            records_loaded=len(points),
            n_peers=4,
        )
    finally:
        index.dht.close()
    print(f"\n{report.render()}")
    return report


@pytest.mark.smoke
def test_achieved_qps_meets_the_gate(load_report):
    assert load_report.achieved_fraction() >= MIN_ACHIEVED_FRACTION, (
        f"service runtime achieved {load_report.achieved_qps:.1f} QPS "
        f"of a {load_report.target_qps:.0f} QPS target "
        f"({load_report.achieved_fraction():.0%}); the gate is "
        f"{MIN_ACHIEVED_FRACTION:.0%}"
    )


@pytest.mark.smoke
def test_operations_actually_completed(load_report):
    """A run that met the rate by failing everything is no pass."""
    assert load_report.completed > 0
    assert load_report.failed == 0
    assert load_report.completed + load_report.failed == (
        load_report.operations
    )

