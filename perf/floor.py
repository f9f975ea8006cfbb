"""Floor-timed replay: the benchmark's estimator.

A workload is a fixed operation list.  Every *pass* stands up a fresh
DHT, bulk-loads the same base set, attaches an index and replays the
list, timing each operation.  Everything is deterministic, so operation
``i`` sees the identical index state in every pass and its cost is the
*minimum* over passes: host noise on a shared VM is one-sided (it only
ever adds time), so the minimum converges where a median does not.
All timing metrics derive from those per-operation floors; percentiles
are taken across operations, never across noisy repeats.

What a minimum cannot remove is a *phase* in which the host runs
everything slower for minutes (a busy sibling hyperthread, a lower
clock).  So a fixed pure-Python reference kernel is replayed among the
operations, its floor is taken the same way, and every time is reported
at *reference speed*: multiplied by the kernel's nominal time over its
floor in this run.

Every pass also checks every answer against a brute-force oracle and,
when it ran to its end, its cost counters against the first pass's.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.core.bulkload
from repro import datasets
from repro.common.config import IndexConfig
from repro.common.rng import derive_seed, make_rng
from repro.core.index import MLightIndex
from repro.runtime import create_dht
from repro.workloads.traces import Operation, request_trace, run_operation

from workloads import BASE_POINTS, Workload

KINDS = ("lookup", "range", "insert")

#: The reference kernel runs before every REF_EVERY-th operation ...
REF_EVERY = 25
#: ... and takes this long on the host class the benchmark was built on
#: when it is quiet; it anchors the unit of the reported times.
REF_NOMINAL_S = 65e-6


def reference_kernel(n: int = 300) -> int:
    """Interpreter-bound work of the program's kind (dict and tuple
    traffic, small integers, a sort) that no change to the program can
    move: what it costs now says how fast the host runs now."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, acc)) & 0xFF
    return acc + len(sorted(table))


@dataclass
class Prepared:
    """A workload's seeded inputs and the oracle's answers to them."""

    workload: Workload
    seed: int
    config: IndexConfig
    base: list
    ops: list[Operation]
    #: Per operation: the key's multiplicity among live points (lookup),
    #: the sorted matching keys (range), ``None`` (insert).
    expected: list


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate base set, operation list and oracle answers from *seed*."""
    generate = getattr(datasets, workload.dataset)
    base = generate(BASE_POINTS, seed=derive_seed(seed, "base"))
    ops = []
    for kind, count in zip(
        KINDS, (workload.lookups, workload.ranges, workload.inserts)
    ):
        ops += request_trace(
            base,
            count,
            lookup_fraction=float(kind == "lookup"),
            range_fraction=float(kind == "range"),
            insert_fraction=float(kind == "insert"),
            span=workload.span,
            seed=derive_seed(seed, kind),
        )
    make_rng(derive_seed(seed, "interleave")).shuffle(ops)
    config = IndexConfig(runtime=workload.runtime["kind"], **workload.index)
    return Prepared(workload, seed, config, base, ops, _oracle(base, ops))


def _oracle(base: list, ops: list[Operation]) -> list:
    """Brute-force answers over the live point list (base + inserts so
    far), one linear scan per query."""
    multiplicity: dict = {}
    for point in base:
        multiplicity[point] = multiplicity.get(point, 0) + 1
    inserted: list = []
    expected = []
    for op in ops:
        if op.kind == "insert":
            inserted.append(op.key)
            multiplicity[op.key] = multiplicity.get(op.key, 0) + 1
            expected.append(None)
        elif op.kind == "lookup":
            expected.append(multiplicity[op.key])
        else:
            (lx, ly), (hx, hy) = op.region.lows, op.region.highs
            expected.append(
                sorted(
                    p
                    for points in (base, inserted)
                    for p in points
                    if lx <= p[0] <= hx and ly <= p[1] <= hy
                )
            )
    return expected


def answer_matches(op: Operation, expected, result) -> bool:
    """Whether the index's *result* for *op* equals the oracle's."""
    if op.kind == "range":
        return result.complete and (
            sorted(record.key for record in result.records) == expected
        )
    bucket = result.bucket
    if not bucket.covers(op.key):
        return False
    if op.kind == "insert":
        return True
    return sum(r.key == op.key for r in bucket.records) == expected


@dataclass
class PassResult:
    """What one replay measured and counted."""

    setup_s: float
    #: One per operation replayed: all of them, or the list's head when
    #: the deadline cut the pass short.
    times: list[float]
    failed: int
    #: Everything that must repeat exactly from pass to pass: DhtStats
    #: deltas of the replay, result-shape sums, final tree totals.
    #: ``None`` for a pass cut short, and so is the effective store.
    counts: dict | None
    store_kind: str | None
    #: One per reference-kernel call made during the replay.
    ref_times: list[float]
    #: Per operation: the spans it recorded (traced passes only).
    op_spans: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)


def run_pass(
    prepared: Prepared,
    tmp_root: Path,
    recorder=None,
    deadline: float = float("inf"),
) -> PassResult:
    """One pass: fresh DHT, bulk load, index, then the timed replay,
    which stops before the first operation that would start after
    *deadline* (a ``perf_counter`` reading)."""
    workload, config = prepared.workload, prepared.config
    runtime = dict(workload.runtime)
    data_dir = None
    if runtime.get("durability"):
        data_dir = Path(tempfile.mkdtemp(dir=tmp_root, prefix="journal-"))
        runtime["data_dir"] = str(data_dir)
    gc.collect()
    dht = None
    try:
        if recorder is not None:
            recorder.take()  # whatever ran between passes is no one's
        started = time.perf_counter()
        dht = create_dht(**runtime)
        # Through the module attribute, so a traced run's patched
        # bulk_load is the one called.
        repro.core.bulkload.bulk_load(dht, prepared.base, config)
        index = MLightIndex(dht, config)
        setup_s = time.perf_counter() - started
        setup_spans = recorder.take() if recorder is not None else []

        before = dht.stats.snapshot()
        times = []
        op_spans = []
        failed = 0
        shape = dict.fromkeys(
            ("range_rounds", "range_lookups", "range_batch_rounds",
             "range_leaves", "lookup_probes"), 0,
        )
        clock = time.perf_counter
        t1 = clock()
        ref_times = []
        for number, op in enumerate(prepared.ops):
            if t1 > deadline:
                break
            if number % REF_EVERY == 0:
                t0 = clock()
                reference_kernel()
                ref_times.append(clock() - t0)
            expected = prepared.expected[number]
            t0 = clock()
            try:
                result = run_operation(index, op)
                t1 = clock()
                ok = answer_matches(op, expected, result)
            except Exception:
                t1 = clock()
                ok = False
            times.append(t1 - t0)
            if recorder is not None:
                op_spans.append(recorder.take())
            if not ok:
                failed += 1
                continue
            if op.kind == "range":
                shape["range_rounds"] += result.rounds
                shape["range_lookups"] += result.lookups
                shape["range_batch_rounds"] += result.batch_rounds
                shape["range_leaves"] += len(result.visited_leaves)
            elif op.kind == "lookup":
                shape["lookup_probes"] += result.lookups
        counts = store_kind = None
        if len(times) == len(prepared.ops):
            after = dht.stats.snapshot()
            counts = {key: after[key] - before[key] for key in after}
            counts.update(shape)
            buckets = list(index.buckets())
            counts["tree_size"] = len(buckets)
            counts["total_records"] = sum(b.load for b in buckets)
            counts["journal_bytes"] = (
                sum(f.stat().st_size for f in data_dir.iterdir())
                if data_dir is not None
                else 0
            )
            store_kind = buckets[0].store.kind
    finally:
        if dht is not None and hasattr(dht, "close"):
            dht.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
    return PassResult(
        setup_s, times, failed, counts, store_kind, ref_times,
        op_spans, setup_spans,
    )


@dataclass
class Measurement:
    """Per-operation floors over a block of passes."""

    prepared: Prepared
    floors: list[float]
    setup_floor_s: float
    passes: float  # replays of the list; the last one may be a fraction
    attempted: int
    failed: int
    counts: dict
    store_kind: str
    raw_ops_per_s: float
    #: Reference speed over the host's speed during these passes: what
    #: a measured time is multiplied by to report it (1 on a quiet host
    #: of the reference class, below 1 when the host ran slow).
    speed: float
    #: Traced blocks only: per operation, the span list of its fastest
    #: pass; and the fastest set-up's span list.
    best_op_spans: list = field(default_factory=list)
    best_setup_spans: list = field(default_factory=list)

    @property
    def floor_total_s(self) -> float:
        return sum(self.floors)


def measure(
    prepared: Prepared,
    tmp_root: Path,
    *,
    seconds: float,
    recorder=None,
) -> Measurement:
    """Replay *prepared* for *seconds* and keep each operation's floor.

    The first pass always runs to its end: it gives every operation a
    sample and is the one later passes' counters are compared with.
    Further passes start while time is left and the last is cut at the
    deadline, so a measurement ends on time however slow the host is
    (unless the first pass alone takes longer).  Cold caches only make
    the first pass slower, which a minimum ignores.
    """
    deadline = time.perf_counter() + seconds
    n_ops = len(prepared.ops)
    floors = [float("inf")] * n_ops
    setup_floor = float("inf")
    best_op_spans = [None] * n_ops
    best_setup_spans = []
    attempted = failed = 0
    sample_s = 0.0
    ref_floors = [float("inf")] * len(range(0, n_ops, REF_EVERY))
    first = None
    while first is None or time.perf_counter() < deadline:
        result = run_pass(
            prepared, tmp_root, recorder,
            float("inf") if first is None else deadline,
        )
        if first is None:
            first = result
        elif result.counts is not None and result.counts != first.counts:
            # The pass diverged from the first one: its timings describe
            # a different index state, so the run must not pass.
            failed += 1
        attempted += len(result.times)
        failed += result.failed
        sample_s += sum(result.times)
        if result.setup_s < setup_floor:
            setup_floor = result.setup_s
            best_setup_spans = result.setup_spans
        for i, t in enumerate(result.ref_times):
            if t < ref_floors[i]:
                ref_floors[i] = t
        for i, t in enumerate(result.times):
            if t < floors[i]:
                floors[i] = t
                if recorder is not None:
                    best_op_spans[i] = result.op_spans[i]
    return Measurement(
        prepared, floors, setup_floor, attempted / n_ops, attempted, failed,
        first.counts, first.store_kind,
        raw_ops_per_s=attempted / sample_s,
        speed=REF_NOMINAL_S / statistics.median(ref_floors),
        best_op_spans=best_op_spans, best_setup_spans=best_setup_spans,
    )


def end_to_end_metrics(m: Measurement, peak_rss_mb: float) -> dict:
    """The benchmark's end-to-end metrics: ``name -> (value, unit)``,
    the times at reference speed."""
    workload = m.prepared.workload
    metrics = {
        "setup_s": (m.speed * m.setup_floor_s, "s"),
        "ops_per_s": (
            workload.n_ops / (m.speed * m.floor_total_s), "ops/s"),
    }
    for kind in KINDS:
        floors_ms = [
            1e3 * m.speed * t
            for t, op in zip(m.floors, m.prepared.ops)
            if op.kind == kind
        ]
        twentieths = statistics.quantiles(
            floors_ms, n=20, method="inclusive")
        metrics[f"{kind}_p50_ms"] = (twentieths[9], "ms")
        metrics[f"{kind}_p95_ms"] = (twentieths[18], "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["dht_lookups_per_op"] = (
        m.counts["lookups"] / workload.n_ops, "count")
    metrics["range_rounds_per_query"] = (
        m.counts["range_rounds"] / workload.ranges, "count")
    return metrics
