"""Dissemination-plane benchmark — E15, the multicast + push gate.

Runs the catalogue's E15 entry (:mod:`repro.experiments.mcast_experiment`) and
encodes the ISSUE's two acceptance gates:

* **O(1) initiator messages** — prefix multicast sends exactly one
  initiator-originated message per range query (``stats.mcasts``)
  while client fan-out sends one per branch resolution, and both
  produce identical answers with identical DHT-lookup and round
  meters, on every overlay;
* **exactly-once continuous delivery** — a subscription survives
  splits, merges, and a crash-restart of its rendezvous owner on a
  durable ring, with every matching insert (including those issued
  during the downtime) delivered exactly once.

Artefact: the rendered E15 tables under ``results/``.
"""

from __future__ import annotations

import pytest

from .conftest import publish


@pytest.mark.smoke
def test_e15_multicast_and_continuous(dataset):
    """E15 with the ISSUE's acceptance gates.  Its costs are per-query
    and per-ring, not per-point: a couple of thousand points already
    drive deep trees, splits and merges."""
    mcast, (continuous,) = publish("e15", dataset)

    assert len(mcast) == 3  # chord, kademlia, pastry
    for sample in mcast:
        # Gate 1: the initiator sends exactly one message per query...
        assert sample.mcast_initiator_msgs == sample.queries, (
            f"{sample.overlay}: multicast sent "
            f"{sample.mcast_initiator_msgs} initiator messages for "
            f"{sample.queries} queries — expected exactly one each"
        )
        # ...where fan-out sends one per branch resolution (O(#branches)).
        assert sample.fanout_initiator_msgs > sample.queries, (
            f"{sample.overlay}: fan-out only sent "
            f"{sample.fanout_initiator_msgs} initiator messages — the "
            f"workload never branched, so the O(1) gate is vacuous"
        )
        # Gate 2: moving the resolution into the overlay changes who
        # sends the messages, never the answers or the totals.
        assert sample.answers_equal, f"{sample.overlay}: answers diverged"
        assert sample.lookups_mcast == sample.lookups_fanout, (
            f"{sample.overlay}: lookup totals diverged "
            f"({sample.lookups_fanout} fan-out, {sample.lookups_mcast} "
            f"multicast)"
        )
        assert sample.rounds_mcast == sample.rounds_fanout, (
            f"{sample.overlay}: round totals diverged"
        )

    # Gate 3: exactly-once through churn and crash-restart, with the
    # downtime insert actually exercising the queue-and-flush path.
    assert continuous.queued_down > 0, (
        "no insert was queued while the rendezvous owner was down — "
        "the crash-restart gate is vacuous"
    )
    assert continuous.flushed == continuous.queued_down
    assert continuous.invalidations > 0, (
        "churn produced no proactive invalidations"
    )
    assert continuous.exactly_once, (
        f"delivery was not exactly-once: {continuous.duplicates} "
        f"duplicates, {continuous.missing} missing of "
        f"{continuous.inserts} matching inserts"
    )
