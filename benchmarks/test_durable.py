"""Durability-plane benchmark — E14, the crash-restart recovery gate.

Runs the catalogue's E14 entry (:mod:`repro.experiments.restart_experiment`): an
m-LIGHT tree over a 16-peer durable Chord ring, a three-crash burst,
optional inserts while the victims are down, then ``Dht.restart`` on
every victim.

The CI gates encode the restart analogue of the paper's Theorem 5
locality argument — recovery work tracks ownership churn, never data
size:

* with a durable backend every cell recovers to recall 1.0 while the
  crash itself visibly degrades recall (otherwise the experiment
  measured nothing);
* the cell with **zero** downtime writes moves **zero** repair bytes —
  replay is purely local;
* with downtime writes, repair traffic stays a small fraction of the
  whole store (``REPAIR_BYTES_FRACTION``) and the repaired key count a
  small fraction of the stored keys (``REPAIR_KEYS_FRACTION``).

Artefact: the rendered E14 table under ``results/``.
"""

from __future__ import annotations

import pytest

from .conftest import publish

#: Repair traffic must stay below this fraction of the whole store's
#: wire size — sublinear in data size, linear in downtime churn.
REPAIR_BYTES_FRACTION = 0.25

#: Keys moved during recovery must stay below this fraction of the
#: distinct keys stored ring-wide.
REPAIR_KEYS_FRACTION = 0.25


@pytest.mark.smoke
def test_e14_restart_recovery(dataset):
    """E14 with the ISSUE's acceptance gates.  It runs on a few thousand
    points: restart latency is per-ring work, not per-point."""
    samples = publish("e14", dataset)

    durable = [s for s in samples if s.durability != "none"]
    baseline = [s for s in samples if s.durability == "none"]
    assert durable and baseline

    for sample in durable:
        # The crash must actually cost recall (else the recovery gate
        # is vacuous), and restart must win all of it back.
        assert sample.recall_down < 1.0, (
            f"{sample.durability}/{sample.inserts_down}: crash burst "
            f"did not degrade recall — nothing to recover"
        )
        assert sample.recall_after == 1.0, (
            f"{sample.durability}/{sample.inserts_down}: recall only "
            f"recovered to {sample.recall_after:.3f} after restart"
        )
        assert sample.replayed > 0, "durable restart replayed no keys"
        if sample.inserts_down == 0:
            assert sample.repair_bytes == 0, (
                f"restart with no downtime writes moved "
                f"{sample.repair_bytes} repair bytes — recovery work "
                f"must track ownership churn, not store size"
            )
        else:
            bound = sample.store_bytes * REPAIR_BYTES_FRACTION
            assert sample.repair_bytes <= bound, (
                f"repair traffic {sample.repair_bytes}B exceeds "
                f"{REPAIR_BYTES_FRACTION:.0%} of the "
                f"{sample.store_bytes}B store"
            )
            assert (
                sample.repaired
                <= sample.store_keys * REPAIR_KEYS_FRACTION
            ), (
                f"{sample.repaired} repaired keys exceeds "
                f"{REPAIR_KEYS_FRACTION:.0%} of the "
                f"{sample.store_keys}-key store"
            )

    # The no-durability baseline brings routing back but not the data.
    for sample in baseline:
        assert sample.replayed == 0 and sample.repair_bytes == 0
        assert sample.recall_after < 1.0, (
            "rejoining empty peers recovered full recall — the crash "
            "burst lost no owned buckets, so the durable comparison "
            "is vacuous"
        )
