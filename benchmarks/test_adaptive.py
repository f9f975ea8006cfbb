"""Adaptive-plane benchmark — E13, the skewed-read relief gate.

Runs the catalogue's E13 entry (:mod:`repro.experiments.skew_experiment`): a
Zipf(1.1) open-loop request stream against an 8-peer Chord ring under
queueing latency, once with the index as-is and once with
``IndexConfig(adaptive=...)`` enabling hotspot replication and learned
routing shortcuts.

The CI gate: the adaptive mode must improve **both** p99 lookup
latency and max-peer query load by at least ``RELIEF_GATE`` (2x) over
the non-adaptive baseline, while returning bit-identical answers
(equal digests) at recall 1.0 — adaptivity must be a pure performance
layer, never a correctness trade.

Artefact: the rendered E13 table under ``results/`` (latencies are
simulated-clock values).
"""

from __future__ import annotations

import pytest

from .conftest import publish

#: Both relief ratios (p99 latency, max-peer load) must clear this.
RELIEF_GATE = 2.0

#: Below this scale the tree is too small for stable queueing numbers;
#: the equivalence assertions still run, the relief gate does not.
GATE_MIN_SIZE = 2000


@pytest.mark.smoke
def test_e13_adaptive_skew_relief(dataset):
    """E13 with the ISSUE's acceptance gate."""
    baseline, adaptive = publish("e13", dataset)

    p99_ratio = baseline.latency["p99"] / max(adaptive.latency["p99"], 1e-9)
    load_ratio = baseline.max_peer_load / max(adaptive.max_peer_load, 1)

    # Correctness is unconditional: same answers, full recall, and the
    # plane must actually have engaged (otherwise the ratios measure
    # noise, not relief).
    assert baseline.answers_digest == adaptive.answers_digest, (
        "adaptive answers diverged from the baseline"
    )
    assert baseline.recall == 1.0 and adaptive.recall == 1.0
    assert adaptive.shortcut_hits > 0 and adaptive.promotions > 0

    if len(dataset) < GATE_MIN_SIZE:
        return
    assert p99_ratio >= RELIEF_GATE, (
        f"adaptive p99 {adaptive.latency['p99']:.1f} is only "
        f"{p99_ratio:.2f}x better than baseline "
        f"{baseline.latency['p99']:.1f} (gate {RELIEF_GATE}x)"
    )
    assert load_ratio >= RELIEF_GATE, (
        f"adaptive max-peer load {adaptive.max_peer_load} is only "
        f"{load_ratio:.2f}x better than baseline "
        f"{baseline.max_peer_load} (gate {RELIEF_GATE}x)"
    )
