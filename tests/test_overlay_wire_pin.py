"""Pin what the routed overlays put on the wire.

One scripted scenario per overlay — build, puts, gets, removes, join,
leave, crash, stabilisation, durable restart — whose full
``NetworkStats`` (messages and bytes per type, RPCs, drops, rounds) and
``DhtStats`` snapshots must equal the numbers in
``overlay_wire_pin.json``.  Those were recorded before the storage node
and the facade body moved into ``dht/overlay.py``; "same RPCs, same
order, same sizes" is therefore a tier-1 assertion, not something only
regenerated result tables would show.

Re-record (only when the protocol is *meant* to change) with
``PYTHONPATH=src:. python tests/test_overlay_wire_pin.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.bucket import LeafBucket
from repro.core.records import Record
from tests.test_overlay_contract import BUILDERS

RECORDED = Path(__file__).with_name("overlay_wire_pin.json")


def value_of(index: int):
    """Every fourth value is a record-bearing bucket, so data-plane
    bytes (``payload_bytes``) are pinned next to the control bytes."""
    if index % 4:
        return f"value-{index}"
    records = [
        Record(((index + step) % 97 / 97, step / 7), step)
        for step in range(index % 5 + 1)
    ]
    return LeafBucket("001", 2, records)


def run_scenario(kind: str, data_dir) -> dict:
    dht = BUILDERS[kind](16, durability="log", data_dir=str(data_dir))
    keys = [f"key-{index:03d}" for index in range(200)]
    for index, key in enumerate(keys):
        dht.put(key, value_of(index))
    for key in keys[:40]:
        dht.get(key)
    dht.get_many_outcomes(keys[40:50])
    dht.get("absent-key")
    for key in keys[50:60]:
        dht.lookup(key)
    dht.get_direct(dht.peer_of(keys[60]), keys[60])
    dht.rewrite_local(keys[61], "rewritten")
    for key in keys[100:120]:
        dht.remove(key)
    dht.join(f"{kind}-newcomer")
    dht.stabilize_all(2)
    peers = dht.peers()
    dht.leave(peers[3])
    # Crash the fullest peer, then let membership move underneath it so
    # the restart has keys to replay, reconcile and re-home.
    victim = max(peers[4:], key=lambda name: len(dht.node(name).store))
    dht.fail(victim)
    for index in range(3):
        dht.join(f"{kind}-late-{index}")
    dht.stabilize_all(2)
    # Written while the victim is down: what restart reconciles.
    dht.put_many([(f"late-{index:02d}", value_of(index)) for index in range(40)])
    dht.restart(victim)
    for key in keys[120:140]:
        dht.get(key)
    network = dht.network.stats
    return {
        "network": network.snapshot(),
        "per_type": dict(sorted(network.per_type.items())),
        "bytes_per_type": dict(sorted(network.bytes_per_type.items())),
        "dht": dht.stats.snapshot(),
        "key_count": dht.key_count(),
        "peers": dht.peers(),
    }


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_scripted_scenario_matches_the_recorded_wire(kind, tmp_path):
    recorded = json.loads(RECORDED.read_text())[kind]
    observed = json.loads(json.dumps(run_scenario(kind, tmp_path)))
    assert observed == recorded


if __name__ == "__main__":
    import tempfile

    out = {}
    for name in sorted(BUILDERS):
        with tempfile.TemporaryDirectory() as scratch:
            out[name] = run_scenario(name, scratch)
    RECORDED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(out)} scenarios to {RECORDED}\n")
