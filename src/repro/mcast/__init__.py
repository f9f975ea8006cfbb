"""The dissemination plane: prefix multicast + continuous queries.

Two capabilities built on the m-LIGHT label tree (the dissemination
plane, grounded in "Optimally Efficient Prefix Search and Multicast in
Structured P2P Networks"):

* :class:`MulticastRuntime` — the initiator routes **one** message to
  the owner of ``fmd(LCA(R))``; agents recursively split the region
  and forward sub-regions peer-to-peer down the label tree, routing
  *from their own overlay position* instead of bouncing every branch
  probe off the client.  Initiator-originated messages drop from
  O(#branches) to O(1); total messages stay within the paper's bound.
* :class:`ContinuousQueryPlane` / :class:`Subscriber` — clients
  subscribe to a region and matching inserts are pushed to them.
  Subscription entries live in the DHT under ``sub:fmd(leaf)`` keys,
  so Theorem 5's exactly-one-bucket split/merge movement carries over:
  re-homing a subscription table moves exactly one entry, and PR 9's
  durable backends replay tables through crash-restart cycles.

:mod:`repro.mcast.service` carries both capabilities onto the asyncio
service plane with ``MCAST``/``PUSH`` wire opcodes.
"""

from repro.mcast.runtime import MCAST_SUFFIX, MulticastRuntime
from repro.mcast.subscriptions import (
    Subscription,
    SubscriptionTable,
    sub_key,
)
from repro.mcast.continuous import ContinuousQueryPlane, Subscriber
from repro.mcast.service import ServiceContinuousPlane, ServiceMulticast

__all__ = [
    "MCAST_SUFFIX",
    "MulticastRuntime",
    "Subscription",
    "SubscriptionTable",
    "sub_key",
    "ContinuousQueryPlane",
    "Subscriber",
    "ServiceContinuousPlane",
    "ServiceMulticast",
]
