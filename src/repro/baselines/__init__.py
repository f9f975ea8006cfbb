"""Baseline over-DHT indexes the paper evaluates against.

* :class:`~repro.baselines.pht.PhtIndex` — Prefix Hash Tree
  (Chawathe et al., SIGCOMM'05 / Ramabhadran et al., PODC'04) over a
  z-order linearisation of the multi-dimensional space.
* :class:`~repro.baselines.dst.DstIndex` — Distributed Segment Tree
  (Zheng et al., IPTPS'06; quad-tree flavour per Shen et al.'s TR),
  with ancestor replication and node saturation.
* :class:`~repro.baselines.naive.NaiveTreeIndex` — m-LIGHT's kd-tree
  without its naming function (a leaf at DHT key = its label), the
  subject of ablation A1.

All three are tries over the kd-tree's cells, driven by one
:class:`~repro.baselines.interface.TrieIndex` (one range descent, one
split kernel, one oracle walk), and consume only the generic DHT
facade, exactly like m-LIGHT, so the schemes are compared on identical
substrates and identical cost meters.
"""

from repro.baselines.interface import TrieIndex
from repro.baselines.pht import PhtIndex
from repro.baselines.dst import DstIndex
from repro.baselines.naive import NaiveTreeIndex

__all__ = ["TrieIndex", "PhtIndex", "DstIndex", "NaiveTreeIndex"]
