"""Experiment harness reproducing the paper's evaluation (Section 7).

* :mod:`repro.experiments.catalogue` — every published table, once:
  its slice of the dataset, config, sweep values, title, output file
  and ``run_*`` function; ``run`` / ``table`` / ``write_table`` are
  what ``run_all``, ``report`` and ``benchmarks/`` call.
* One module per experiment, each a ``run_*`` function returning
  sample dataclasses: :mod:`~repro.experiments.fig5` (maintenance
  cost), :mod:`~repro.experiments.fig6` (load balance),
  :mod:`~repro.experiments.fig7` (range queries),
  :mod:`~repro.experiments.ablation` (A1-A5),
  :mod:`~repro.experiments.scaling` (E9),
  :mod:`~repro.experiments.churn_experiment` (E10),
  :mod:`~repro.experiments.mixed_workload` (E11),
  :mod:`~repro.experiments.fault_experiment` (E12),
  :mod:`~repro.experiments.skew_experiment` (E13),
  :mod:`~repro.experiments.restart_experiment` (E14),
  :mod:`~repro.experiments.mcast_experiment` (E15).
* Shared jobs, once each: :mod:`~repro.experiments.harness` (worlds,
  progressive inserts, recall against a truth set),
  :mod:`~repro.experiments.tables` (the renderer),
  :mod:`~repro.experiments.report` (the Fig. 5/6/7 claims as checks),
  :mod:`~repro.experiments.charts` (ASCII charts) and
  :mod:`~repro.experiments.trace_report` (span timelines).

``python -m repro.experiments.run_all`` regenerates every table at a
configurable scale; ``--out DIR`` writes them stamped.
"""

from repro.experiments.harness import build_index, SCHEME_NAMES

__all__ = ["build_index", "SCHEME_NAMES"]
