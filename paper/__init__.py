"""The paper's reproduction kit: Section 8's tables and figures.

This package is not installed with ``repro`` and nothing in ``repro``
imports it; it imports ``repro``.  Run it from a repository checkout
(``python -m paper TARGET``, see :mod:`paper.__main__`).

* :mod:`paper.bench` — datasets, workloads, timing helpers and one
  driver per table or figure;
* :mod:`paper.baselines` — PLL, IS-Label, HCL-lite, bidirectional
  search and the all-pairs ground-truth oracle;
* :mod:`paper.io_sim` — the external-memory (I/O-cost) simulation of
  Section 4;
* :mod:`paper.bitparallel` — Section 6's bit-parallel labels;
* :mod:`paper.hitting` — the hitting-set and hub-dimension measures of
  Section 2.2;
* :mod:`paper.coverage` — label coverage by top-ranked vertices
  (Figure 8, Table 7).
* :mod:`paper.labels` — the dict label model the kit's builders and
  baselines are written in: per-entry build states, the tuple-list
  :class:`~paper.labels.LabelIndex`, and its packer into the CSR store.
"""
