"""Rate-region computation and certification toolkit for two-user wiretap
channels with public and confidential messages.

Modules by concern, each imported by its own name (the package root binds
only ``__version__``):

- ``info_core``: dense probability tables, mutual information, degraded
  channel construction and Markov checks.
- ``entropy_algebra``: exact symbolic algebra over joint-entropy atoms and
  factorization-derived equalities.
- ``polytope_fm``: rational Fourier-Motzkin projection, rate transfers,
  vertex enumeration and region comparison.
- ``fm_script``: scripted elimination chains replayed against recorded
  systems (``fm verify-appendix`` on the CLI).
- ``regions_discrete`` / ``regions_gaussian``: numeric inner/outer regions,
  corollary specializations and seeded sweeps.
- ``fisher_lab``: Fisher-information identities, the entropy-gradient check
  and the scalar Gaussian-sufficiency evidence harness.
- ``cli`` / ``io_files``: the ``wtr`` command line and file formats.
"""

__version__ = "0.1.0"
