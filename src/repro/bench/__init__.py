"""The paper's evaluation figures (6-11) and ablations at laptop scale:
see :mod:`repro.bench.experiments`."""
