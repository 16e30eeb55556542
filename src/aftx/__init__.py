"""aftx: a desk-scale workbench for transferring speech emotion recognition
models to Big-Five personality perception.

Subpackage map:

- ``tensor`` / ``layers`` / ``optim``: autograd core (an op that records a
  node computes in float64; one that records none, as in a frozen
  encoder's forward, computes in and returns float32), transformer blocks,
  AdamW.
- ``container``: the "AFTX1" tensor file format.
- ``audio`` / ``augment``: WAV ingestion, log-mel features, spectrogram
  masking.
- ``corpus``: judge-score schemas, majority-vote labeling, folds, the
  scores CSV and synthetic judge scores.
- ``metrics``: UAR, phi, Pearson, trait-pair tables.
"""
