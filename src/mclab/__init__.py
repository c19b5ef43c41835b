"""Multiclass error correction laboratory.

A staged neural base classifier with extractable intermediate latents, a
from-scratch gradient-boosted corrector trained on held-out data, the
paper's decision rule composing the two, a retention/harm/gain metric
calculus, and a class-exclusion experiment harness that ties them together
reproducibly. Each public name lives in its module, as ``mclab.harness.run_sweep``.
"""

__version__ = "0.1.0"
