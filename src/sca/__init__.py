"""Coherence-aligned token embedding training.

Modules cover the full pipeline: corpus ingestion and stratified
sampling, embedding tables, contextual kernels, the coherence batch pass
(rank-1 fields, loss, gradient and score), the one training loop, a
tied-embedding bigram language model, report emitters, and the CLI.
"""

__version__ = "0.1.0"
