"""Zero-shot recognition via primal optimal transport.

A conditional generator synthesizes class features from attribute vectors;
training aligns generated and real feature distributions with IPOT-solved
transport plans (or a label-derived coupling, chosen per batch by a coin),
regularized by a class-likelihood softmax in attribute space. Classifiers
trained on the synthesized features implement the standard, generalized, and
transductive evaluation protocols.
"""

from . import data, errors, evaluate, generator, ot, rng, training  # noqa: F401

__version__ = "0.1.0"
