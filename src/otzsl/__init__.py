"""Zero-shot recognition via primal optimal transport.

A conditional generator synthesizes class features from attribute vectors;
training aligns generated and real feature distributions with IPOT-solved
transport plans (or a label-derived coupling, chosen per batch by a coin),
regularized by a class-likelihood softmax in attribute space. Classifiers
trained on the synthesized features implement the standard, generalized, and
transductive evaluation protocols.
"""

from .data import AttributeMatrix, FeatureDataset, SyntheticSpec, load_dataset, make_synthetic_dataset
from .errors import ConfigError, DataFormatError, OtzslError, SolverError
from .evaluate import EvalConfig, EvalReport, evaluate, harmonic_mean
from .generator import GeneratorParams, PredictorParams, generator_forward
from .ot import (IpotConfig, Marginals, TransportPlan, cosine_cost_matrix, ipot_solve,
                 sinkhorn_solve, transition_plan, transport_cost)
from .rng import SeededRng
from .training import TrainConfig, TrainResult, train

__all__ = [
    "AttributeMatrix", "ConfigError", "DataFormatError", "EvalConfig", "EvalReport",
    "FeatureDataset", "GeneratorParams", "IpotConfig", "Marginals", "OtzslError",
    "PredictorParams", "SeededRng", "SolverError", "SyntheticSpec", "TrainConfig",
    "TrainResult", "TransportPlan", "cosine_cost_matrix", "evaluate",
    "generator_forward", "harmonic_mean", "ipot_solve", "load_dataset",
    "make_synthetic_dataset", "sinkhorn_solve", "train", "transition_plan",
    "transport_cost",
]

__version__ = "0.1.0"
