"""Log-bilinear language models with additive morphological word vectors.

The package covers the full pipeline: corpus ingestion and vocabulary
pruning, word factorization from morphological segmentations, word
classing (exchange clustering or frequency binning), model training
(exact maximum likelihood for class-factored models, noise-contrastive
estimation for flat ones), perplexity evaluation with diagnostic
breakdowns, and word-similarity scoring with out-of-vocabulary vector
composition.
"""

__version__ = "0.1.0"

from .corpus import UNK_ID, PAD_ID, Vocabulary, build_vocabulary, normalize_token
from .morphology import (
    FactorVocabulary,
    WordFactorization,
    build_factorization,
    compose_vector,
    compile_word_table,
    known_factors,
    parse_segmentations,
)
from .clustering import ClassPartition, brown_cluster, default_num_classes, frequency_bin
from .model import LanguageModel, ModelConfig, ModelParameters, NormalizerCache, Querier
from .container import load_model, save_model
from .training import TrainingConfig, adagrad_step, init_params, minibatch_loss_and_grad, nce_loss_and_grad, train
from . import evaluation

__all__ = [
    "UNK_ID",
    "PAD_ID",
    "Vocabulary",
    "build_vocabulary",
    "normalize_token",
    "FactorVocabulary",
    "WordFactorization",
    "build_factorization",
    "compose_vector",
    "compile_word_table",
    "known_factors",
    "parse_segmentations",
    "ClassPartition",
    "brown_cluster",
    "default_num_classes",
    "frequency_bin",
    "LanguageModel",
    "ModelConfig",
    "ModelParameters",
    "NormalizerCache",
    "Querier",
    "load_model",
    "save_model",
    "TrainingConfig",
    "adagrad_step",
    "init_params",
    "minibatch_loss_and_grad",
    "nce_loss_and_grad",
    "train",
    "evaluation",
]
