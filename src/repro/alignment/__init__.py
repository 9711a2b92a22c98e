"""Embedding-based joint alignment (Sect. 4 of the paper).

The :class:`~repro.alignment.model.JointAlignmentModel` compares entities,
relations and classes of two KGs through learnable mapping matrices, weighted
mean embeddings and cosine similarities; the
:class:`~repro.alignment.trainer.JointAlignmentTrainer` optimises the
alignment losses together with the underlying embedding models, mines
semi-supervised potential matches, and fine-tunes on newly labelled pairs with
a focal loss.  :mod:`repro.alignment.calibration` turns similarities into
calibrated match probabilities, and :mod:`repro.alignment.evaluation` hosts the
H@k / MRR / precision-recall-F1 metrics used by every experiment and
:func:`~repro.alignment.evaluation.greedy_match`, the one greedy one-to-one
matcher that evaluation, mining and ``DAAKG.predict_matches`` share.
"""

from repro.alignment.model import JointAlignmentModel
from repro.alignment.mean_embeddings import (
    entity_weights,
    mean_class_embeddings,
    mean_relation_embeddings,
)
from repro.alignment.semi_supervised import mine_potential_matches
from repro.alignment.calibration import AlignmentCalibrator, CalibrationConfig
from repro.alignment.evaluation import (
    AlignmentScores,
    evaluate_alignment,
    evaluate_alignment_from_engine,
    evaluate_pair,
    f1_score,
    gold_match_ids,
    greedy_match,
    precision_recall_f1,
)
from repro.alignment.similarity import SimilarityEngine
from repro.alignment.trainer import AlignmentTrainingConfig, JointAlignmentTrainer

__all__ = [
    "AlignmentCalibrator",
    "SimilarityEngine",
    "AlignmentScores",
    "AlignmentTrainingConfig",
    "CalibrationConfig",
    "JointAlignmentModel",
    "JointAlignmentTrainer",
    "entity_weights",
    "evaluate_alignment",
    "evaluate_alignment_from_engine",
    "evaluate_pair",
    "f1_score",
    "gold_match_ids",
    "greedy_match",
    "mean_class_embeddings",
    "mean_relation_embeddings",
    "mine_potential_matches",
    "precision_recall_f1",
]
