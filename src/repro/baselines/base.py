"""Common interface of baseline aligners."""

from __future__ import annotations

import numpy as np

from repro.alignment.evaluation import AlignmentScores, evaluate_alignment, gold_match_ids
from repro.kg.elements import ElementKind
from repro.kg.pair import AlignedKGPair
from repro.utils.timer import Timer


class AlignmentBaseline:
    """A method that produces similarity matrices for entities, relations and classes."""

    name = "baseline"

    def __init__(self) -> None:
        self.pair: AlignedKGPair | None = None
        self.training_time = Timer()

    # ------------------------------------------------------------------- API
    def fit(self, pair: AlignedKGPair) -> "AlignmentBaseline":
        """Train (or simply prepare) the baseline on a dataset."""
        raise NotImplementedError

    def entity_similarity_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def relation_similarity_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def class_similarity_matrix(self) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------ evaluation
    def evaluate(self, test_only: bool = True) -> dict[str, AlignmentScores]:
        """Same metric dictionary as :meth:`repro.core.DAAKG.evaluate`."""
        if self.pair is None:
            raise RuntimeError(f"{self.name} has not been fitted")
        matrices = {
            ElementKind.ENTITY: self.entity_similarity_matrix,
            ElementKind.RELATION: self.relation_similarity_matrix,
            ElementKind.CLASS: self.class_similarity_matrix,
        }
        return {
            kind.value: evaluate_alignment(matrices[kind](), gold)
            for kind, gold in gold_match_ids(self.pair, test_only).items()
        }
