"""The labelling oracle.

Experiments follow the paper's assumption of a perfect oracle: the answer for
an element pair is looked up in the gold alignment (any pair not in the gold
alignment is a non-match).  The class also counts how many questions have been
asked, which is the labelling budget the active-learning curves are plotted
against.
"""

from __future__ import annotations

from repro.inference.pairs import ElementPair
from repro.kg.elements import ElementKind
from repro.kg.pair import AlignedKGPair


class Oracle:
    """Answers match/non-match questions from the gold alignment of a dataset."""

    def __init__(self, pair: AlignedKGPair) -> None:
        self.pair = pair
        self._gold: dict[ElementKind, set[tuple[int, int]]] = {
            ElementKind.ENTITY: {tuple(row) for row in pair.entity_match_ids().tolist()},
            ElementKind.RELATION: {tuple(row) for row in pair.relation_match_ids().tolist()},
            ElementKind.CLASS: {tuple(row) for row in pair.class_match_ids().tolist()},
        }
        self.questions_asked = 0

    def label(self, element_pair: ElementPair) -> bool:
        """True when the pair is a gold match; increments the budget counter."""
        self.questions_asked += 1
        return (element_pair.left, element_pair.right) in self._gold[element_pair.kind]

    def label_batch(self, element_pairs: list[ElementPair]) -> list[tuple[ElementPair, bool]]:
        """Label a batch; order is preserved."""
        return [(pair, self.label(pair)) for pair in element_pairs]

    def gold_set(self, kind: ElementKind) -> set[tuple[int, int]]:
        """The gold matches of one element kind (used by evaluation code)."""
        return self._gold[kind]
