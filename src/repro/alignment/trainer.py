"""Training the joint alignment model (Sect. 4.2).

The trainer owns the labelled match/non-match sets for entities, relations and
classes, and optimises:

* the alignment losses ``O_ea``, ``O_ra``, ``O_ca`` (pairwise softmax against
  corrupted matches, Eqs. 5 and 8),
* a hinge penalty on labelled non-matches (oracle "no" answers),
* the semi-supervised loss on mined potential matches (Eq. 10),
* a small number of continued embedding batches per round, so the entity
  structure does not drift while the mapping matrices are being fitted.

``fine_tune`` implements the focal-loss fine-tuning used between active
learning batches: newly labelled pairs are emphasised by ``(1 − p)^γ``
weights instead of retraining from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.autograd import functional as F
from repro.alignment.model import JointAlignmentModel
from repro.alignment.semi_supervised import mine_potential_matches
from repro.kg.elements import ElementKind
from repro.kg.sampling import NegativeSampler, corrupt_match_pairs
from repro.nn.optim import Adam
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, ensure_rng

logger = get_logger(__name__)

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)

#: Focal exponent γ of the fine-tuning loss (Sect. 7.1).
FOCAL_GAMMA = 2.0
#: Labelled non-matches are pushed below this similarity.
NON_MATCH_MARGIN = 0.3
#: Margin of the continued embedding batches (as ``O_er``).
EMBEDDING_MARGIN = 1.0
#: At most this many potential matches are mined per element kind per round.
SEMI_MAX_PER_KIND = 500
#: Hard entity negatives are drawn from each entity's this many most similar
#: counterparts.
HARD_NEGATIVE_POOL = 10


@dataclass(frozen=True)
class AlignmentTrainingConfig:
    """Hyper-parameters of joint alignment training."""

    rounds: int = 3
    epochs_per_round: int = 25
    learning_rate: float = 0.02
    num_negatives: int = 5
    semi_threshold: float = 0.7
    embedding_batches_per_round: int = 2
    embedding_batch_size: int = 256
    align_relations_via_entity_map: bool = True
    hard_negative_fraction: float = 0.5
    entity_anchor_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds <= 0 or self.epochs_per_round <= 0:
            raise ValueError("rounds and epochs_per_round must be positive")
        if not 0.0 < self.semi_threshold <= 1.0:
            raise ValueError("semi_threshold must be in (0, 1]")
        if not 0.0 <= self.hard_negative_fraction <= 1.0:
            raise ValueError("hard_negative_fraction must be in [0, 1]")


@dataclass
class LabelStore:
    """Labelled matches and non-matches per element kind (index pairs).

    Each ordered list is shadowed by a set so :meth:`add` is O(1) — with the
    old list-membership check, label ingestion was quadratic over an active
    learning campaign.  The lists remain the public, insertion-ordered view.
    :meth:`match_array`/:meth:`non_match_array` are cached per kind (treat the
    returned arrays as read-only) and invalidated by :meth:`add`, so the
    optimisation loop no longer rebuilds an array from the Python list on
    every step.
    """

    matches: dict[ElementKind, list[tuple[int, int]]] = field(
        default_factory=lambda: {k: [] for k in _KINDS}
    )
    non_matches: dict[ElementKind, list[tuple[int, int]]] = field(
        default_factory=lambda: {k: [] for k in _KINDS}
    )

    def __post_init__(self) -> None:
        self._match_sets = {kind: set(pairs) for kind, pairs in self.matches.items()}
        self._non_match_sets = {kind: set(pairs) for kind, pairs in self.non_matches.items()}
        self._match_arrays: dict[ElementKind, np.ndarray | None] = {k: None for k in _KINDS}
        self._non_match_arrays: dict[ElementKind, np.ndarray | None] = {k: None for k in _KINDS}

    def add(self, kind: ElementKind, pair: tuple[int, int], is_match: bool) -> None:
        store, index, arrays = (
            (self.matches, self._match_sets, self._match_arrays)
            if is_match
            else (self.non_matches, self._non_match_sets, self._non_match_arrays)
        )
        if pair not in index[kind]:
            index[kind].add(pair)
            store[kind].append(pair)
            arrays[kind] = None

    def match_array(self, kind: ElementKind) -> np.ndarray:
        cached = self._match_arrays[kind]
        if cached is None:
            cached = np.asarray(self.matches[kind], dtype=np.int64).reshape(-1, 2)
            self._match_arrays[kind] = cached
        return cached

    def non_match_array(self, kind: ElementKind) -> np.ndarray:
        cached = self._non_match_arrays[kind]
        if cached is None:
            cached = np.asarray(self.non_matches[kind], dtype=np.int64).reshape(-1, 2)
            self._non_match_arrays[kind] = cached
        return cached

    def labelled_pairs(self, kind: ElementKind) -> set[tuple[int, int]]:
        return self._match_sets[kind] | self._non_match_sets[kind]

    def num_labels(self) -> int:
        return sum(len(v) for v in self.matches.values()) + sum(
            len(v) for v in self.non_matches.values()
        )


class JointAlignmentTrainer:
    """Optimises a :class:`JointAlignmentModel` from labelled element pairs;
    ``semi_supervised`` (``DAAKGConfig.use_semi_supervision``) switches the
    Eq. 10 mining and loss on."""

    def __init__(
        self,
        model: JointAlignmentModel,
        config: AlignmentTrainingConfig | None = None,
        seed: RandomState = None,
        *,
        semi_supervised: bool,
    ) -> None:
        self.model = model
        self.engine = model.similarity
        self.config = config or AlignmentTrainingConfig()
        self.semi_supervised = semi_supervised
        self.rng = ensure_rng(seed)
        self.labels = LabelStore()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self._sampler1 = NegativeSampler(model.kg1, seed=self.rng)
        self._sampler2 = NegativeSampler(model.kg2, seed=self.rng)
        # mined potential matches per kind (Eq. 10): index pairs ``(n, 2)``
        # and soft labels ``(n,)``
        self._mined: dict[ElementKind, tuple[np.ndarray, np.ndarray]] = {
            k: (np.empty((0, 2), dtype=np.int64), np.empty(0)) for k in _KINDS
        }
        self._hard_candidates: tuple[np.ndarray, np.ndarray] | None = None
        self.loss_history: list[float] = []

    # ----------------------------------------------------------------- labels
    def add_matches(self, kind: ElementKind, pairs: np.ndarray | list[tuple[int, int]]) -> None:
        for left, right in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            self.labels.add(kind, (int(left), int(right)), True)

    def add_non_matches(self, kind: ElementKind, pairs: np.ndarray | list[tuple[int, int]]) -> None:
        for left, right in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            self.labels.add(kind, (int(left), int(right)), False)

    # ---------------------------------------------------------------- helpers
    def _matched_pairs(self, kind: ElementKind) -> np.ndarray:
        """Labelled matches then mined potential matches of ``kind``, ``(n, 2)``."""
        return np.concatenate([self.labels.match_array(kind), self._mined[kind][0]])

    def _vocab_sizes(self, kind: ElementKind) -> tuple[int, int]:
        if kind is ElementKind.ENTITY:
            return self.model.kg1.num_entities, self.model.kg2.num_entities
        if kind is ElementKind.RELATION:
            return self.model.kg1.num_relations, self.model.kg2.num_relations
        return self.model.kg1.num_classes, self.model.kg2.num_classes

    @staticmethod
    def _avoid_positive(
        candidates: np.ndarray,
        positives: np.ndarray,
        top: np.ndarray,
        anchors: np.ndarray,
        slots: np.ndarray,
        num_counterparts: int,
    ) -> np.ndarray:
        """Replace candidates that collide with their positive counterpart.

        A colliding draw is replaced by the anchor's *next* hard candidate,
        which stays inside the mined pool (the old ``(candidate + 1) % n``
        bump jumped to an arbitrary entity id).  Only when the pool has a
        single column can the replacement still collide; then fall back to the
        neighbouring id, which differs from the positive whenever ``n > 1``.
        """
        collide = candidates == positives
        if not np.any(collide):
            return candidates
        pool = top.shape[1]
        replacement = top[anchors[collide], (slots[collide] + 1) % pool]
        still = replacement == positives[collide]
        if np.any(still):
            replacement[still] = (positives[collide][still] + 1) % max(num_counterparts, 1)
        candidates[collide] = replacement
        return candidates

    def _hard_negatives(self, matches: np.ndarray, num_negatives: int) -> np.ndarray:
        """Entity negatives drawn from each entity's most similar counterparts.

        Hard sample mining sharpens the mapping matrix far more than uniform
        corruption (the role Dual-AMN attributes to normalised hard samples);
        the candidate lists are the round's entity top-k table, which
        :meth:`_refresh_hard_candidates` keeps on the trainer.  Fully
        vectorized: one coin-flip array decides the corrupted side, one slot
        array picks candidates, and collisions with the positive counterpart
        are repaired in bulk.
        """
        if self._hard_candidates is None or matches.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        top_for_left, top_for_right = self._hard_candidates
        total = matches.shape[0] * num_negatives
        lefts = np.repeat(matches[:, 0], num_negatives)
        rights = np.repeat(matches[:, 1], num_negatives)
        corrupt_right = self.rng.random(total) < 0.5
        num_corrupt_right = int(corrupt_right.sum())
        # each side draws slots over its own table width — the tables can be
        # narrower than HARD_NEGATIVE_POOL when a KG is small
        slots = np.empty(total, dtype=np.int64)
        slots[corrupt_right] = self.rng.integers(
            0, top_for_left.shape[1], size=num_corrupt_right
        )
        slots[~corrupt_right] = self.rng.integers(
            0, top_for_right.shape[1], size=total - num_corrupt_right
        )
        negatives = np.empty((total, 2), dtype=np.int64)

        mask = corrupt_right
        candidates = top_for_left[lefts[mask], slots[mask]]
        negatives[mask, 0] = lefts[mask]
        negatives[mask, 1] = self._avoid_positive(
            candidates, rights[mask], top_for_left, lefts[mask], slots[mask],
            self.model.kg2.num_entities,
        )

        mask = ~corrupt_right
        candidates = top_for_right[rights[mask], slots[mask]]
        negatives[mask, 0] = self._avoid_positive(
            candidates, lefts[mask], top_for_right, rights[mask], slots[mask],
            self.model.kg1.num_entities,
        )
        negatives[mask, 1] = rights[mask]
        return negatives

    def _match_loss(self, kind: ElementKind, matches: np.ndarray, focal: bool):
        """Pairwise softmax (or focal) loss over matches and sampled corruptions."""
        num_left, num_right = self._vocab_sizes(kind)
        num_hard = 0
        if kind is ElementKind.ENTITY and self._hard_candidates is not None:
            num_hard = int(round(self.config.num_negatives * self.config.hard_negative_fraction))
        num_random = self.config.num_negatives - num_hard
        negative_parts = []
        positive_parts = []
        if num_random > 0:
            negative_parts.append(
                corrupt_match_pairs(matches, num_left, num_right, self.rng, num_random)
            )
            positive_parts.append(np.repeat(matches, num_random, axis=0))
        if num_hard > 0:
            negative_parts.append(self._hard_negatives(matches, num_hard))
            positive_parts.append(np.repeat(matches, num_hard, axis=0))
        negatives = np.concatenate(negative_parts, axis=0)
        positives = np.concatenate(positive_parts, axis=0)
        pos_scores = self.model.pair_similarity(kind, positives)
        neg_scores = self.model.pair_similarity(kind, negatives)
        if focal:
            return F.focal_pairwise_softmax_loss(pos_scores, neg_scores, FOCAL_GAMMA)
        return F.pairwise_softmax_loss(pos_scores, neg_scores)

    def _non_match_loss(self, kind: ElementKind, non_matches: np.ndarray):
        """Hinge loss pushing labelled non-matches below :data:`NON_MATCH_MARGIN`."""
        scores = self.model.pair_similarity(kind, non_matches)
        return (scores - NON_MATCH_MARGIN).clamp_min(0.0).mean()

    def _entity_anchor_loss(self):
        """L2 anchor loss ``||A_ent e − e'||²`` on labelled and mined entity matches.

        The cosine-based softmax loss ranks candidates but does not force the
        mapped embedding to coincide with its counterpart; translation-style
        propagation (seed match + matched relation ⇒ neighbour match) needs
        that coincidence, so the anchors are pinned in L2 as MTransE does.
        """
        array = self._matched_pairs(ElementKind.ENTITY)
        if array.size == 0:
            return None
        e1 = self.model.model1.entity_output(array[:, 0])
        e2 = self.model.model2.entity_output(array[:, 1])
        diff = (e1 @ self.model.map_entity) - e2
        return (diff * diff).sum(axis=1).mean() * self.config.entity_anchor_weight

    def _relation_translation_loss(self):
        """Align relation representations through the *entity* mapping matrix.

        For TransE-style decoders an entity match propagates to its neighbours
        only if ``A_ent`` also carries relation translation vectors across the
        KGs (``A_ent(e + r) ≈ e' + r'`` requires ``A_ent r ≈ r'``).  This term
        applies that constraint to every labelled or mined relation match and
        is the structural bridge that lets seed entity matches generalise.
        """
        array = self._matched_pairs(ElementKind.RELATION)
        if array.size == 0:
            return None
        r1 = self.model.model1.relation_output(array[:, 0])
        r2 = self.model.model2.relation_output(array[:, 1])
        sims = F.cosine_similarity_rows(r1 @ self.model.map_entity, r2)
        return (1.0 - sims).mean()

    def _semi_loss(self, kind: ElementKind):
        pairs, soft_labels = self._mined[kind]
        if pairs.size == 0:
            return None
        similarities = self.model.pair_similarity(kind, pairs)
        return F.soft_label_loss(similarities, soft_labels)

    def _embedding_loss(self):
        """A couple of margin-loss batches per KG to keep structure intact."""
        losses = []
        for kg, emb_model, sampler in (
            (self.model.kg1, self.model.model1, self._sampler1),
            (self.model.kg2, self.model.model2, self._sampler2),
        ):
            triples = kg.triple_array
            if triples.size == 0:
                continue
            idx = self.rng.integers(0, triples.shape[0], size=min(self.config.embedding_batch_size, triples.shape[0]))
            batch = triples[idx]
            negatives = sampler.corrupt_tails(batch, 1)
            losses.append(emb_model.margin_loss(batch, negatives, EMBEDDING_MARGIN))
        if not losses:
            return None
        total = losses[0]
        for loss in losses[1:]:
            total = total + loss
        return total

    def _total_loss(self, focal_kinds: set[ElementKind] | None = None):
        """Sum of all loss terms for one optimisation step (None when no labels).

        Every term reads entity/relation representations through the models'
        cached forward session (``KGEmbeddingModel.outputs``), so the 10+
        terms of one step gather from a single full forward per model and
        ``backward`` runs message passing once — the parameter version only
        bumps when the optimiser steps.
        """
        focal_kinds = focal_kinds or set()
        terms = []
        for kind in _KINDS:
            matches = self.labels.match_array(kind)
            if matches.size:
                with obs.timer("trainer.loss.seconds", term="match", kind=kind.value):
                    terms.append(self._match_loss(kind, matches, focal=kind in focal_kinds))
            non_matches = self.labels.non_match_array(kind)
            if non_matches.size:
                with obs.timer("trainer.loss.seconds", term="non_match", kind=kind.value):
                    terms.append(self._non_match_loss(kind, non_matches))
            if self.semi_supervised:
                with obs.timer("trainer.loss.seconds", term="semi", kind=kind.value):
                    semi = self._semi_loss(kind)
                if semi is not None:
                    terms.append(semi)
        if self.config.entity_anchor_weight > 0:
            with obs.timer("trainer.loss.seconds", term="entity_anchor"):
                anchor = self._entity_anchor_loss()
            if anchor is not None:
                terms.append(anchor)
        if self.config.align_relations_via_entity_map:
            with obs.timer("trainer.loss.seconds", term="relation_translation"):
                translation = self._relation_translation_loss()
            if translation is not None:
                terms.append(translation)
        if self.config.embedding_batches_per_round > 0:
            with obs.timer("trainer.loss.seconds", term="embedding"):
                for _ in range(self.config.embedding_batches_per_round):
                    emb = self._embedding_loss()
                    if emb is not None:
                        terms.append(emb)
        if not terms:
            return None
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    # ----------------------------------------------------------- semi mining
    def _current_entity_landmarks(self) -> np.ndarray:
        """Labelled entity matches plus mined potential matches, as index pairs."""
        return np.unique(self._matched_pairs(ElementKind.ENTITY), axis=0)

    def _refresh_round_state(self) -> None:
        """Refresh landmarks, statistics, hard negatives and semi-supervision.

        ``refresh_statistics`` seeds the engine's entity cache, so mining hard
        candidates and potential matches below reuses one entity matrix.
        """
        with obs.span("trainer.refresh_round_state"):
            self.model.set_landmarks(self._current_entity_landmarks())
            self.model.refresh_statistics()
            self._refresh_hard_candidates()
            if self.semi_supervised:
                self._refresh_semi_supervision()
                self.model.set_landmarks(self._current_entity_landmarks())

    def _refresh_hard_candidates(self) -> None:
        """Cache each entity's most similar counterparts for hard negative mining."""
        num_right = self.model.kg2.num_entities
        pool = min(HARD_NEGATIVE_POOL, max(num_right - 1, 1))
        if num_right == 0 or pool <= 0 or self.config.hard_negative_fraction == 0:
            self._hard_candidates = None
            return
        self._hard_candidates = self.engine.top_k(ElementKind.ENTITY, pool)

    def _refresh_semi_supervision(self) -> None:
        """Mine potential matches above ``τ`` for every element kind.

        Mining reads *streamed* similarity tiles through the engine (slices
        of the kept tile when the matrix fits one block), so the full matrix
        never exists.
        """
        for kind in _KINDS:
            self._mined[kind] = mine_potential_matches(
                self.engine,
                kind,
                threshold=self.config.semi_threshold,
                matches=self.labels.match_array(kind),
                non_matches=self.labels.non_match_array(kind),
                max_candidates=SEMI_MAX_PER_KIND,
            )

    # ------------------------------------------------------------------ train
    def train(self) -> list[float]:
        """Run the configured number of rounds; returns the loss history."""
        for round_idx in range(self.config.rounds):
            with obs.span("trainer.round", round=round_idx):
                self._refresh_round_state()
                for _ in range(self.config.epochs_per_round):
                    loss = self._step()
                    if loss is not None:
                        self.loss_history.append(loss)
            logger.debug(
                "alignment round %d: loss=%.4f labels=%d",
                round_idx,
                self.loss_history[-1] if self.loss_history else float("nan"),
                self.labels.num_labels(),
            )
        return self.loss_history

    def _step(self, focal_kinds: set[ElementKind] | None = None) -> float | None:
        start = time.perf_counter()
        self.optimizer.zero_grad()
        loss = self._total_loss(focal_kinds)
        if loss is None:
            return None
        with obs.timer("trainer.backward.seconds"):
            loss.backward()
        self.optimizer.step()
        obs.histogram("trainer.step.seconds").observe(time.perf_counter() - start)
        obs.counter("trainer.steps.total").inc()
        return loss.item()

    def fine_tune(
        self,
        new_matches: dict[ElementKind, list[tuple[int, int]]] | None = None,
        new_non_matches: dict[ElementKind, list[tuple[int, int]]] | None = None,
        epochs: int = 10,
        refresh: bool = True,
    ) -> list[float]:
        """Fine-tune after new labels arrive (focal loss on the affected kinds)."""
        focal_kinds: set[ElementKind] = set()
        for kind, pairs in (new_matches or {}).items():
            if pairs:
                self.add_matches(kind, pairs)
                focal_kinds.add(kind)
        for kind, pairs in (new_non_matches or {}).items():
            if pairs:
                self.add_non_matches(kind, pairs)
        if refresh:
            self._refresh_round_state()
        history = []
        for _ in range(epochs):
            loss = self._step(focal_kinds)
            if loss is not None:
                history.append(loss)
        self.loss_history.extend(history)
        return history
