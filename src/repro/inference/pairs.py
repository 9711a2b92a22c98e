"""Element pairs: the unit the pool, the alignment graph and selection work on."""

from __future__ import annotations

from dataclasses import dataclass

from repro.kg.elements import ElementKind


@dataclass(frozen=True, order=True)
class ElementPair:
    """A candidate correspondence ``(left element of KG1, right element of KG2)``.

    Pairs are identified by integer element indexes within their namespace;
    the ``kind`` field says which namespace (entity, relation or class).
    Instances are hashable and ordered, so they can serve as dict keys and be
    sorted deterministically.
    """

    kind: ElementKind
    left: int
    right: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}({self.left},{self.right})"


def entity_pair(left: int, right: int) -> ElementPair:
    """Shorthand constructor for an entity pair."""
    return ElementPair(ElementKind.ENTITY, left, right)


def relation_pair(left: int, right: int) -> ElementPair:
    """Shorthand constructor for a relation pair."""
    return ElementPair(ElementKind.RELATION, left, right)


def class_pair(left: int, right: int) -> ElementPair:
    """Shorthand constructor for a class pair."""
    return ElementPair(ElementKind.CLASS, left, right)
