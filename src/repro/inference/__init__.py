"""Inference power measurement (Sect. 5 of the paper).

Given the element-pair pool and the trained joint alignment model, this
package builds the *alignment graph* (element pairs connected when their
elements are connected in the respective KGs) and estimates how strongly a
labelled element pair would let the model infer the labels of its neighbours:

* entity pair → entity pair: the displacement each edge's source label
  implies, summed along paths (Eqs. 13–19),
* relation pair → entity pair: full power on the targets of the pair's
  edges, the relation difference zeroed (Eq. 20),
* entity pair → class pair and entity pair → relation pair: gradient magnitude
  of the schema similarity (Eqs. 21–22),
* overall inference power of a labelled set over the pool (Eq. 23).
"""

from repro.inference.pairs import ElementPair
from repro.inference.alignment_graph import AlignmentGraph, build_alignment_graph
from repro.inference.power import InferencePowerConfig, InferencePowerEstimator

__all__ = [
    "AlignmentGraph",
    "ElementPair",
    "InferencePowerConfig",
    "InferencePowerEstimator",
    "build_alignment_graph",
]
