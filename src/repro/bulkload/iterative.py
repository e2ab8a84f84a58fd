"""Iterative insertion — the baseline the bulk loads are compared against.

"The three proposed bulk loading techniques are compared to the previous
results from [16] (called Iterativ in the graphs)" (paper §3.2).  Iterative
insertion simply inserts the training objects one after another with the
regular R*-tree insertion routine, exactly what an online-learning stream
scenario does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.bayes_tree import finite_points
from ..index.rstar import RStarTree
from ..core.config import BayesTreeConfig
from .base import BulkLoader

__all__ = ["IterativeInsertionLoader"]


class IterativeInsertionLoader(BulkLoader):
    """Insert all points one by one (the paper's "Iterativ" reference)."""

    name = "iterative"

    def __init__(
        self,
        config: Optional[BayesTreeConfig] = None,
        shuffle: bool = False,
        random_state: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        self.shuffle = shuffle
        self.random_state = random_state

    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        points = finite_points(points)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            points = points[rng.permutation(points.shape[0])]
        index = RStarTree(dimension=points.shape[1], params=self.config.tree)
        for point in points:
            index.insert(point, label=label)
        return index
