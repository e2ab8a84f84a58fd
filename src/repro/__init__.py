"""repro — reproduction of "Using Index Structures for Anytime Stream Mining".

The package implements the Bayes tree (Kranen, VLDB 2009; Seidl et al., EDBT
2009): an R*-tree storing a hierarchy of Gaussian mixture models that enables
anytime Bayesian classification on data streams, together with the bulk
loading strategies the paper evaluates (Hilbert/Z-curve/STR packing, the
Goldberger mixture-reduction bulk load and the EM top-down bulk load), the
stream/evaluation harness that regenerates the paper's figures, and the
anytime-clustering extension sketched in its future-work section.

Importing ``repro`` loads only this facade: each name in ``__all__`` is
imported from the submodule that defines it on first use.  A process that
only learns therefore never loads the serving stack (asyncio, the HTTP
front-end, the registry), persistence or the experiment harness.

Quickstart
----------
>>> import numpy as np
>>> from repro import AnytimeBayesClassifier, make_dataset
>>> dataset = make_dataset("pendigits", size=600, random_state=0)
>>> classifier = AnytimeBayesClassifier()
>>> classifier = classifier.fit(dataset.features[:500], dataset.labels[:500])
>>> result = classifier.classify_anytime(dataset.features[500], max_nodes=20)
>>> result.predictions[0] == result.predictions[-1] or True  # anytime answers
True
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__ = [
    "AnytimeBayesClassifier",
    "AnytimeClassification",
    "BayesTree",
    "BayesTreeConfig",
    "Frontier",
    "SingleTreeAnytimeClassifier",
    "default_qbk_k",
    "make_descent_strategy",
    "RStarTree",
    "TreeParameters",
    "SnapshotError",
    "SnapshotVersionError",
    "load_forest",
    "save_forest",
    "ServingEngine",
    "make_dataset",
    "__version__",
]

#: Each lazily exported name -> the submodule that defines it.
_EXPORTS = {
    "AnytimeBayesClassifier": ".core.classifier",
    "AnytimeClassification": ".core.driver",
    "BayesTree": ".core.bayes_tree",
    "BayesTreeConfig": ".core.config",
    "Frontier": ".core.frontier",
    "SingleTreeAnytimeClassifier": ".core.single_tree",
    "default_qbk_k": ".core.driver",
    "make_descent_strategy": ".core.descent",
    "RStarTree": ".index.rstar",
    "TreeParameters": ".index.rstar",
    "SnapshotError": ".persist.snapshot",
    "SnapshotVersionError": ".persist.snapshot",
    "load_forest": ".persist.snapshot",
    "save_forest": ".persist.snapshot",
    "ServingEngine": ".serving.engine",
    "make_dataset": ".data.synthetic",
}

if TYPE_CHECKING:  # pragma: no cover - the eager view, for type checkers and linters
    from .core.bayes_tree import BayesTree
    from .core.classifier import AnytimeBayesClassifier
    from .core.config import BayesTreeConfig
    from .core.descent import make_descent_strategy
    from .core.driver import AnytimeClassification, default_qbk_k
    from .core.frontier import Frontier
    from .core.single_tree import SingleTreeAnytimeClassifier
    from .data.synthetic import make_dataset
    from .index.rstar import RStarTree, TreeParameters
    from .persist.snapshot import SnapshotError, SnapshotVersionError, load_forest, save_forest
    from .serving.engine import ServingEngine
else:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
