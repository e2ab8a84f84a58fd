"""Core of the reproduction: the Bayes tree and the anytime Bayes classifiers.

Each name is imported from its submodule on first use (:mod:`repro._lazy`),
so importing the package does not load the §4.1 single-tree variant or the
flat forest before a caller asks for them.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__all__ = [
    "BayesTree",
    "FlatForest",
    "FlatTree",
    "AnytimeBayesClassifier",
    "AnytimeClassification",
    "BayesTreeConfig",
    "default_qbk_k",
    "DESCENT_STRATEGIES",
    "BreadthFirstDescent",
    "DepthFirstDescent",
    "DescentStrategy",
    "GlobalBestDescent",
    "make_descent_strategy",
    "Frontier",
    "FrontierArrays",
    "FrontierItem",
    "pdq",
    "pdq_scalar",
    "log_pdq",
    "SingleTreeAnytimeClassifier",
]

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    "BayesTree": ".bayes_tree",
    "FlatForest": ".flat",
    "FlatTree": ".flat",
    "AnytimeBayesClassifier": ".classifier",
    "AnytimeClassification": ".classifier",
    "BayesTreeConfig": ".config",
    "default_qbk_k": ".config",
    "DESCENT_STRATEGIES": ".descent",
    "BreadthFirstDescent": ".descent",
    "DepthFirstDescent": ".descent",
    "DescentStrategy": ".descent",
    "GlobalBestDescent": ".descent",
    "make_descent_strategy": ".descent",
    "Frontier": ".frontier",
    "FrontierArrays": ".frontier",
    "FrontierItem": ".frontier",
    "pdq": ".frontier",
    "pdq_scalar": ".frontier",
    "log_pdq": ".frontier",
    "SingleTreeAnytimeClassifier": ".single_tree",
}

if TYPE_CHECKING:  # pragma: no cover - the eager view, for type checkers and linters
    from .bayes_tree import BayesTree
    from .classifier import AnytimeBayesClassifier, AnytimeClassification
    from .config import BayesTreeConfig, default_qbk_k
    from .descent import (
        DESCENT_STRATEGIES,
        BreadthFirstDescent,
        DepthFirstDescent,
        DescentStrategy,
        GlobalBestDescent,
        make_descent_strategy,
    )
    from .flat import FlatForest, FlatTree
    from .frontier import Frontier, FrontierArrays, FrontierItem, log_pdq, pdq, pdq_scalar
    from .single_tree import SingleTreeAnytimeClassifier
else:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
