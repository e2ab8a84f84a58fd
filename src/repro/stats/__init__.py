"""Statistical substrate: Gaussians, kernels, mixtures, KL divergence and EM.

Each name is imported from its submodule on first use (:mod:`repro._lazy`):
the classifier needs only the Gaussian and kernel modules, so EM, KL and the
mixture code load only for the bulk loaders and clustering that use them.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__all__ = [
    "EMResult",
    "fit_gmm",
    "hard_assignments",
    "kmeans_plus_plus_centers",
    "MIN_VARIANCE",
    "Gaussian",
    "gaussian_pdf",
    "log_gaussian_pdf",
    "logsumexp",
    "probabilities_from_log",
    "KERNEL_NAMES",
    "EpanechnikovKernel",
    "GaussianKernel",
    "kernel_density_batch",
    "log_kernel_density_batch",
    "make_kernel",
    "silverman_bandwidth",
    "silverman_bandwidth_from_stats",
    "kl_gaussian",
    "kl_matching_distance",
    "kl_mixture_monte_carlo",
    "GaussianMixture",
]

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    "EMResult": ".em",
    "fit_gmm": ".em",
    "hard_assignments": ".em",
    "kmeans_plus_plus_centers": ".em",
    "MIN_VARIANCE": ".gaussian",
    "Gaussian": ".gaussian",
    "gaussian_pdf": ".gaussian",
    "log_gaussian_pdf": ".gaussian",
    "logsumexp": ".gaussian",
    "probabilities_from_log": ".gaussian",
    "KERNEL_NAMES": ".kernel",
    "EpanechnikovKernel": ".kernel",
    "GaussianKernel": ".kernel",
    "kernel_density_batch": ".kernel",
    "log_kernel_density_batch": ".kernel",
    "make_kernel": ".kernel",
    "silverman_bandwidth": ".kernel",
    "silverman_bandwidth_from_stats": ".kernel",
    "kl_gaussian": ".kl",
    "kl_matching_distance": ".kl",
    "kl_mixture_monte_carlo": ".kl",
    "GaussianMixture": ".mixture",
}

if TYPE_CHECKING:  # pragma: no cover - the eager view, for type checkers and linters
    from .em import EMResult, fit_gmm, hard_assignments, kmeans_plus_plus_centers
    from .gaussian import (
        MIN_VARIANCE,
        Gaussian,
        gaussian_pdf,
        log_gaussian_pdf,
        logsumexp,
        probabilities_from_log,
    )
    from .kernel import (
        KERNEL_NAMES,
        EpanechnikovKernel,
        GaussianKernel,
        kernel_density_batch,
        log_kernel_density_batch,
        make_kernel,
        silverman_bandwidth,
        silverman_bandwidth_from_stats,
    )
    from .kl import kl_gaussian, kl_matching_distance, kl_mixture_monte_carlo
    from .mixture import GaussianMixture
else:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
