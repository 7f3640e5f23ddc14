"""Model-agnostic time-series augmentation on the Stiefel manifold.

A signal is reshaped into a page matrix, factored with the SVD, and the
orthonormal factors are moved along random geodesics of their manifolds
while the singular values stay fixed. On top of that core sit great-circle
generation for raw 1-D signals, perturbed dynamic mode decomposition for
forecast ensembles, functional boxplots for uncertainty quantification,
and a one-class novelty robustness workflow.

Every random entry point takes a required np.random.Generator; the
ensemble builders spawn one child generator per member from it.
"""

from .augment import (
    AugmentConfig,
    ambient_perturb,
    batch_generate,
    geodesic_path,
    stiefelgen_matrix,
    stiefelgen_series,
)
from .dmd import (
    DmdModel,
    SnapshotMatrix,
    ensemble_forecast,
    fit_dmd,
    forecast,
    perturbed_fit,
    slice_ensemble,
    synth_spatiotemporal,
)
from .fda import FunctionalBoxplot, FunctionalEnsemble, functional_boxplot, mbd
from .novelty import (
    OneClassModel,
    ProjectedSpace,
    SensorDataset,
    adversarial_candidate,
    fit_one_class,
    fit_pca,
    generate_shm_dataset,
    norm_change_ranking,
    perturb_and_track,
)
from .signal import PageMatrix, TimeSeries, from_page_matrix, smooth, to_page_matrix
from .sphere import SpherePoint, SphereTangent, sphere_gen, sphere_geodesic, sphere_random_tangent
from .stiefel import (
    CANONICAL,
    EUCLIDEAN,
    INJECTIVITY_RADIUS,
    ORTH_TOL,
    TANGENT_TOL,
    MetricParams,
    StiefelPoint,
    TangentVector,
    exp_map,
    geodesic,
    inner_product,
    matrix_exp,
    normalize_and_scale,
    project_to_tangent,
    random_tangent,
    tangent_norm,
)

__version__ = "0.1.0"
