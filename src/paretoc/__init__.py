"""paretoc: simplicial continuation for Pareto critical sets.

Approximates the singular set, the Pareto critical set and the stable Pareto
critical set of a smooth vector map by piecewise-linear continuation over a
Delaunay tessellation, with iterative refinement and set-wise convergence
metrics.
"""

from .constrained import (
    analyze_constrained,
    augmented_minors,
    icosphere,
    project_gradients,
)
from .continuation import (
    Analyzer,
    CellAnalysis,
    ParetoComplex,
    SingularVertex,
    analyze,
    clip_polytope,
    finite_difference_hessians,
    glue,
    STRATUM_SINGULAR,
    STRATUM_STABLE,
    STRATUM_UNSTABLE,
)
from .errors import *  # noqa: F401,F403
from .metrics import DistanceReport, convergence_slope, hausdorff
from .problems import (
    ConstrainedProblem,
    VectorProblem,
    check_derivatives,
    registry_get,
    registry_names,
)
from .refinement import (
    RefinementState,
    initial_state,
    iterate,
    resample_polyline,
)
from .tessellation import (
    Tessellation,
    build_delaunay,
    grid_nodes,
    insert_nodes,
    kuhn_tessellation,
)



__version__ = "0.1.0"
