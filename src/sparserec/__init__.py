"""Sparse recovery toolkit.

Signed expander sketches with median estimation, list-recoverable codes
(Loomis-Whitney / Reed-Solomon), recursive sublinear-time
identification, weak-to-top-level conversion with median amplification,
an OMP baseline, and a numerical verifier for the null-space lower-bound
geometry.
"""

from sparserec.codes import (
    ListRecoveryInstance,
    LWCode,
    RSCode,
    lw_join,
    rs_list_recover,
)
from sparserec.errors import InfeasibleError, NumericalError, UsageError
from sparserec.expander import (
    BipartiteGraph,
    ExpansionCertificate,
    SignedSketchOperator,
    unique_neighbor_count,
    verify_expansion,
)
from sparserec.fields import FieldSpec
from sparserec.hashing import PolyHash, SignFamily
from sparserec.lowerbound import (
    AdversarialPair,
    Orthoprojector,
    adversarial_pair,
    bounded_adversary_signal,
    find_spike,
    gammadelta_check,
    null_projector,
)
from sparserec.recursive import (
    RecursionTree,
    RecursiveParams,
    Scheme2Map,
    tree_shape,
)
from sparserec.seeds import derive_seed
from sparserec.signals import SignalSpec, gen_signal
from sparserec.toplevel import (
    StageSchedule,
    TopLevelConfig,
    TopLevelSystem,
    build_toplevel,
    omp_baseline,
    repeat_median_amplify,
)
from sparserec.weak import (
    WeakDecomposition,
    WeakLayer,
    WeakParams,
    majority_amplify,
    median_estimates,
    weak_estimate,
    weak_identify,
)

__version__ = "0.1.0"
