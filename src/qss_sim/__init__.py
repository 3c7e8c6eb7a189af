"""Sequential (n,n)-threshold quantum secret sharing: simulator and analytics.

A dealer shares a stream of single-qubit secrets among n receivers using a
GHZ resource that is rebuilt from recycled qubits between iterations. The
package simulates the protocol exactly (all measurement branches, no
sampling) on registers of up to 8 qubits, models phase- and
amplitude-damping transmission noise, implements the weak-measurement /
reversal protection scheme with post-selection, and provides every relevant
closed-form fidelity and success probability together with cross-validation
machinery tying the two sides together.
"""

from .analysis import (
    DomainError,
    avg_f1,
    avg_f_ad,
    avg_f_opt0,
    avg_f_opt0_closed_form,
    avg_f_pd,
    avg_success_opt0,
    f0_ww,
    f1_ww,
    f_ad,
    f_ad_outcome1,
    f_pd,
    in_validity_region,
    r_opt,
    region_bounds,
    sp1,
    sp2,
)
from .channels import (
    KrausChannel,
    adc,
    apply_channel,
    pdc,
    validate_cptp,
    weak_op,
)
from .linalg import (
    DensityMatrix,
    PureState,
    embed,
    su2,
)
from .optimize import (
    ScalarObjective,
    UnitaryObjective,
    best_correction,
    correction_objective,
    maximize_scalar,
    optimize_correction,
)
from .protocol import (
    CORRECTION_TABLE,
    IterationReport,
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    advance,
    aggregate_fidelity,
    branch_maps,
    correction,
    encode_secret,
    make_resource,
    run_iteration,
    run_iterations,
    run_protocol,
    success_probability,
)

__version__ = "0.1.0"
