"""weyl-lab: exact-phase quadratic Weyl sums and torus skew-product experiments."""

from .exactangle import (
    GOLDEN,
    Angle,
    angle_from_decimal,
    angle_from_float,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
    wrap_add,
)
from .contfrac import (
    ContinuedFraction,
    Convergent,
    FClassCert,
    angle_from_cf,
    cf_expand,
    construct_f_member,
    convergents,
    f_witness,
)
from .weylsum import (
    SkewPoint,
    Trajectory,
    dirichlet_b,
    dirichlet_b_closed,
    parseval_estimate,
    psi,
    skew_shift_n,
    trajectory,
    weyl_sum,
    weyl_sum_over_x,
)
from .renorm import (
    RenormChain,
    RenormStep,
    b_level_measure,
    fe_residual,
    invert_km,
    renorm_chain,
    renorm_step,
    u_measure_lower,
)
from .experiments import (
    BoxReport,
    DensityReport,
    GrowthReport,
    QnSchedule,
    ResumeWitness,
    UnusableLevelError,
    approx_ratio,
    b_density_gap,
    box_experiment,
    density_probe,
    derivative_check,
    find_mn,
    growth_report,
    resume_witness,
    select_qn,
    tail_measure,
)
from .reporting import emit_report, render_json

__version__ = "0.1.0"
