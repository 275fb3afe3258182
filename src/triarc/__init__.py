"""triarc: mixed-radix (qubit/qutrit) circuit toolkit.

Builds and verifies the three-gate qutrit Toffoli lowering and the
reversible arithmetic circuits on top of it, and models the resource
counts, gate/relaxation noise, and success probabilities of both the
qutrit and conventional Clifford+T compilations.
"""
from .circuits import (
    Circuit,
    ControlSpec,
    GateInstance,
    GateKind,
    append,
    controlled,
    cx,
    depth,
    extend,
    from_json,
    gate_count,
    layers,
    new_circuit,
    t_metrics,
    to_json,
    toffoli,
    x,
)
from .simulator import (
    DensityMatrix,
    Histogram,
    StateVector,
    basis_state,
    circuit_unitary,
    evolve_density,
    measure_all,
    qubit_subspace_unitary,
    run_basis,
    simulate,
)
from .transpile import (
    CostProfile,
    LoweringStrategy,
    cost_profile,
    decompose_toffoli_qutrit,
    lower_toffolis,
)
from .arith import RegisterLayout, build_adder, build_demo_multiplier, build_multiplier
from .noise import (
    GateCensus,
    KrausChannel,
    NoiseParams,
    amplitude_damping_qubit,
    amplitude_damping_qutrit,
    depolarizing_channel,
    lambda_from_time,
    noisy_toffoli_fidelity,
    p_success,
    run_noisy,
    success_curve,
)
from .resources import (
    ApproxParams,
    BaselineCosts,
    ResourceReport,
    benchmark_report,
    estimate_operation,
)
from .pricing import (
    GaussianSpec,
    PricingSetup,
    disc_error,
    energy_x2,
    gaussian_target_state,
    trunc_error_bound,
)

__version__ = "0.1.0"
