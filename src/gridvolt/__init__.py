"""Voltage control on radial distribution feeders.

Builds the linearized feeder model, simulates closed-loop reactive-power
control, trains monotone-by-construction deadband policies with a
from-scratch deterministic actor-critic, certifies their stability
numerically, and benchmarks them against droop and unconstrained baselines.
"""

from .bench import EvalReport, control_energy, evaluate, transient_cost
from .dynamics import (
    CostParams,
    Rollouts,
    ScenarioConfig,
    dist_to_band,
    make_suite,
    recovery_time,
    rollout,
    rollout_batch,
    sample_scenario,
    stage_cost,
    step,
)
from .grid import (
    BranchFlows,
    RadialNetwork,
    SensitivityMatrices,
    build_sensitivity,
    check_positive_definite,
    five_bus_fixture,
    generate_random_feeder,
    load_network,
    save_network,
    solve_distflow,
)
from .lyapunov import (
    CertifyConfig,
    StabilityCertificate,
    certify_policy,
    equilibrium_check,
    krasovskii_value,
    lyapunov_time_derivative,
)
from .policy import (
    MonotonePolicy,
    RawPolicyParams,
    StackedReluParams,
    ZeroPolicy,
    constrain,
    droop,
    load_checkpoint,
    policy_eval,
    policy_input_grad,
    policy_param_grad,
    sample_raw_params,
    save_checkpoint,
    verify_monotone,
)
from .rl import (
    FeedForwardNet,
    ReplayBuffer,
    TrainConfig,
    VoltEnv,
    critic_update,
    net_backprop,
    net_eval,
    soft_update,
    train,
)

__version__ = "0.1.0"
