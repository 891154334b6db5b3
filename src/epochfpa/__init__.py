"""Epoch-based state-dependent repeated first-price auctions.

A library and CLI for simulating a dynamic first-price auction mechanism that
partitions buyers into good/bad/rest states, together with myopic, lookahead,
no-regret, and no-policy-regret buyer behaviors, and a harness that checks the
mechanism's revenue and utility guarantees against exact small-instance
oracles at desk scale.
"""

from .distributions import (
    DistributionError,
    FiniteSupport,
    InverseCdf,
    Uniform,
    from_spec,
    monopoly_reserve,
    myerson_revenue,
    myerson_win_prob,
    tail_quantile,
    to_spec,
    upper_tail_mean,
    win_quantile,
)
from .mechanism import (
    AgentView,
    BuyerState,
    EpochConfig,
    Mechanism,
    MechanismError,
    MechanismParams,
    RoundOutcome,
    derive_epoch_config,
)
from .agents import (
    AgentError,
    EtcAgent,
    Exp3Agent,
    Exp3Learner,
    Expert,
    ExpertAgent,
    ExpertFamily,
    GoodStrategyAgent,
    LookaheadAgent,
    MyopicAgent,
    default_expert_family,
)
from .harness import (
    BoundReport,
    ConfigError,
    RunConfig,
    Trajectory,
    bound_report,
    estimate_external_regret,
    estimate_policy_regret,
    revenue_slack,
    revenue_upper_bound,
    run_simulation,
    summarize,
    theorem_lower_bound,
)

__version__ = "0.1.0"
