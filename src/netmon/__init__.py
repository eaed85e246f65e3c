"""Microblog message-diffusion model and link-monitoring pipeline."""

from .diffusion import BehaviorParams
from .distfit import (
    ConvergenceError,
    PowerLawFit,
    WeibullFit,
    fit_powerlaw_mle,
    fit_weibull_mle,
    ks_statistic,
    weibull_pdf,
)
from .simulator import (
    AgentLifeStats,
    EventLog,
    EventRecord,
    LifeStatsTable,
    SimulationConfig,
    SimulationResult,
    replicate,
    repost_counts_by_link,
    run_simulation,
)

__version__ = "0.1.0"
