"""Safety probability estimation for black-box Mealy machines.

Given a system that can be reset, stepped and observed, the package
learns a disjunction of generalized input sequences covering only safe
behaviour, counts the sequences that disjunction covers, and turns the
count into a safety probability with an attached confidence level.
Exact counting, Monte Carlo estimation and a wire protocol for external
systems round out the toolbox; the `pacreach` command exposes it all.
"""

from .analysis import AnalysisReport, analyze, reproduce_table
from .baselines import (ExactCount, MonteCarloEstimate, exact_count_dp,
                        exact_count_enumerate, monte_carlo)
from .bounds import (PacBound, required_samples, safety_probability,
                     solve_confidence)
from .errors import (PacreachError, ParseError, ResourceCapError,
                     SamplingCapError, TransportError, ValidationError)
from .learner import (LearnerConfig, LearnerStats, draw_safe_example,
                      learn_safe_set)
from .mealy import MealyMachine, RunResult, load_model, parse_model, \
    serialize_model
from .models import build_alks
from .monomials import Monomial, MonomialSet
from .seeding import derive_seed
from .sul import MachineSafetyQuery, SafetyQuery
from .wire import BlackBoxConfig, RemoteSafetyQuery, serve_stdio, serve_tcp

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "analyze", "reproduce_table",
    "ExactCount", "MonteCarloEstimate", "exact_count_dp",
    "exact_count_enumerate", "monte_carlo",
    "PacBound", "required_samples", "safety_probability",
    "solve_confidence",
    "PacreachError", "ParseError", "ResourceCapError", "SamplingCapError",
    "TransportError", "ValidationError",
    "LearnerConfig", "LearnerStats", "draw_safe_example", "learn_safe_set",
    "MealyMachine", "RunResult", "load_model", "parse_model",
    "serialize_model",
    "build_alks",
    "Monomial", "MonomialSet",
    "derive_seed",
    "MachineSafetyQuery", "SafetyQuery",
    "BlackBoxConfig", "RemoteSafetyQuery", "serve_stdio", "serve_tcp",
    "__version__",
]
