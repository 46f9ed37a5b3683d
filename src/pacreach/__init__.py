"""Safety probability estimation for black-box Mealy machines.

Given a system that can be reset, stepped and observed, the package
learns a disjunction of generalized input sequences covering only safe
behaviour, counts the sequences that disjunction covers, and turns the
count into a safety probability with an attached confidence level.
Exact counting, Monte Carlo estimation and a wire protocol for external
systems round out the toolbox; the `pacreach` command exposes it all.

Importing the package loads none of its modules. Each name in
``__all__`` is resolved on first access (PEP 562 ``__getattr__``): the
module that defines it is imported then, and the name is bound here, so
later lookups are plain attribute reads. So ``from pacreach import
analyze`` loads the analysis stack, while a process that only serves a
model (``pacreach serve-model``) never does.
"""

import importlib

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

# each exported name but __version__ -> the module that defines it
_SOURCES = {
    name: module for module, names in (
        ("analysis", ("AnalysisReport", "analyze", "reproduce_table")),
        ("baselines", ("ExactCount", "MonteCarloEstimate", "exact_count_dp",
                       "exact_count_enumerate", "monte_carlo")),
        ("bounds", ("PacBound", "required_samples", "safety_probability",
                    "solve_confidence")),
        ("errors", ("PacreachError", "ParseError", "ResourceCapError",
                    "SamplingCapError", "TransportError", "ValidationError")),
        ("learner", ("LearnerConfig", "LearnerStats", "draw_safe_example",
                     "learn_safe_set")),
        ("mealy", ("MealyMachine", "RunResult", "load_model", "parse_model",
                   "serialize_model")),
        ("models", ("build_alks",)),
        ("monomials", ("Monomial", "MonomialSet")),
        ("seeding", ("derive_seed",)),
        ("sul", ("MachineSafetyQuery", "SafetyQuery")),
        ("wire", ("BlackBoxConfig", "RemoteSafetyQuery", "serve_stdio",
                  "serve_tcp")),
    ) for name in names}


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # the next lookup does not come here
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
