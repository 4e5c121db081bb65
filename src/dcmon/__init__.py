"""dcmon: device-centric policy monitoring over a simulated device."""

from .dsl import ParseError, parse_policy, pretty_print, validate_policy
from .engine import CompiledPolicy, Locality, compile_policy, evaluate_guard, rules_for
from .config import SimConfig, load_config
from .sim import load_trace, run, run_unmonitored

__version__ = "0.1.0"

__all__ = [
    "CompiledPolicy",
    "Locality",
    "ParseError",
    "SimConfig",
    "compile_policy",
    "evaluate_guard",
    "load_config",
    "load_trace",
    "parse_policy",
    "pretty_print",
    "rules_for",
    "run",
    "run_unmonitored",
    "validate_policy",
]
