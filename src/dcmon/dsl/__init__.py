from .ast import (
    ActionDecl,
    CallPattern,
    ConditionDecl,
    EventDecl,
    Param,
    Phase,
    PolicySpec,
    RuleDecl,
    Side,
    guard_refs,
)
from .errors import ParseError, ValidationError
from .parser import parse_policy
from .printer import pretty_print
from .validator import validate_policy

__all__ = [name for name in dir() if not name.startswith("_")]
