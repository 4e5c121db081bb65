import dataclasses
from typing import List, NamedTuple, Optional, Tuple

import pytest

from dcmon.catalog import CATALOG
from dcmon.dsl import Phase, parse_policy, validate_policy
from dcmon.engine import Batch, CompiledPolicy, rules_for
from dcmon.lang.codegen import Module
from dcmon.lang.values import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND
from dcmon.sim import TraceEvent

# The message-quota script: two events on the same API (before/after with a
# return binding), a global counter condition, a blocking app action and a
# counting global action. Exercises most of the grammar.
MSG_QUOTA_SRC = """
Events {
   ApplicationSide {
      sendMessageBefore() = {
         SmsManager *.sendTextMessage(...)
      }
      sendMessageAfter(boolean sent) = {
         after SmsManager *.sendTextMessage(...)
      } uponReturning(sent)
   }
}
Conditions {
   GlobalSide { maximumQuotaReached = {globalSide{ global.msgCount >= 500 }} }
   ApplicationSide { successful = {sent == true} }
}
Actions {
   ApplicationSide { blockRequest = {applicationSide {block();}}}
   GlobalSide { incrementMessageCount = {globalSide{ global.msgCount := global.msgCount + 1; }}}
}
Rules {
   sendMessageBefore() |  maximumQuotaReached()               -> blockRequest();
   sendMessageAfter()  | !maximumQuotaReached() && successful -> incrementMessageCount();
}
"""

# Lowercase block keywords, bare event declaration, inner side tags only,
# a named rule without a trailing semicolon, action reference without
# parentheses. The separator is the normalized `|` form.
WIFI_LISTING_SRC = """
events {
   onWifiEnable() = {
      WifiManager *.setWifiEnabled(boolean enabled)
   }
}
conditions {
   areEnabledRequests = {applicationSide{enabled == true}}
   isTooEarly = {applicationSide{hour_of_day(now) > 1 && is_pm(now)}}
}
actions {
   blockWifiRequest = {
      applicationSide{
         set_attr("wifi_enabled", false);
         block();
      }
   }
}
rules {
   blockWifiAfterHours =
      onWifiEnable() | areEnabledRequests && isTooEarly -> blockWifiRequest
}
"""

EMPTY_SRC = "Events { } Conditions { } Actions { } Rules { }"


def plan_rules(plan) -> list:
    """The rules of one dispatch key's batch plan, in declaration order."""
    return [rule for batch in plan for rule in batch.rules]


def phase_plans(cp: CompiledPolicy) -> dict:
    """Each `(namespace, method, phase)` of the dispatch table mapped to
    its batch plan."""
    return {
        (namespace, method, phase): plan
        for (namespace, method), plans in cp.dispatch.items()
        for phase, plan in zip((Phase.BEFORE, Phase.AFTER), plans)
    }


def replan(cp: CompiledPolicy, plan_of) -> CompiledPolicy:
    """The same policy with `plan_of` applied to every batch plan of its
    dispatch table."""
    dispatch = {call: tuple(plan_of(plan) for plan in plans) for call, plans in cp.dispatch.items()}
    return dataclasses.replace(cp, dispatch=dispatch)


def by_rules(rules) -> Batch:
    """A batch of `rules` decided by the monitors' rule-by-rule loops: its
    local function binds the occurrence as a generated one does and hands
    the batch to `_run_batch`; its central function hands the request to
    `_run_rules`."""
    batch = Batch(rules)
    names, returned = batch.rules[0].binding

    def local(mon, batch, args, rv, t, faults, eval_expr):
        bindings = {} if names is None else dict(zip(names, args))
        if returned is not None:
            bindings[returned] = rv
        mon._ctx.now, mon._ctx.event_bindings = t, bindings
        return mon._run_batch(batch, faults)

    batch.local = local
    batch.central = lambda cm, batch, req, eval_expr, exec_stmts: cm._run_rules(req)
    return batch


class Occurrence(NamedTuple):
    """One phase of a call, as a test hands it to a LocalMonitor."""

    namespace: str
    method: str
    phase: Phase
    args: tuple
    return_value: object
    t: int


@dataclasses.dataclass
class Intercepted:
    """What one intercepted phase decided: the first block reason, if any,
    and every fault."""

    reason: Optional[str]
    faults: Tuple[str, ...]

    @property
    def blocked(self) -> bool:
        return self.reason is not None


def intercept(monitor, occ: Occurrence) -> Intercepted:
    """`monitor.intercept` of the phase's plan as `rules_for` looks it up,
    an empty plan included."""
    faults: List[str] = []
    plan = rules_for(monitor.cp, occ.namespace, occ.method, occ.phase)
    reason = monitor.intercept(plan, occ.args, occ.return_value, occ.t, faults)
    return Intercepted(reason, tuple(faults))


def compile_src(src: str) -> CompiledPolicy:
    result = validate_policy(parse_policy(src))
    assert isinstance(result, CompiledPolicy), result
    return result


def generate(add, state_types=None):
    """The one function that `add` writes into a fresh `Module` over
    `state_types`, compiled alone. `add(module)` returns the function's
    name, as `Module.expr`, `Module.stmts` and `Module.guard` do. The code
    assumes what validation proves of a body: a context of the body's side,
    every state variable it reads typed, and each builtin at its arity."""
    module = Module(state_types or {})
    name = add(module)
    return module.build()[name]


@pytest.fixture(scope="session")
def msg_quota_policy() -> CompiledPolicy:
    return compile_src(MSG_QUOTA_SRC)


@pytest.fixture(scope="session")
def wifi_listing_policy() -> CompiledPolicy:
    return compile_src(WIFI_LISTING_SRC)


# trace builders

def send(t: int, app: str = "Messenger", dest: str = "21234567") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["SmsManager", "sendTextMessage"], (dest, "hi"))


def wifi(t: int, enabled: bool, app: str = "Maps") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["WifiManager", "setWifiEnabled"], (enabled,))


def dial(t: int, number: str = "21234567", app: str = "Messenger") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["TelephonyManager", "dialCall"], (number,))


def end_call(t: int, app: str = "Messenger") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["TelephonyManager", "endCall"], ())


def url(t: int, address: str, app: str = "Maps") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["WebBrowser", "requestUrl"], (address,))


def open_file(t: int, path: str, app: str = "Maps", mode: str = "r") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["FileSystem", "openFile"], (path, mode))


def launch(t: int, target: str, app: str = "Launcher") -> TraceEvent:
    return TraceEvent(t, app, CATALOG["AppLauncher", "launchApp"], (target,))


def sends_every(
    gap_ms: int, count: int, start: int = 0, apps: Optional[List[str]] = None
) -> List[TraceEvent]:
    apps = apps or ["Messenger"]
    return [send(start + i * gap_ms, apps[i % len(apps)]) for i in range(count)]


MS = dict(second=MS_PER_SECOND, minute=MS_PER_MINUTE, hour=MS_PER_HOUR, day=MS_PER_DAY)
