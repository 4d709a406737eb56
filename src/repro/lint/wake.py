"""W001/W002/W004 -- the lost-wakeup detector and the verdict check.

The quiescence engine lets a component sleep; anything that delivers
work into a sleeping component's ingress queue MUST call ``wake()`` on
it, or the work sits unprocessed forever (the run then diverges from
``strict=True`` or stalls).  Today every push site pairs the two by
hand; this checker makes the pairing mechanical:

* **W001** -- a public method of a ``Component`` subclass pushes into a
  queue the component owns (a ``BoundedQueue`` / ``DelayLine`` /
  ``BandwidthLink`` / ``deque`` created in ``__init__``) but contains
  no ``self.wake()`` call.
* **W002** -- a method tests ``self._awake`` (the hand-inlined guard
  idiom ``if not self._awake: self.wake()``) but the conditional never
  calls ``self.wake()`` -- i.e. someone deleted or typo'd the wake but
  left the guard.

Reachability is approximated by presence: a ``self.wake()`` anywhere in
the method satisfies W001.  That matches the codebase idiom (guard
first, push after) and keeps the checker free of false positives from
capacity-check early returns.

* **W004** -- a ``Component`` subclass's ``tick`` has a bare ``return``
  (or ``return None``) or can fall off its end.  ``tick``'s return value is the engine's
  only sleep verdict; the engine treats the implicit ``None`` as
  "stay awake", so a forgotten verdict silently costs every tick the
  component could have slept through.  The fall-off analysis is
  syntactic: a body ends in ``return``/``raise``, an ``if`` whose
  branches both end that way, a ``with``/``try`` whose body does, or
  ``while True`` without ``break``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.core import (
    Checker,
    Finding,
    LintModule,
    Resolver,
    call_name,
    dotted_name,
)

#: Constructors whose instances are ingress queues when stored on self.
QUEUE_CTORS = {"BoundedQueue", "DelayLine", "BandwidthLink", "deque"}

#: Method names that append work to a queue object.
PUSH_METHODS = {"push", "append", "appendleft", "extend", "push_front"}

#: Engine activity-contract methods: called by the simulator itself, on
#: an already-awake component (tick) or as lifecycle hooks -- pushes
#: here cannot lose a wakeup.
CONTRACT_METHODS = {"tick", "wake", "on_skipped", "__init__", "__repr__"}

#: Queue-internal accessors that inlined hot paths reach through
#: (``self.lmr._items.append``, ``link.input`` ...).
_QUEUE_SUFFIXES = ("._items", ".input", "[]")


def _is_component_class(cls: ast.ClassDef) -> bool:
    if cls.name == "Component":
        return True
    for base in cls.bases:
        name = dotted_name(base)
        if name and name.split(".")[-1] == "Component":
            return True
    return False


def _queue_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names assigned a queue (or container of queues) in
    ``__init__``."""
    attrs: Set[str] = set()
    init = next((n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return attrs
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for tgt in targets:
            if (isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                    and _is_queue_value(value)):
                attrs.add(tgt.attr)
    return attrs


def _is_queue_value(value: ast.expr) -> bool:
    if isinstance(value, ast.Call):
        return call_name(value) in QUEUE_CTORS
    if isinstance(value, ast.ListComp):
        return _is_queue_value(value.elt)
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(_is_queue_value(e) for e in value.elts)
    if isinstance(value, ast.DictComp):
        return _is_queue_value(value.value)
    return False


def _strip_queue_suffixes(chain: str) -> str:
    changed = True
    while changed:
        changed = False
        for suffix in _QUEUE_SUFFIXES:
            if chain.endswith(suffix):
                chain = chain[:-len(suffix)]
                changed = True
    return chain


def _owned_queue_pushes(func: ast.FunctionDef, resolver: Resolver,
                        queue_attrs: Set[str]) -> List[ast.Call]:
    """Calls in *func* that push into one of the class's own queues."""
    pushes = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in PUSH_METHODS):
            continue
        chain = resolver.chain(node.func.value)
        if chain is None:
            continue
        base = _strip_queue_suffixes(chain)
        if base.startswith("self.") and base[len("self."):] in queue_attrs:
            pushes.append(node)
    return pushes


def _has_self_wake(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wake"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            return True
    return False


def _own_returns(func: ast.FunctionDef) -> List[ast.Return]:
    """``return`` statements of *func* itself, not of nested scopes."""
    returns: List[ast.Return] = []
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            returns.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return returns


def _has_own_break(body: List[ast.stmt]) -> bool:
    """A ``break`` that leaves the loop owning *body*."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Break):
            return True
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While,
                             ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _always_exits(body: List[ast.stmt]) -> bool:
    """True when control cannot run off the end of *body*."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, (ast.Return, ast.Raise)):
        return True
    if isinstance(last, ast.If):
        return _always_exits(last.body) and _always_exits(last.orelse)
    if isinstance(last, (ast.With, ast.AsyncWith)):
        return _always_exits(last.body)
    if isinstance(last, ast.Try):
        if _always_exits(last.finalbody):
            return True
        main = last.orelse if last.orelse else last.body
        return _always_exits(main) and all(
            _always_exits(handler.body) for handler in last.handlers)
    if isinstance(last, ast.While):
        return (isinstance(last.test, ast.Constant)
                and last.test.value is True
                and not _has_own_break(last.body))
    return False


def _awake_guards(func: ast.FunctionDef, resolver: Resolver):
    """``If`` nodes whose test references ``self._awake``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        for sub in ast.walk(node.test):
            if (isinstance(sub, ast.Attribute)
                    and resolver.chain(sub) == "self._awake"):
                yield node
                break


class WakeSiteChecker(Checker):
    name = "wake-site"
    rules = {
        "W001": "ingress push without a reachable self.wake()",
        "W002": "self._awake guard that never calls self.wake()",
        "W004": "Component.tick without a sleep verdict on some path",
    }

    def check_module(self, module: LintModule) -> List[Finding]:
        """Apply W001/W002/W004 to every Component subclass in the
        module."""
        findings: List[Finding] = []
        for cls in module.top_level_classes():
            if not _is_component_class(cls):
                continue
            queue_attrs = _queue_attrs(cls)
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                resolver = Resolver(module, func)
                findings.extend(self._check_method(
                    module, cls, func, resolver, queue_attrs))
        return findings

    def _check_method(self, module: LintModule, cls: ast.ClassDef,
                      func: ast.FunctionDef, resolver: Resolver,
                      queue_attrs: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        if func.name == "tick":
            findings.extend(self._check_verdict(module, cls, func))
        # W002 applies to every method except wake() itself (whose body
        # is the guard).
        if func.name != "wake":
            for guard in _awake_guards(func, resolver):
                if not _has_self_wake(guard):
                    findings.append(self.finding(
                        module, guard, "W002",
                        "guard tests self._awake but never calls "
                        "self.wake() -- a sleeping %s stays asleep"
                        % cls.name,
                        hint="the inlined idiom is `if not self._awake: "
                             "self.wake()`; restore the wake call",
                    ))
        # W001: public ingress methods only.
        if func.name.startswith("_") or func.name in CONTRACT_METHODS:
            return findings
        pushes = _owned_queue_pushes(func, resolver, queue_attrs)
        if pushes and not _has_self_wake(func):
            push = pushes[0]
            findings.append(self.finding(
                module, push, "W001",
                "%s.%s pushes into a component-owned queue but never "
                "calls self.wake() -- lost wakeup if the component is "
                "asleep" % (cls.name, func.name),
                hint="add `if not self._awake: self.wake()` before the "
                     "push (see docs/LINT.md#wake-site)",
            ))
        return findings

    def _check_verdict(self, module: LintModule, cls: ast.ClassDef,
                       func: ast.FunctionDef) -> List[Finding]:
        """W004: every path through ``tick`` returns a value."""
        hint = ("return True when every future tick is a no-op until "
                "wake(), False otherwise (docs/LINT.md#wake-site)")
        findings = [
            self.finding(
                module, node, "W004",
                "return without a verdict in %s.tick -- the engine "
                "reads None as 'stay awake'" % cls.name,
                hint=hint,
            )
            for node in _own_returns(func)
            if node.value is None or (isinstance(node.value, ast.Constant)
                                      and node.value.value is None)
        ]
        if not _always_exits(func.body):
            findings.append(self.finding(
                module, func, "W004",
                "%s.tick can fall off its end without a sleep verdict"
                % cls.name,
                hint=hint,
            ))
        return findings
