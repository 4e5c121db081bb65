"""Recursive-descent parser for policy source.

Grammar outline (block keywords are case-insensitive, all four blocks are
required, in order):

    policy     := events conditions actions rules EOF
    events     := 'Events' '{' (sidegroup(event) | event)* '}'
    event      := NAME '(' params? ')' '=' '{' ['after'] pattern '}'
                  ['uponReturning' '(' NAME ')']
    pattern    := NAME ('*.' | '.') NAME '(' ('...' | params)? ')'
    conditions := 'Conditions' '{' (sidegroup(cond) | cond)* '}'
    cond       := NAME '=' '{' [SIDETAG '{'] expr ['}'] '}'
    actions    := 'Actions' '{' (sidegroup(act) | act)* '}'
    act        := NAME '=' '{' [SIDETAG '{'] stmt* ['}'] '}'
    rules      := 'Rules' '{' rule* '}'
    rule       := [NAME '='] NAME '(' ')' '|' guard '->' aref (',' aref)* [';']
    guard      := the '||' / '&&' chain of expr, over gterm in place of comparisons
    gterm      := '!' gterm | '(' guard ')' | NAME ['(' ')']

Declarations outside a side group default to ApplicationSide. Nesting of
expressions and guards is depth-capped so that arbitrary input can never
overflow the interpreter stack.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lang.nodes import (
    Assign,
    AppendStmt,
    Binary,
    BlockStmt,
    Call,
    Expr,
    Literal,
    NS_COND,
    PruneStmt,
    SetAttrStmt,
    Stmt,
    Unary,
    VarRef,
)
from ..lang.check import BUILTINS
from ..lang.values import TYPE_NAMES, VType
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
)
from .errors import ParseError
from .lexer import EOF, IDENT, INT, PUNCT, STRING, Token, side_tag, tokenize

MAX_NESTING = 200

_STMT_HEADS = ("block", "append", "prune_older", "set_attr", "local", "global")


def parse_policy(text: str) -> PolicySpec:
    """Parse policy source into a PolicySpec; raises ParseError on any
    malformed input, never anything else."""
    if not isinstance(text, str):
        raise ParseError(1, 1, "policy source must be text")
    return _Parser(tokenize(text)).policy()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.pos = 0

    # token plumbing

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[i]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def error(self, message: str, expected: Tuple[str, ...] = (), tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(tok.line, tok.col, message, expected)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == PUNCT and tok.text == text:
            return self.advance()
        self.error(f"unexpected {_describe(tok)}", expected=(repr(text),))

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind == IDENT:
            return self.advance()
        self.error(f"unexpected {_describe(tok)}", expected=(what,))

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == PUNCT and tok.text == text

    # top level

    def policy(self) -> PolicySpec:
        events = self.decl_block("events", self.event_decl)
        conditions = self.decl_block("conditions", self.condition_decl)
        actions = self.decl_block("actions", self.action_decl)
        rules = self.block("rules", self.rule_decl)
        tok = self.peek()
        if tok.kind != EOF:
            self.error(f"unexpected {_describe(tok)} after Rules block", expected=("end of input",))
        return PolicySpec(tuple(events), tuple(conditions), tuple(actions), tuple(rules))

    def block(self, keyword: str, item) -> list:
        """`keyword { item* }`, the keyword in any case."""
        tok = self.peek()
        if not (tok.kind == IDENT and tok.text.lower() == keyword):
            self.error(f"unexpected {_describe(tok)}", expected=(keyword.capitalize(),))
        self.advance()
        self.expect_punct("{")
        return self.until_close("block", item)

    def decl_block(self, keyword: str, decl_parser) -> list:
        """A block whose declarations stand alone or in side groups."""
        groups = self.block(keyword, lambda: self.side_group(decl_parser))
        return [decl for group in groups for decl in group]

    def side_group(self, decl_parser) -> list:
        side = self.side_open()
        if side is None:
            return [decl_parser(None)]
        return self.until_close("side group", lambda: decl_parser(side))

    def until_close(self, what: str, item) -> list:
        """`item()` up to the closing '}', which is consumed."""
        items = []
        while not self.at_punct("}"):
            if self.peek().kind == EOF:
                self.error(f"unterminated {what}", expected=("'}'",))
            items.append(item())
        self.advance()
        return items

    def side_open(self) -> Optional[Side]:
        """Consumes a side tag and its '{', if they come next."""
        tag = side_tag(self.peek())
        if tag is not None and self.peek(1).kind == PUNCT and self.peek(1).text == "{":
            self.advance()
            self.advance()
            return Side(tag)
        return None

    # events

    def event_decl(self, group: Optional[Side]) -> EventDecl:
        name = self.expect_ident("event name")
        self.expect_punct("(")
        header = self.param_list(closing=")")
        self.expect_punct(")")
        self.expect_punct("=")
        self.expect_punct("{")
        phase = Phase.BEFORE
        tok = self.peek()
        if tok.kind == IDENT and tok.text == "after":
            self.advance()
            phase = Phase.AFTER
        pattern = self.call_pattern()
        self.expect_punct("}")
        return_binding = None
        tok = self.peek()
        if tok.kind == IDENT and tok.text == "uponReturning":
            self.advance()
            self.expect_punct("(")
            return_binding = self.expect_ident("parameter name").text
            self.expect_punct(")")
        side = group if group is not None else Side.APPLICATION
        return EventDecl(
            name=name.text,
            side=side,
            phase=phase,
            pattern=pattern,
            header_params=tuple(header),
            return_binding=return_binding,
            group_side=group,
            span=name.span,
        )

    def call_pattern(self) -> CallPattern:
        namespace = self.expect_ident("API namespace")
        receiver_wildcard = False
        if self.at_punct("*."):
            self.advance()
            receiver_wildcard = True
        else:
            self.expect_punct(".")
        method = self.expect_ident("method name")
        self.expect_punct("(")
        params: Optional[Tuple[Param, ...]]
        if self.at_punct("..."):
            self.advance()
            params = None
        else:
            params = tuple(self.param_list(closing=")"))
        self.expect_punct(")")
        return CallPattern(
            api_namespace=namespace.text,
            method=method.text,
            receiver_wildcard=receiver_wildcard,
            params=params,
            span=namespace.span,
        )

    def param_list(self, closing: str) -> List[Param]:
        params: List[Param] = []
        if self.at_punct(closing):
            return params
        while True:
            ty = self.expect_ident("parameter type")
            vtype = TYPE_NAMES.get(ty.text)
            if vtype is None:
                self.error(
                    f"unknown parameter type {ty.text!r}",
                    expected=tuple(sorted(TYPE_NAMES)),
                    tok=ty,
                )
            pname = self.expect_ident("parameter name")
            params.append(Param(pname.text, vtype, span=pname.span))
            if self.at_punct(","):
                self.advance()
                continue
            return params

    # conditions

    def condition_decl(self, group: Optional[Side]) -> ConditionDecl:
        name = self.expect_ident("condition name")
        self.expect_punct("=")
        self.expect_punct("{")
        inner = self.side_open()
        body = self.expr(0)
        if self.at_punct(";"):
            self.advance()
        if inner is not None:
            self.expect_punct("}")
        self.expect_punct("}")
        side = group or inner or Side.APPLICATION
        return ConditionDecl(
            name=name.text, side=side, body=body, group_side=group, inner_side=inner, span=name.span
        )

    # actions

    def action_decl(self, group: Optional[Side]) -> ActionDecl:
        name = self.expect_ident("action name")
        self.expect_punct("=")
        self.expect_punct("{")
        inner = self.side_open()
        stmts = self.until_close("action body", self.stmt)
        if inner is not None:
            self.expect_punct("}")
        side = group or inner or Side.APPLICATION
        return ActionDecl(
            name=name.text,
            side=side,
            body=tuple(stmts),
            group_side=group,
            inner_side=inner,
            span=name.span,
        )

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind != IDENT:
            self.error(f"unexpected {_describe(tok)}", expected=_STMT_HEADS)
        head = tok.text
        if head == "block":
            self.advance()
            self.expect_punct("(")
            self.expect_punct(")")
            self.expect_punct(";")
            return BlockStmt(span=tok.span)
        if head in ("append", "prune_older"):
            self.advance()
            self.expect_punct("(")
            ns, vname = self.state_ref()
            self.expect_punct(",")
            operand = self.expr(0)
            self.expect_punct(")")
            self.expect_punct(";")
            node = AppendStmt if head == "append" else PruneStmt
            return node(ns, vname, operand, span=tok.span)
        if head == "set_attr":
            self.advance()
            self.expect_punct("(")
            attr_tok = self.peek()
            if attr_tok.kind != STRING:
                self.error(f"unexpected {_describe(attr_tok)}", expected=("attribute name string",))
            self.advance()
            self.expect_punct(",")
            value = self.expr(0)
            self.expect_punct(")")
            self.expect_punct(";")
            return SetAttrStmt(attr_tok.text, value, span=tok.span)
        if head in ("local", "global"):
            ns, vname = self.state_ref()
            self.expect_punct(":=")
            value = self.expr(0)
            self.expect_punct(";")
            return Assign(ns, vname, value, span=tok.span)
        self.error(f"unknown statement {head!r}", expected=_STMT_HEADS, tok=tok)

    def state_ref(self) -> Tuple[str, str]:
        ns = self.expect_ident("'local' or 'global'")
        if ns.text not in ("local", "global"):
            self.error("state reference must start with 'local' or 'global'", tok=ns)
        self.expect_punct(".")
        vname = self.expect_ident("state variable name")
        return ns.text, vname.text

    # expressions

    def expr(self, depth: int, operand=None) -> Expr:
        """An `||` chain of `&&` chains. Their operand is a comparison in a
        condition or action body, and `guard_operand` in a guard."""
        operand = operand or self.cmp_expr
        self.check_depth(depth)
        return self.chain(depth, ("||",), lambda d: self.chain(d, ("&&",), operand))

    def chain(self, depth: int, ops: Tuple[str, ...], operand) -> Expr:
        """A left-associative chain of `operand`s joined by `ops`; the n-th
        operator counts n levels of nesting."""
        node = operand(depth + 1)
        n = 0
        while self.peek().kind == PUNCT and self.peek().text in ops:
            n += 1
            self.check_depth(depth + n)
            op = self.advance()
            node = Binary(op.text, node, operand(depth + n), span=op.span)
        return node

    def cmp_expr(self, depth: int) -> Expr:
        node = self.add_expr(depth + 1)
        tok = self.peek()
        if tok.kind == PUNCT and tok.text in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.add_expr(depth + 1)
            return Binary(tok.text, node, right, span=tok.span)
        return node

    def add_expr(self, depth: int) -> Expr:
        return self.chain(depth, ("+", "-"), lambda d: self.chain(d, ("*", "/"), self.unary_expr))

    def unary_expr(self, depth: int) -> Expr:
        self.check_depth(depth)
        if self.at_punct("!"):
            op = self.advance()
            operand = self.unary_expr(depth + 1)
            return Unary("!", operand, span=op.span)
        return self.atom(depth + 1)

    def atom(self, depth: int) -> Expr:
        self.check_depth(depth)
        tok = self.peek()
        if tok.kind == INT:
            self.advance()
            return Literal(VType.INT, int(tok.text), span=tok.span)
        if tok.kind == STRING:
            self.advance()
            return Literal(VType.STRING, tok.text, span=tok.span)
        if self.at_punct("("):
            self.advance()
            node = self.expr(depth + 1)
            self.expect_punct(")")
            return node
        if tok.kind != IDENT:
            self.error(f"unexpected {_describe(tok)}", expected=("expression",))
        name = tok.text
        if name == "true":
            self.advance()
            return Literal(VType.BOOL, True, span=tok.span)
        if name == "false":
            self.advance()
            return Literal(VType.BOOL, False, span=tok.span)
        if name in ("now", "app_name", "app_id"):
            self.advance()
            return VarRef("ctx", name, span=tok.span)
        if name in ("local", "global", "event"):
            self.advance()
            self.expect_punct(".")
            member = self.expect_ident("variable name")
            explicit = name == "event"
            return VarRef(name, member.text, explicit=explicit, span=tok.span)
        if name in BUILTINS:
            self.advance()
            self.expect_punct("(")
            args: List[Expr] = []
            if not self.at_punct(")"):
                while True:
                    args.append(self.expr(depth + 1))
                    if self.at_punct(","):
                        self.advance()
                        continue
                    break
            self.expect_punct(")")
            return Call(name, tuple(args), span=tok.span)
        self.advance()
        return VarRef("event", name, explicit=False, span=tok.span)

    def check_depth(self, depth: int) -> None:
        if depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "expression nested too deeply")

    # rules

    def rule_decl(self) -> RuleDecl:
        first = self.expect_ident("rule or event name")
        name: Optional[str] = None
        if self.at_punct("="):
            self.advance()
            trigger_tok = self.expect_ident("event name")
            name = first.text
        else:
            trigger_tok = first
        self.expect_punct("(")
        self.expect_punct(")")
        self.expect_punct("|")
        guard = self.expr(0, self.guard_operand)
        self.expect_punct("->")
        actions = [self.action_ref()]
        while self.at_punct(","):
            self.advance()
            actions.append(self.action_ref())
        if self.at_punct(";"):
            self.advance()
        return RuleDecl(
            name=name,
            trigger=trigger_tok.text,
            guard=guard,
            actions=tuple(actions),
            span=first.span,
        )

    def action_ref(self) -> str:
        name = self.expect_ident("action name")
        if self.at_punct("("):
            self.advance()
            self.expect_punct(")")
        return name.text

    def guard_operand(self, depth: int) -> Expr:
        self.check_depth(depth)
        if self.at_punct("!"):
            op = self.advance()
            return Unary("!", self.guard_operand(depth + 1), span=op.span)
        if self.at_punct("("):
            self.advance()
            node = self.expr(depth + 1, self.guard_operand)
            self.expect_punct(")")
            return node
        name = self.expect_ident("condition name")
        if self.at_punct("("):
            self.advance()
            self.expect_punct(")")
        return VarRef(NS_COND, name.text, span=name.span)


def _describe(tok: Token) -> str:
    if tok.kind == EOF:
        return "end of input"
    if tok.kind == STRING:
        return "string literal"
    return f"{tok.kind} {tok.text!r}"
