"""Emit compilable subset C from an AST, for the parser's round-trip tests.

Output is canonical rather than pretty: subexpressions are fully
parenthesized and bodies keep their original block structure, except
that a then-branch ending in a dangling `if` is braced to preserve
else-binding on reparse.
"""
from __future__ import annotations

from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Break, Call, Cast, Comma, CompoundAssign,
    CompoundStmt, Conditional, Constant, Continue, Declaration, DeclEntry,
    Deref, DoWhile, Expr, ExprStmt, For, FunctionDef, Goto, Identifier, If,
    IncDec, Index, InitList, Label, Member, Node, Return, Sizeof,
    StringLiteral, Switch, SynArr, SynBase, SynFunc, SynPtr, SynType,
    TranslationUnitAst, Unary, While,
)

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
                   "\r": "\\r", "\0": "\\0", "\a": "\\a", "\b": "\\b",
                   "\f": "\\f", "\v": "\\v"}


def _string_text(value: str) -> str:
    out = ['"']
    for ch in value:
        if ch in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[ch])
        elif 32 <= ord(ch) < 127:
            out.append(ch)
        else:
            out.append(f"\\x{ord(ch) & 0xFF:02x}")
    out.append('"')
    return "".join(out)


def _base_text(base: SynBase) -> str:
    parts: list[str] = []
    if base.storage:
        parts.append(base.storage)
    parts.extend(sorted(base.quals))
    if base.record_kind == "enum":
        text = "enum"
        if base.tag:
            text += f" {base.tag}"
        if base.enumerators is not None:
            items = []
            for name, value in base.enumerators:
                items.append(name if value is None else f"{name} = {_expr(value)}")
            text += " { " + ", ".join(items) + " }"
        parts.append(text)
    elif base.record_kind in ("struct", "union"):
        text = base.record_kind
        if base.tag:
            text += f" {base.tag}"
        if base.members is not None:
            inner = " ".join(
                _declarator_text(m.syntype, m.name) + " ;" for m in base.members
            )
            text += " { " + inner + " }"
        parts.append(text)
    elif base.typedef_name:
        parts.append(base.typedef_name)
    else:
        parts.extend(base.specs)
    return " ".join(parts)


def _decl_part(derivs: tuple, name: str | None) -> str:
    """Declarator text without the base type, built name-outward."""
    decl = name or ""
    for d in derivs:
        if isinstance(d, SynPtr):
            quals = " ".join(sorted(d.quals))
            decl = f"* {quals} {decl}".rstrip() if quals else f"*{decl}"
        elif isinstance(d, SynArr):
            if decl.startswith("*"):
                decl = f"({decl})"
            size = "" if d.size is None else _expr(d.size)
            decl = f"{decl}[{size}]"
        elif isinstance(d, SynFunc):
            if decl.startswith("*"):
                decl = f"({decl})"
            decl = f"{decl}({_params_text(d)})"
    return decl


def _declarator_text(syntype: SynType, name: str | None) -> str:
    base = _base_text(syntype.base)
    decl = _decl_part(syntype.derivs, name)
    return f"{base} {decl}".strip()


def _params_text(func: SynFunc) -> str:
    if func.params is None:
        return ""
    if not func.params:
        return "void"
    parts = [_declarator_text(p.syntype, p.name) for p in func.params]
    if func.variadic:
        parts.append("...")
    return ", ".join(parts)


def _expr(node: Expr) -> str:
    if isinstance(node, Identifier):
        return node.name
    if isinstance(node, Constant):
        return node.text
    if isinstance(node, StringLiteral):
        return _string_text(node.value)
    if isinstance(node, Unary):
        return f"{node.op}({_expr(node.operand)})"
    if isinstance(node, Binary):
        return f"({_expr(node.left)} {node.op} {_expr(node.right)})"
    if isinstance(node, Assign):
        return f"({_expr(node.target)} = {_expr(node.value)})"
    if isinstance(node, CompoundAssign):
        return f"({_expr(node.target)} {node.op}= {_expr(node.value)})"
    if isinstance(node, IncDec):
        if node.prefix:
            return f"{node.op}({_expr(node.operand)})"
        return f"({_expr(node.operand)}){node.op}"
    if isinstance(node, Call):
        args = ", ".join(_expr(a) for a in node.args)
        return f"{_expr(node.callee)}({args})"
    if isinstance(node, Index):
        return f"({_expr(node.base)})[{_expr(node.index)}]"
    if isinstance(node, Member):
        op = "->" if node.arrow else "."
        return f"({_expr(node.base)}){op}{node.name}"
    if isinstance(node, Deref):
        return f"*({_expr(node.operand)})"
    if isinstance(node, AddrOf):
        return f"&({_expr(node.operand)})"
    if isinstance(node, Cast):
        return f"({_declarator_text(node.type_name, None)})({_expr(node.operand)})"
    if isinstance(node, Conditional):
        return f"(({_expr(node.cond)}) ? ({_expr(node.then)}) : ({_expr(node.other)}))"
    if isinstance(node, Comma):
        return f"({_expr(node.left)} , {_expr(node.right)})"
    if isinstance(node, Sizeof):
        if node.type_name is not None:
            return f"sizeof({_declarator_text(node.type_name, None)})"
        return f"sizeof({_expr(node.operand)})"
    if isinstance(node, InitList):
        return "{ " + ", ".join(_expr(e) for e in node.elements) + " }"
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _dangles(stmt: Node) -> bool:
    """True when the statement ends in an if that could capture an else."""
    if isinstance(stmt, If):
        return stmt.els is None or _dangles(stmt.els)
    if isinstance(stmt, (While, For, Switch)):
        return _dangles(stmt.body)
    if isinstance(stmt, Label):
        return _dangles(stmt.stmt)
    return False


def _declaration_text(decl: Declaration) -> str:
    if not decl.entries:
        return _base_text(decl.base) + " ;"
    parts = []
    for e in decl.entries:
        text = _decl_part(e.syntype.derivs, e.name)
        if e.init is not None:
            text += f" = {_expr(e.init)}"
        parts.append(text)
    return _base_text(decl.base) + " " + " , ".join(parts) + " ;"


def _stmt(node: Node, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(node, CompoundStmt):
        lines = [pad + "{"]
        for item in node.items:
            lines.extend(_stmt(item, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(node, Declaration):
        return [pad + _declaration_text(node)]
    if isinstance(node, ExprStmt):
        return [pad + (";" if node.expr is None else _expr(node.expr) + " ;")]
    if isinstance(node, If):
        then = node.then
        lines = [pad + f"if ({_expr(node.cond)})"]
        if node.els is not None and _dangles(then):
            lines.append(pad + "{")
            lines.extend(_stmt(then, indent + 1))
            lines.append(pad + "}")
        else:
            lines.extend(_stmt(then, indent + 1))
        if node.els is not None:
            lines.append(pad + "else")
            lines.extend(_stmt(node.els, indent + 1))
        return lines
    if isinstance(node, Switch):
        return [pad + f"switch ({_expr(node.cond)})"] + _stmt(node.body, indent + 1)
    if isinstance(node, While):
        return [pad + f"while ({_expr(node.cond)})"] + _stmt(node.body, indent + 1)
    if isinstance(node, DoWhile):
        lines = [pad + "do"]
        lines.extend(_stmt(node.body, indent + 1))
        lines.append(pad + f"while ({_expr(node.cond)}) ;")
        return lines
    if isinstance(node, For):
        if node.init is None:
            init = ";"
        elif isinstance(node.init, Declaration):
            init = _declaration_text(node.init)
        else:
            init = _expr(node.init) + " ;"
        cond = "" if node.cond is None else _expr(node.cond)
        step = "" if node.step is None else _expr(node.step)
        return [pad + f"for ({init} {cond}; {step})"] + _stmt(node.body, indent + 1)
    if isinstance(node, Goto):
        return [pad + f"goto {node.label} ;"]
    if isinstance(node, Label):
        if node.kind == "named":
            head = f"{node.name}:"
        elif node.kind == "case":
            head = f"case {_expr(node.case_expr)}:"
        else:
            head = "default:"
        return [pad + head] + _stmt(node.stmt, indent)
    if isinstance(node, Break):
        return [pad + "break ;"]
    if isinstance(node, Continue):
        return [pad + "continue ;"]
    if isinstance(node, Return):
        if node.value is None:
            return [pad + "return ;"]
        return [pad + f"return {_expr(node.value)} ;"]
    raise TypeError(f"cannot unparse statement {type(node).__name__}")


def unparse(tu: TranslationUnitAst) -> str:
    lines: list[str] = []
    for decl in tu.decls:
        if isinstance(decl, FunctionDef):
            lines.append(_declarator_text(decl.syntype, decl.name))
            lines.extend(_stmt(decl.body, 0))
        elif isinstance(decl, Declaration):
            lines.append(_declaration_text(decl))
        else:
            raise TypeError(f"cannot unparse {type(decl).__name__}")
    return "\n".join(lines) + "\n"
