"""A fixed pure-Python workload that measures how fast the machine runs now.

The benchmark runs on shared virtual machines whose speed drifts with other
tenants' load: the same pass took 1.6 times the CPU time in one half hour as
in another. The probe does the same work every time, independent of the code
under test, in the same kinds of operations as the analyser: regex lexing,
building small objects, recursive walks, dict and set traffic. A pass runs it
between TUs, so its samples cover the same fast and slow phases as the
pass's own work, and `run.py` scales the pass's times by `REFERENCE_S /
probe time`: they read as if the machine ran at the speed where one probe
takes `REFERENCE_S` seconds.

The collector is held off while the probe runs, and everything the probe
allocates is freed before it returns, so it moves no collection of the pass
from one place to another.
"""
from __future__ import annotations

import gc
import re
import time

ROUNDS = 100
REFERENCE_S = 0.010  # the probe's CPU time on the scale the metrics are given in

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(<<|>>|&&|\|\||[-+*/%&|^<>=!~()]))")
_TEXT = " ".join(
    f"(x{i % 7} + {i * 37 % 101}) * (y{i % 5} << {i % 3}) - (z{i % 11} & {i * 13 % 97}) | "
    f"(x{(i + 1) % 7} >> 1) ^ (y{(i + 2) % 5} % {i % 9 + 1})"
    for i in range(4)
)
_BINARY = {"|": 1, "^": 2, "&": 3, "<<": 4, ">>": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=None):
        self.op = op
        self.left = left
        self.right = right
        self.value = value


def _lex(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            break
        pos = m.end()
        num, name, punct = m.groups()
        out.append(("num", int(num)) if num else ("name", name) if name else ("op", punct))
    return out


def _parse(tokens, pos, min_prec):
    kind, val = tokens[pos]
    if val == "(":
        left, pos = _parse(tokens, pos + 1, 0)
        pos += 1
    else:
        left = _Node(kind, value=val)
        pos += 1
    while pos < len(tokens):
        prec = _BINARY.get(tokens[pos][1], 0)
        if prec <= min_prec:
            break
        op = tokens[pos][1]
        right, pos = _parse(tokens, pos + 1, prec)
        left = _Node(op, left, right)
    return left, pos


def _eval(node, env, seen):
    if node.op == "num":
        return node.value
    if node.op == "name":
        seen.add(node.value)
        return env[node.value]
    a = _eval(node.left, env, seen)
    b = _eval(node.right, env, seen)
    op = node.op
    if op == "+":
        return (a + b) & 0xFFFF
    if op == "-":
        return (a - b) & 0xFFFF
    if op == "*":
        return (a * b) & 0xFFFF
    if op in ("/", "%"):
        return a // b if op == "/" and b else a % b if b else 0
    if op == "<<":
        return (a << (b & 7)) & 0xFFFF
    if op == ">>":
        return a >> (b & 7)
    return a & b if op == "&" else a | b if op == "|" else a ^ b


def _work() -> int:
    acc = 0
    for round_ in range(ROUNDS):
        tokens = _lex(_TEXT)
        tree, _ = _parse(tokens, 0, 0)
        env = {f"{v}{i}": (i * 31 + round_) & 0xFF for v in "xyz" for i in range(11)}
        seen: set[str] = set()
        acc ^= _eval(tree, env, seen)
        acc += len(seen | {name for kind, name in tokens if kind == "name"})
    return acc


_EXPECTED = _work()


def probe() -> float:
    """CPU seconds that one run of the fixed workload takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.process_time()
        result = _work()
        took = time.process_time() - t
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise AssertionError("probe workload gave a different result")
    return took
