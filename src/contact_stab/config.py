"""Structured-text configs and closed-form field expressions.

Config files are flat `section.key = value` lines with `#` comments.  Values
are numbers, booleans, words, comma-separated lists, or arithmetic
expressions in the variables (t, x1, x2) parsed by a small recursive-descent
parser (functions sin, cos, exp, tanh, sqrt, log, abs; constants pi, e;
operators + - * / ^ with ** as a synonym).  Every scenario kind declares its
schema; unknown keys and missing required keys are rejected before any
compute, with errors naming the offending key or line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .grid import MIN_NODES


class ConfigError(ValueError):
    pass


# --- expression parser ------------------------------------------------------

_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("t", "x1", "x2")

_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|(\*\*|[()+\-*/^,]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ConfigError(f"unexpected character {rest[0]!r} in expression {text!r}")
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    """expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := ('-'|'+') factor | power ; power := atom ('^' factor)? ;
    atom := number | name | name '(' expr ')' | '(' expr ')'."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r} in expression {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing input in expression {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.next()
            return ("neg", self.factor())
        if self.peek() == ("op", "+"):
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            return ("pow", base, self.factor())
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in _FUNCTIONS:
                    raise ConfigError(f"unknown function {val!r} in expression {self.text!r}")
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            if val in _CONSTANTS:
                return ("num", _CONSTANTS[val])
            if val in _VARIABLES:
                return ("var", val)
            raise ConfigError(f"unknown name {val!r} in expression {self.text!r}")
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ConfigError(f"unexpected token in expression {self.text!r}")


def _eval_node(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_eval_node(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_eval_node(node[2], env))
    a = _eval_node(node[1], env)
    b = _eval_node(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return a ** b
    raise AssertionError(op)


@dataclass(frozen=True)
class Expression:
    """Compiled closed-form scalar field of (t, x1, x2)."""

    text: str
    _node: tuple = field(repr=False, default=None)

    @staticmethod
    def compile(text: str) -> "Expression":
        return Expression(text=text.strip(), _node=_Parser(text).parse())

    def __call__(self, t=0.0, x1=0.0, x2=0.0):
        out = _eval_node(self._node, {"t": t, "x1": x1, "x2": x2})
        return out


# --- config file parsing ----------------------------------------------------


def read_raw_config(path: str) -> dict[str, str]:
    """section.key -> raw value string, with syntax errors by line number."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if not re.fullmatch(r"[A-Za-z_][\w]*\.[A-Za-z_][\w]*", key):
                raise ConfigError(f"{path}:{lineno}: malformed key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: empty value for {key}")
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key} (first set on line {first_line[key]})"
                )
            first_line[key] = lineno
            raw[key] = value
    return raw


def apply_overrides(raw: dict[str, str], overrides) -> dict[str, str]:
    out = dict(raw)
    for ov in overrides or ():
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        key, _, value = ov.partition("=")
        key = key.strip()
        if not re.fullmatch(r"[A-Za-z_][\w]*\.[A-Za-z_][\w]*", key):
            raise ConfigError(f"override key {key!r} malformed")
        out[key] = value.strip()
    return out


# value converters ------------------------------------------------------------


def _as_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def _as_posfloat(key, text):
    v = _as_float(key, text)
    if v <= 0:
        raise ConfigError(f"{key} must be positive")
    return v


def _as_nonneg(key, text):
    v = _as_float(key, text)
    if v < 0:
        raise ConfigError(f"{key} must be nonnegative")
    return v


def _as_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _as_posint(key, text):
    v = _as_int(key, text)
    if v <= 0:
        raise ConfigError(f"{key} must be positive")
    return v


def _as_grid_size(key, text):
    v = _as_posint(key, text)
    if v < MIN_NODES:
        raise ConfigError(f"{key} must be at least {MIN_NODES}, got {v}")
    return v


def _as_word(key, text):
    return text


def _as_float_list(key, text):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers") from None


def _as_int_list(key, text):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of integers") from None


def _as_refinements(key, text):
    """Grid sizes of a convergence study: at least two, each a valid grid."""
    sizes = _as_int_list(key, text)
    if len(sizes) < 2:
        raise ConfigError(f"{key} needs at least 2 grid sizes to fit an order, got {len(sizes)}")
    small = [n for n in sizes if n < MIN_NODES]
    if small:
        raise ConfigError(f"{key} entries must be at least {MIN_NODES}, got {small[0]}")
    return sizes


def _as_eps_list(key, text):
    """Epsilons of a sweep: at least two, each finite and nonnegative, and
    strictly decreasing, so each run has a smaller one to compare with."""
    eps = _as_float_list(key, text)
    if len(eps) < 2:
        raise ConfigError(f"{key} needs at least 2 values to compare, got {len(eps)}")
    if not all(0.0 <= e < math.inf for e in eps):
        raise ConfigError(f"{key} entries must be finite and nonnegative, got {text!r}")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError(f"{key} must be strictly decreasing, got {text!r}")
    return eps


def _as_expr(key, text):
    try:
        return Expression.compile(text)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# schemas ---------------------------------------------------------------------

_GRID_SCHEMA = {
    "grid.N1": (_as_grid_size, 96),
    "grid.N2": (_as_grid_size, 96),
    "grid.X1": (_as_posfloat, 6.0),
    "grid.X2": (_as_posfloat, 2.0 * math.pi),
    "grid.cfl_max": (_as_posfloat, 0.4),
}

_RUN_SCHEMA = {
    "run.T_final": (_as_nonneg, 1.0),
    "run.epsilon": (_as_nonneg, 1e-3),
    "run.seed": (_as_int, 0),
    "run.out": (_as_word, "out"),
}

_PHYSICS_SCHEMA = {
    "physics.gamma": (_as_posfloat, 5.0 / 3.0),
}

_CONSTANT_STATE_SCHEMA = {
    "state.p": (_as_posfloat, 1.0),
    "state.v2": (_as_float, 0.0),
    "state.H1": (_as_float, 1.0),
    "state.H2": (_as_float, 0.3),
    "state.S_plus": (_as_float, 0.2),
    "state.S_minus": (_as_float, -0.1),
}

_RT_STATE_SCHEMA = {
    "state.p0": (_as_posfloat, 1.0),
    "state.rt_jump": (_as_float, 0.5),
    "state.v2": (_as_float, 0.0),
    "state.H1": (_as_float, 1.0),
    "state.H2": (_as_float, 0.3),
    "state.S_plus": (_as_float, 0.2),
    "state.S_minus": (_as_float, -0.1),
}

_EXPR_STATE_KEYS = [
    f"state.{comp}_{side}"
    for side in ("plus", "minus")
    for comp in ("p", "v1", "v2", "H1", "H2", "S")
]

SCENARIO_SCHEMAS: dict[str, dict] = {
    "validate-state": {
        **_GRID_SCHEMA, **_PHYSICS_SCHEMA,
        "state.kind": (_as_word, "constant"),
        "run.out": (_as_word, "out"),
        "tolerance.validate": (_as_posfloat, 1e-8),
    },
    "spectrum": {
        **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "run.out": (_as_word, "out"),
        "spectral.eta_min": (_as_posfloat, 0.05),
        "spectral.eta_max": (_as_posfloat, 2.0),
        "spectral.xi_min": (_as_float, -2.0),
        "spectral.xi_max": (_as_float, 2.0),
        "spectral.n_eta": (_as_posint, 40),
        "spectral.n_xi": (_as_posint, 40),
        "spectral.omega2": (_as_float, 1.0),
    },
    "energy-test": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "pulse.center": (_as_posfloat, 2.0),
        "pulse.width": (_as_posfloat, 0.35),
        "pulse.k2": (_as_posint, 2),
        "pulse.amplitude": (_as_posfloat, 1.0),
        "run.report_every": (_as_posint, 5),
        "tolerance.drift": (_as_posfloat, 0.01),
    },
    "neutral-mode": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "neutral.omega2": (_as_posint, 2),
        "neutral.refinements": (_as_refinements, [33, 65, 129]),
    },
    "rt-run": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_PHYSICS_SCHEMA, **_RT_STATE_SCHEMA,
        "forcing.amplitude": (_as_posfloat, 1.0),
        "forcing.t_ramp": (_as_posfloat, 0.2),
        "forcing.k2": (_as_posint, 2),
        "run.report_every": (_as_posint, 5),
    },
    "eps-sweep": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_PHYSICS_SCHEMA, **_RT_STATE_SCHEMA,
        "sweep.eps_list": (_as_eps_list, [1e-1, 5e-2, 2.5e-2, 1.25e-2]),
        "forcing.amplitude": (_as_posfloat, 1.0),
        "forcing.t_ramp": (_as_posfloat, 0.2),
        "forcing.k2": (_as_posint, 2),
    },
    "adjoint-check": {
        **_GRID_SCHEMA, **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "run.epsilon": (_as_nonneg, 1e-2),
        "run.seed": (_as_int, 0),
        "run.out": (_as_word, "out"),
        "adjoint.trials": (_as_posint, 20),
        "tolerance.adjoint": (_as_posfloat, 1e-10),
    },
    "mms": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "run.seed": (_as_int, 7),
        "mms.omega2": (_as_posfloat, 2.0),
        "mms.omega_t": (_as_posfloat, 1.5),
        "mms.amplitude": (_as_posfloat, 1.0),
        "mms.refinements": (_as_refinements, [33, 65, 129]),
    },
}

SCENARIO_KINDS = tuple(SCENARIO_SCHEMAS)


@dataclass
class ScenarioConfig:
    kind: str
    values: dict
    raw: dict[str, str]

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def echo_lines(self) -> list[str]:
        lines = [f"scenario = {self.kind}"]
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, Expression):
                v = v.text
            elif isinstance(v, list):
                v = ",".join(str(x) for x in v)
            lines.append(f"{key} = {v}")
        return lines


def parse_config(path: str, kind: str, overrides=None) -> ScenarioConfig:
    if kind not in SCENARIO_SCHEMAS:
        raise ConfigError(
            f"unknown scenario kind {kind!r}; choose from {', '.join(SCENARIO_KINDS)}"
        )
    raw = apply_overrides(read_raw_config(path), overrides)
    schema = dict(SCENARIO_SCHEMAS[kind])
    values: dict = {}

    if kind == "validate-state":
        state_kind = raw.get("state.kind", "constant")
        if state_kind == "constant":
            schema.update(_CONSTANT_STATE_SCHEMA)
        elif state_kind == "rt":
            schema.update(_RT_STATE_SCHEMA)
        elif state_kind == "expressions":
            for k in _EXPR_STATE_KEYS:
                schema[k] = (_as_expr, None)
            schema["front.phi"] = (_as_expr, Expression.compile("0"))
            schema["front.dt_phi"] = (_as_expr, Expression.compile("0"))
        else:
            raise ConfigError(
                "state.kind must be one of constant, rt, expressions"
            )

    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for scenario {kind}")
    for key, (conv, default) in schema.items():
        if key in raw:
            values[key] = conv(key, raw[key])
        elif default is None:
            raise ConfigError(f"missing required key {key!r} for scenario {kind}")
        else:
            values[key] = default
    return ScenarioConfig(kind=kind, values=values, raw=raw)
