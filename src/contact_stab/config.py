"""Structured-text configs and closed-form field expressions.

Config files are flat `section.key = value` lines with `#` comments.  Values
are numbers, booleans, words, comma-separated lists, or expressions in (t, x1,
x2) read by `ast.parse` and checked node by node (functions sin, cos, exp,
tanh, sqrt, log, abs; constants pi, e; + - * / and ^ or **).  Every scenario
kind declares its schema; unknown keys and missing required keys are rejected
before any compute, with errors naming the offending key or line.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import MIN_NODES


class ConfigError(ValueError):
    pass


# --- expression parser ------------------------------------------------------

_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_VARIABLES = ("t", "x1", "x2")

_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_MAX_DEPTH = 100


def _build(node, src: str, text: str, depth: int = 0):
    """Closure env -> value of an ast node of the grammar, else a ConfigError."""
    if depth > _MAX_DEPTH:
        raise ConfigError(f"expression {text!r} is nested deeper than {_MAX_DEPTH}")
    sub = functools.partial(_build, src=src, text=text, depth=depth + 1)
    if isinstance(node, ast.Constant):
        literal = ast.get_source_segment(src, node)
        if not _NUMBER_RE.fullmatch(literal):
            raise ConfigError(f"unsupported literal {literal} in expression {text!r}")
        value = np.float64(literal)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in _CONSTANTS and node.id not in _VARIABLES:
            raise ConfigError(f"unknown name {node.id!r} in expression {text!r}")
        return operator.itemgetter(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = sub(node.operand)
        return operand if isinstance(node.op, ast.UAdd) else lambda env: -operand(env)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, left, right = _BINARY[type(node.op)], sub(node.left), sub(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ConfigError(f"unknown function {name!r} in expression {text!r}")
        # one positional argument, and a bare name: `sin(x1)`, not `(sin)(x1)`
        if len(node.args) != 1 or node.keywords or node.func.col_offset != node.col_offset:
            raise ConfigError(f"call {name} as {name}(argument) in expression {text!r}")
        fn, arg = _FUNCTIONS[name], sub(node.args[0])
        return lambda env: fn(arg(env))
    what = f"operator {type(node.op).__name__}" if hasattr(node, "op") else type(node).__name__
    raise ConfigError(f"unsupported {what} in expression {text!r}")


@dataclass(frozen=True)
class Expression:
    """Compiled closed-form scalar field of (t, x1, x2)."""

    text: str
    _fn: Callable = field(repr=False, compare=False, default=None)

    @staticmethod
    def compile(text: str) -> "Expression":
        text = text.strip()
        # in Python's spelling ^ is **, and a decimal literal has no leading zeros
        src = re.sub(r"(?<![\w.])0+(?=\d)", "", " ".join(text.split()).replace("^", "**"))
        if "#" in src or not (src.isascii() and src.isprintable()):
            raise ConfigError(f"unexpected character in expression {text!r}")
        try:
            tree = ast.parse(src, mode="eval")
        except SyntaxError as exc:
            raise ConfigError(f"syntax error in expression {text!r}: {exc.msg}") from None
        except (RecursionError, MemoryError):
            raise ConfigError(f"expression {text!r} is nested deeper than {_MAX_DEPTH}") from None
        return Expression(text=text, _fn=_build(tree.body, src, text))

    def __call__(self, t=0.0, x1=0.0, x2=0.0):
        # every leaf is numpy, so 1/0 is inf and (-1)^0.5 is nan, as on a grid
        env = {name: np.float64(v) if np.ndim(v) == 0 else v
               for name, v in (("t", t), ("x1", x1), ("x2", x2))}
        return self._fn({**_CONSTANTS, **env})


# --- config file parsing ----------------------------------------------------

_KEY_RE = re.compile(r"[A-Za-z_]\w*\.[A-Za-z_]\w*")


def _entry(text: str, where: str) -> tuple[str, str]:
    """(key, value) of one `section.key = value` entry of a file or an override."""
    key, eq, value = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: must look like section.key = value")
    if not _KEY_RE.fullmatch(key):
        raise ConfigError(f"{where}: malformed key {key!r}")
    if not value:
        raise ConfigError(f"{where}: empty value for {key}")
    return key, value


def read_raw_config(path: str) -> dict[str, str]:
    """section.key -> raw value string, with syntax errors by line number."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, value = _entry(text, f"{path}:{lineno}")
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
        key, value = _entry(ov, f"override {ov!r}")
        out[key] = value
    return out


# value converters ------------------------------------------------------------


def _as_float(key, text):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return v


def _as_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _bounded(conv, ok, bound: str):
    """The converter conv with a ConfigError naming the key for a value that fails ok."""
    def parse(key, text):
        v = conv(key, text)
        if not ok(v):
            raise ConfigError(f"{key} must be {bound}, got {v}")
        return v
    return parse


_as_posfloat = _bounded(_as_float, lambda v: v > 0, "positive")
_as_nonneg = _bounded(_as_float, lambda v: v >= 0, "nonnegative")
_as_posint = _bounded(_as_int, lambda v: v > 0, "positive")
_as_grid_size = _bounded(_as_posint, lambda v: v >= MIN_NODES, f"at least {MIN_NODES}")


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
    """Grid sizes of a convergence study: at least two, each a valid grid,
    and no size twice, which would fit an order to a zero step."""
    sizes = _as_int_list(key, text)
    if len(sizes) < 2:
        raise ConfigError(f"{key} needs at least 2 grid sizes to fit an order, got {len(sizes)}")
    small = [n for n in sizes if n < MIN_NODES]
    if small:
        raise ConfigError(f"{key} entries must be at least {MIN_NODES}, got {small[0]}")
    repeated = [n for i, n in enumerate(sizes) if n in sizes[:i]]
    if repeated:
        raise ConfigError(f"{key} entries must be distinct, got {repeated[0]} twice")
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

# a convergence study's sizes come from its refinements, so it has the domain alone
_DOMAIN_SCHEMA = {
    "grid.X1": (_as_posfloat, 6.0),
    "grid.X2": (_as_posfloat, 2.0 * math.pi),
}

_GRID_SCHEMA = {
    "grid.N1": (_as_grid_size, 96),
    "grid.N2": (_as_grid_size, 96),
    **_DOMAIN_SCHEMA,
}

# the keys of every run in time; each kind adds run.epsilon and run.seed if it reads them
_RUN_SCHEMA = {
    "grid.cfl_max": (_as_posfloat, 0.4),
    "run.T_final": (_as_nonneg, 1.0),
}
_EPSILON_SCHEMA = {"run.epsilon": (_as_nonneg, 1e-3)}
_SEED_SCHEMA = {"run.seed": (_as_int, 0)}

_PHYSICS_SCHEMA = {
    "physics.gamma": (_as_posfloat, 5.0 / 3.0),
}

# the keys a constant and an RT background share: the contact's velocity, field and entropies
_CONTACT_SCHEMA = {
    "state.v2": (_as_float, 0.0),
    "state.H1": (_as_float, 1.0),
    "state.H2": (_as_float, 0.3),
    "state.S_plus": (_as_float, 0.2),
    "state.S_minus": (_as_float, -0.1),
}

_CONSTANT_STATE_SCHEMA = {"state.p": (_as_posfloat, 1.0), **_CONTACT_SCHEMA}

_RT_STATE_SCHEMA = {
    "state.p0": (_as_posfloat, 1.0),
    "state.rt_jump": (_as_float, 0.5),
    **_CONTACT_SCHEMA,
}

_EXPR_STATE_SCHEMA = {
    **{f"state.{comp}_{side}": (_as_expr, None)
       for side in ("plus", "minus") for comp in ("p", "v1", "v2", "H1", "H2", "S")},
    "front.phi": (_as_expr, Expression.compile("0")),
    "front.dt_phi": (_as_expr, Expression.compile("0")),
}

# validate-state's state.kind -> the keys of its background
_STATE_KIND_SCHEMAS = {
    "constant": _CONSTANT_STATE_SCHEMA,
    "rt": _RT_STATE_SCHEMA,
    "expressions": _EXPR_STATE_SCHEMA,
}

SCENARIO_SCHEMAS: dict[str, dict] = {
    "validate-state": {
        **_GRID_SCHEMA, **_PHYSICS_SCHEMA,
        "state.kind": (_as_word, "constant"),
        "tolerance.validate": (_as_posfloat, 1e-8),
    },
    "spectrum": {
        **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "spectral.eta_min": (_as_posfloat, 0.05),
        "spectral.eta_max": (_as_posfloat, 2.0),
        "spectral.xi_min": (_as_float, -2.0),
        "spectral.xi_max": (_as_float, 2.0),
        "spectral.n_eta": (_as_posint, 40),
        "spectral.n_xi": (_as_posint, 40),
        "spectral.omega2": (_as_float, 1.0),
    },
    "energy-test": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_EPSILON_SCHEMA, **_SEED_SCHEMA,
        **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "pulse.center": (_as_posfloat, 2.0),
        "pulse.width": (_as_posfloat, 0.35),
        "pulse.k2": (_as_posint, 2),
        "pulse.amplitude": (_as_posfloat, 1.0),
        "run.report_every": (_as_posint, 5),
    },
    "neutral-mode": {
        **_DOMAIN_SCHEMA, **_RUN_SCHEMA, **_EPSILON_SCHEMA,
        **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "neutral.omega2": (_as_posint, 2),
        "neutral.refinements": (_as_refinements, [33, 65, 129]),
    },
    "rt-run": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_EPSILON_SCHEMA, **_SEED_SCHEMA,
        **_PHYSICS_SCHEMA, **_RT_STATE_SCHEMA,
        "forcing.amplitude": (_as_posfloat, 1.0),
        "forcing.t_ramp": (_as_posfloat, 0.2),
        "forcing.k2": (_as_posint, 2),
        "run.report_every": (_as_posint, 5),
    },
    "eps-sweep": {
        **_GRID_SCHEMA, **_RUN_SCHEMA, **_SEED_SCHEMA,
        **_PHYSICS_SCHEMA, **_RT_STATE_SCHEMA,
        "sweep.eps_list": (_as_eps_list, [1e-1, 5e-2, 2.5e-2, 1.25e-2]),
        "forcing.amplitude": (_as_posfloat, 1.0),
        "forcing.t_ramp": (_as_posfloat, 0.2),
        "forcing.k2": (_as_posint, 2),
    },
    "adjoint-check": {
        **_GRID_SCHEMA, **_SEED_SCHEMA, **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
        "run.epsilon": (_as_nonneg, 1e-2),
        "adjoint.trials": (_as_posint, 20),
    },
    "mms": {
        **_DOMAIN_SCHEMA, **_RUN_SCHEMA, **_EPSILON_SCHEMA,
        **_PHYSICS_SCHEMA, **_CONSTANT_STATE_SCHEMA,
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

    def __getitem__(self, key):
        return self.values[key]

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
        if state_kind not in _STATE_KIND_SCHEMAS:
            raise ConfigError(f"state.kind must be one of {', '.join(_STATE_KIND_SCHEMAS)}")
        schema.update(_STATE_KIND_SCHEMAS[state_kind])

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
    return ScenarioConfig(kind=kind, values=values)
