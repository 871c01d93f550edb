import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_stab.cli import main
from contact_stab.config import (
    ConfigError,
    Expression,
    ScenarioConfig,
    SCENARIO_KINDS,
    apply_overrides,
    parse_config,
    read_raw_config,
)


class TestExpression:
    @pytest.mark.parametrize("text,want", [
        ("2+3*4^2", 50.0),
        ("2+3*4**2", 50.0),          # ** is a synonym for ^
        ("-2^2", -4.0),              # unary minus binds looser than power
        ("2^-1", 0.5),               # exponent may itself be signed
        ("(2+3)*4", 20.0),
        ("10/4", 2.5),
        ("1 - 2 - 3", -4.0),         # left associative
        ("pi", math.pi),
        ("e", math.e),
        ("+5", 5.0),
    ])
    def test_constant_values(self, text, want):
        assert Expression.compile(text)() == pytest.approx(want, rel=1e-15)

    def test_variables_and_functions(self):
        f = Expression.compile("sin(x2) * exp(-x1) + cos(t)")
        assert f(t=0.0, x1=0.0, x2=0.0) == pytest.approx(1.0)
        assert f(t=np.pi / 2, x1=1.0, x2=np.pi / 2) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_vectorized_evaluation(self):
        f = Expression.compile("x1^2 + 2*x2")
        x1 = np.linspace(0.0, 1.0, 7)
        x2 = np.linspace(-1.0, 1.0, 7)
        assert np.allclose(f(x1=x1, x2=x2), x1 ** 2 + 2 * x2)

    def test_text_round_trip(self):
        f = Expression.compile("  1 + x1 ")
        assert f.text == "1 + x1"

    @pytest.mark.parametrize("bad,msg", [
        pytest.param("1 +", "syntax error in expression .*: invalid syntax", id="1 +-syntax"),
        pytest.param("2 3", "syntax error in expression .*: invalid syntax", id="2 3-syntax"),
        ("sin(1", "never closed"),
        ("foo(1)", "unknown function"),
        ("x3", "unknown name"),
        ("1 @ 2", "unsupported operator"),
        ("(1+2", "never closed"),
    ])
    def test_parse_errors_name_the_problem(self, bad, msg):
        with pytest.raises(ConfigError, match=msg):
            Expression.compile(bad)

    @pytest.mark.parametrize("bad", [
        "x1.real", "x1[0]", "1 < 2", "sin(1, 2)", "sin(x=1)", "(sin)(1)", "1j", "'a'", "True",
        "0x10", "1_0", "lambda: 1", "1 if 1 else 2", "__import__('os')", "1 # comment",
    ])
    def test_python_beyond_the_grammar_is_rejected(self, bad):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            Expression.compile(bad)

    def test_numbers_are_floats(self):
        # 3 ** 34 in integers rounds to a float one ulp away from 3.0 ** 34.0
        v = Expression.compile("3^34")()
        assert type(v) is np.float64 and v == 3.0 ** 34.0 and v != float(3 ** 34)
        assert Expression.compile("2^3^2")() == 512.0
        assert Expression.compile("-2^-2")() == -0.25
        assert Expression.compile("007 + 1e007")() == 7.0 + 1e7

    @pytest.mark.parametrize("text,want", [
        ("1 + 0*(1/0)", np.nan),
        ("10^400", np.inf),
        ("(-1)^0.5", np.nan),
        ("-1/(t - t)", -np.inf),
    ])
    def test_variable_free_parts_follow_numpy(self, text, want):
        # no ZeroDivisionError, OverflowError or complex result, as on a grid
        with np.errstate(all="ignore"):
            v = Expression.compile(text)(t=0.5)
        assert type(v) is np.float64 and np.array_equal(v, want, equal_nan=True)

    def test_nesting_is_bounded(self):
        assert Expression.compile("-" * 100 + "1")() == 1.0
        assert Expression.compile("+".join(["1"] * 101))() == 101.0
        for deep in ["-" * 101 + "1", "+".join(["1"] * 102), "-" * 5000 + "0",
                     "2" + "^2" * 3000, "(" * 300 + "1" + ")" * 300]:
            with pytest.raises(ConfigError, match="nested"):
                Expression.compile(deep)

    @given(st.recursive(
        st.one_of(st.sampled_from(["t", "x1", "x2", "pi", "e"]),
                  st.integers(0, 12).map(str),
                  st.floats(0.0, 1e3).map(repr)),
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^", "**"]), kids, kids),
            st.tuples(st.sampled_from(["-", "+", "sin", "exp", "sqrt", "log", "abs"]), kids)),
        max_leaves=12))
    @settings(max_examples=200, deadline=None)
    def test_parenthesized_trees_match_numpy(self, tree):
        env = {"t": np.float64(0.7), "x1": np.linspace(-2.0, 3.0, 9),
               "x2": np.linspace(0.1, 6.0, 9), "pi": np.float64(math.pi), "e": np.float64(math.e)}
        binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
                  "^": operator.pow, "**": operator.pow}
        unary = {"-": operator.neg, "+": operator.pos, "sin": np.sin, "exp": np.exp,
                 "sqrt": np.sqrt, "log": np.log, "abs": np.abs}

        def render(node):
            if isinstance(node, str):
                return node
            if len(node) == 3:
                return f"({render(node[1])}){node[0]}({render(node[2])})"
            return f"{node[0]}({render(node[1])})"

        def direct(node):
            if isinstance(node, str):
                return env[node] if node in env else np.float64(node)
            if len(node) == 3:
                return binary[node[0]](direct(node[1]), direct(node[2]))
            return unary[node[0]](direct(node[1]))

        f = Expression.compile(render(tree))
        with np.errstate(all="ignore"):
            want = direct(tree)
            got = f(t=env["t"], x1=env["x1"], x2=env["x2"])
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)


class TestRawConfig:
    def test_sections_comments_and_blanks(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text(
            "# header comment\n"
            "\n"
            "grid.N1 = 32   # trailing comment\n"
            "state.p = 1.5\n"
        )
        raw = read_raw_config(str(p))
        assert raw == {"grid.N1": "32", "state.p": "1.5"}

    def test_syntax_error_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid.N1 = 32\nnot a config line\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            read_raw_config(str(p))

    def test_malformed_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("justakey = 1\n")
        with pytest.raises(ConfigError, match="malformed key"):
            read_raw_config(str(p))

    def test_empty_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid.N1 =   # nothing here\n")
        with pytest.raises(ConfigError, match="empty value"):
            read_raw_config(str(p))

    def test_empty_override_rejected_like_an_empty_line(self):
        with pytest.raises(ConfigError, match="override 'run.out=': empty value for run.out"):
            apply_overrides({}, ["run.out="])

    def test_duplicate_key_names_both_lines(self, tmp_path):
        p = tmp_path / "dup.cfg"
        p.write_text("grid.N1 = 32\nstate.p = 1.5\ngrid.N1 = 64\n")
        with pytest.raises(ConfigError,
                           match=r"dup\.cfg:3: duplicate key grid\.N1 \(first set on line 1\)"):
            read_raw_config(str(p))


class TestOverrides:
    def test_override_replaces_and_adds(self):
        raw = apply_overrides({"grid.N1": "32"}, ["grid.N1=64", "run.seed=7"])
        assert raw == {"grid.N1": "64", "run.seed": "7"}

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="must look like"):
            apply_overrides({}, ["grid.N1"])
        with pytest.raises(ConfigError, match="malformed"):
            apply_overrides({}, ["grid=1"])


class TestParseConfig:
    def test_defaults_fill_missing_keys(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.N1 = 24\n")
        cfg = parse_config(str(p), "energy-test")
        assert cfg["grid.N1"] == 24
        assert cfg["grid.N2"] == 96            # schema default
        assert cfg["run.report_every"] == 5   # schema default
        assert cfg.kind == "energy-test"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.N1 = 24\nnosuch.key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(str(p), "energy-test")

    def test_rt_run_snapshot_every_is_an_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("run.snapshot_every = 4\n")
        assert main(["rt-run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'run.snapshot_every'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_kind_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.N1 = 24\n")
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            parse_config(str(p), "no-such-kind")

    def test_semantic_error_names_the_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.N1 = -3\n")
        with pytest.raises(ConfigError, match="grid.N1 must be positive"):
            parse_config(str(p), "energy-test")

    @pytest.mark.parametrize("key", ["grid.N1", "grid.N2"])
    def test_grid_below_four_nodes_rejected(self, tmp_path, key):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = 3\n")
        with pytest.raises(ConfigError, match=f"{key} must be at least 4, got 3"):
            parse_config(str(p), "energy-test")

    @pytest.mark.parametrize("kind,key", [("mms", "mms.refinements"),
                                          ("neutral-mode", "neutral.refinements")])
    def test_refinement_entry_below_four_nodes_rejected(self, tmp_path, kind, key):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = 17, 3, 33\n")
        with pytest.raises(ConfigError, match=f"{key} entries must be at least 4, got 3"):
            parse_config(str(p), kind)

    @pytest.mark.parametrize("kind,key", [("mms", "mms.refinements"),
                                          ("neutral-mode", "neutral.refinements")])
    def test_single_refinement_rejected(self, tmp_path, kind, key):
        # one size, or one size given twice, leaves no step to fit an order to
        p = tmp_path / "c.cfg"
        for sizes, match in (("33", f"{key} needs at least 2 grid sizes"),
                             ("17, 17", f"{key} entries must be distinct, got 17 twice")):
            p.write_text(f"{key} = {sizes}\n")
            with pytest.raises(ConfigError, match=match):
                parse_config(str(p), kind)

    def test_type_error_names_the_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("run.epsilon = banana\n")
        with pytest.raises(ConfigError, match="run.epsilon must be a number"):
            parse_config(str(p), "energy-test")

    def test_expression_state_requires_all_components(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("state.kind = expressions\nstate.p_plus = 1\n")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(str(p), "validate-state")

    def test_expression_state_compiles_fields(self, tmp_path):
        lines = ["state.kind = expressions"]
        for side in ("plus", "minus"):
            lines += [
                f"state.p_{side} = 1",
                f"state.v1_{side} = 0",
                f"state.v2_{side} = 0.2",
                f"state.H1_{side} = 1",
                f"state.H2_{side} = 0.1*exp(-x1)",
                f"state.S_{side} = 0.1",
            ]
        lines.append("front.phi = 0.2*cos(x2)")
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(lines) + "\n")
        cfg = parse_config(str(p), "validate-state")
        assert isinstance(cfg["state.H2_plus"], Expression)
        assert cfg["front.phi"](x2=0.0) == pytest.approx(0.2)
        assert cfg["front.dt_phi"](x2=1.3) == 0.0  # default

    def test_overrides_reach_parsed_values(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.N1 = 24\n")
        cfg = parse_config(str(p), "energy-test", overrides=["grid.N1=48"])
        assert cfg["grid.N1"] == 48

    def test_echo_lines_round_trip_readable(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("grid.X1 = 3\n")
        cfg = parse_config(str(p), "mms")
        lines = cfg.echo_lines()
        assert lines[0] == "scenario = mms"
        assert any(line.startswith("mms.refinements = 33,65,129") for line in lines)

    def test_shipped_configs_parse(self):
        pairs = [
            ("configs/validate_constant.cfg", "validate-state"),
            ("configs/validate_rt.cfg", "validate-state"),
            ("configs/spectrum.cfg", "spectrum"),
            ("configs/energy_test.cfg", "energy-test"),
            ("configs/neutral_mode.cfg", "neutral-mode"),
            ("configs/rt_stable.cfg", "rt-run"),
            ("configs/rt_violated.cfg", "rt-run"),
            ("configs/eps_sweep.cfg", "eps-sweep"),
            ("configs/adjoint_check.cfg", "adjoint-check"),
            ("configs/mms.cfg", "mms"),
        ]
        for path, kind in pairs:
            cfg = parse_config(path, kind)
            assert isinstance(cfg, ScenarioConfig)
            assert kind in SCENARIO_KINDS
