"""What `run_rules` accepts as an enabled set, and the integer model it checks under."""
import pytest

from ccomply.errors import ConfigError
from ccomply.frontend import preprocess
from ccomply.parsing import parse
from ccomply.rules import (
    IMPLEMENTED, REGISTRY, Certainty, Kind, Scope, compute_tu_facts, context, engine,
    run_rules,
)
from ccomply.sema import IntegerModel, resolve
from ccomply.sema.typesys import DEFAULT_MODEL
from rule_helpers import run_rule_full
from support import make_manager


def facts_of(text, model=DEFAULT_MODEL):
    """The TU's facts, with the model passed to `resolve` only."""
    mgr, entry = make_manager({"t.c": text})
    tokens, _, _ = preprocess(entry, [], [], mgr)
    tu = parse(tokens, "t.c")
    return compute_tu_facts(tu, resolve(tu, model), mgr), mgr


class TestEnabledSet:
    def test_id_that_names_no_guideline_is_rejected(self):
        _, facts = run_rule_full("int x;\n", "R14.2")
        with pytest.raises(ConfigError, match=r"not a MISRA C:2012 guideline id: R9\.l$"):
            run_rules([facts], {"R9.l"})

    def test_guideline_without_a_checker_is_rejected(self):
        _, facts = run_rule_full("int x;\n", "R14.2")
        with pytest.raises(ConfigError, match=r"this tool does not check: R15\.1$"):
            run_rules([facts], {"R15.1"})

    def test_every_unchecked_id_is_named_even_beside_checked_ones(self):
        with pytest.raises(ConfigError) as exc:
            run_rules([], {"R12.2", "R15.1", "D4.1", "R9.l"})
        assert str(exc.value) == (
            "MISRA guideline(s) this tool does not check: D4.1, R15.1; "
            "not a MISRA C:2012 guideline id: R9.l"
        )

    def test_system_rule_still_needs_the_call_graph(self):
        with pytest.raises(ConfigError, match="call graph: R17.2"):
            run_rules([], {"R17.2"})

    def test_implemented_is_the_checker_tables(self):
        assert IMPLEMENTED == set(engine.PER_TU_CHECKERS) | set(engine.SYSTEM_CHECKERS)
        assert len(IMPLEMENTED) == 14
        assert all(gid in REGISTRY and REGISTRY[gid].kind is Kind.RULE for gid in IMPLEMENTED)
        assert all(REGISTRY[gid].scope is Scope.SYSTEM for gid in engine.SYSTEM_CHECKERS)


class TestIntegerModel:
    SHIFT = "int f(int x) { return x << 20; }\n"
    BRANCH = "int g(int x) { if (x > 0) { return 1; } return 0; }\n"

    def test_model_given_to_resolve_reaches_the_checkers(self, monkeypatch):
        model = IntegerModel(int_bits=16, long_bits=32, long_long_bits=64)
        facts, mgr = facts_of(self.SHIFT + self.BRANCH, model)
        assert facts.model is model
        # Every analysis that takes a model gets the TU's, during the call.
        seen = []
        for name in ("build_cfg", "interval_analysis"):
            def recorded(target, analysis_model, _name=name, _real=getattr(context, name)):
                seen.append((_name, analysis_model))
                return _real(target, analysis_model)

            monkeypatch.setattr(context, name, recorded)
        (finding,) = run_rules([facts], {"R12.2", "R14.3"}, manager=mgr)
        assert {name for name, _ in seen} == {"build_cfg", "interval_analysis"}
        assert all(m is model for _, m in seen)
        assert finding.certainty is Certainty.DEFINITE
        assert "outside the legal range [0, 15]" in finding.message

    def test_default_model_allows_the_same_shift(self):
        facts, mgr = facts_of(self.SHIFT)
        assert run_rules([facts], {"R12.2"}, manager=mgr) == []
