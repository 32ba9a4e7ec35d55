import random

import pytest

from pathcheck import campaign
from pathcheck.campaign import (
    ALPHABET,
    CampaignConfig,
    case_seed,
    minimize,
    random_formula,
    random_trace,
    run_campaign,
    run_case,
    _spans,
)
from pathcheck.errors import PathcheckError
from pathcheck.formula import Until, parse, size
from pathcheck.semantics import eval_seq
from pathcheck.trace import Trace, make_trace

SMALL = CampaignConfig(cases=60, max_size=10, max_len=12, max_bound=4, seed=7)


class TestGenerators:
    def test_case_seed_is_injective_per_campaign(self):
        seeds = {case_seed(s, i) for s in range(3) for i in range(1000)}
        assert len(seeds) == 3000

    def test_formula_size_within_budget(self):
        rng = random.Random(1)
        for _ in range(300):
            budget = rng.randrange(1, 25)
            f = random_formula(rng, budget, max_bound=10)
            assert 1 <= size(f) <= budget

    def test_formula_atoms_in_alphabet(self):
        rng = random.Random(2)
        from pathcheck.formula import atom_names

        for _ in range(100):
            f = random_formula(rng, 15, max_bound=5)
            assert atom_names(f) <= set(ALPHABET)

    def test_trace_length_within_cap(self):
        rng = random.Random(3)
        for _ in range(100):
            tr = random_trace(rng, 9)
            assert 1 <= len(tr) <= 9
            assert tr.alphabet == ALPHABET

    def test_same_seed_same_case(self):
        rng1 = random.Random(case_seed(5, 17))
        rng2 = random.Random(case_seed(5, 17))
        f1 = random_formula(rng1, 20, 10)
        f2 = random_formula(rng2, 20, 10)
        assert f1 == f2
        assert random_trace(rng1, 50) == random_trace(rng2, 50)


class TestRunCase:
    def test_agreeing_case_payload(self):
        payload, failure = run_case(SMALL, 0)
        assert failure is None
        assert payload.endswith(b"\xff")
        assert set(payload[:-1]) <= {0, 1}

    def test_payload_encodes_sequence(self):
        rng = random.Random(case_seed(SMALL.seed, 3))
        f = random_formula(rng, SMALL.max_size, SMALL.max_bound)
        tr = random_trace(rng, SMALL.max_len)
        payload, failure = run_case(SMALL, 3)
        assert failure is None
        want = bytes(1 if b else 0 for b in eval_seq(tr, f)) + b"\xff"
        assert payload == want

    def test_deterministic(self):
        assert run_case(SMALL, 11) == run_case(SMALL, 11)


class TestRunCampaign:
    def test_small_campaign_passes(self):
        result = run_campaign(SMALL)
        assert result.ok
        assert result.total == 60
        assert result.failure_count == 0
        assert result.payload.count(b"\xff") >= 60
        assert len(result.digest) == 64

    def test_processes_do_not_change_payload(self):
        one = run_campaign(SMALL, processes=1)
        many = run_campaign(SMALL, processes=3)
        assert one.payload == many.payload
        assert one.digest == many.digest

    def test_long_trace_tier(self):
        # traces of up to 20000 states: the oracle must stay linear in n
        cfg = CampaignConfig(cases=40, max_size=30, max_len=20_000, max_bound=27, seed=3)
        one = run_campaign(cfg, processes=1)
        two = run_campaign(cfg, processes=2)
        assert one.ok and two.ok
        assert one.digest == two.digest
        assert one.elapsed + two.elapsed < 30, f"{one.elapsed:.1f}s + {two.elapsed:.1f}s"

    @pytest.mark.parametrize("processes", [1, 3])
    def test_slowest_cases(self, processes):
        result = run_campaign(SMALL, processes=processes)
        assert len(result.slowest) == 5
        seconds = [sec for sec, _ in result.slowest]
        assert seconds == sorted(seconds, reverse=True) and seconds[-1] > 0
        indices = [i for _, i in result.slowest]
        assert len(set(indices)) == 5 and all(0 <= i < SMALL.cases for i in indices)
        assert result.cases_per_s == pytest.approx(SMALL.cases / result.elapsed)

    def test_slowest_cases_fewer_than_five(self):
        result = run_campaign(CampaignConfig(cases=3, max_size=6, max_len=6, seed=1))
        assert sorted(i for _, i in result.slowest) == [0, 1, 2]

    def test_rejects_bad_processes(self):
        with pytest.raises(PathcheckError, match="processes"):
            run_campaign(SMALL, processes=0)

    def test_failure_reported(self, monkeypatch):
        # force the engine to lie about one specific case
        real_check = campaign.check

        def lying_check(f, tr, engine="circuit", record=None):
            res = real_check(f, tr, engine=engine, record=record)
            flipped = res.sequence.copy()
            flipped[0] = not flipped[0]
            return type(res)(bool(flipped[0]), flipped)

        monkeypatch.setattr(campaign, "check", lying_check)
        result = run_campaign(CampaignConfig(cases=5, max_size=6, max_len=6, seed=1))
        assert not result.ok
        assert result.failure_count == 5
        first = result.failures[0]
        assert first.index == 0
        assert first.got == (not first.expected[0],) + first.expected[1:]

    def test_engine_error_is_a_failure(self, monkeypatch):
        def crashing_check(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign, "check", crashing_check)
        result = run_campaign(CampaignConfig(cases=3, max_size=6, max_len=6, seed=1))
        assert not result.ok
        assert result.failure_count == 3
        assert result.payload == b"\xfe\xff" * 3
        assert "RuntimeError" in result.failures[0].got

    def test_keep_failures_cap(self, monkeypatch):
        monkeypatch.setattr(
            campaign, "check", lambda *a, **k: (_ for _ in ()).throw(RuntimeError())
        )
        result = run_campaign(
            CampaignConfig(cases=30, max_size=6, max_len=6, seed=1), keep_failures=4
        )
        assert result.failure_count == 30
        assert len(result.failures) == 4


class TestSpans:
    def test_covers_everything_once(self):
        for cases in (1, 2, 7, 100, 10_000):
            for processes in (1, 2, 4, 8):
                spans = _spans(cases, processes)
                covered = [i for lo, hi in spans for i in range(lo, hi)]
                assert covered == list(range(cases))

    def test_splits_into_multiple_jobs(self):
        assert len(_spans(10_000, 4)) > 4


class TestMinimize:
    def test_returns_input_when_agreeing(self):
        tr = make_trace([{"a"}, set()], ["a", "b"])
        f = parse("a U b")
        assert minimize(f, tr) == (f, tr)

    def test_shrinks_to_culprit(self, monkeypatch):
        # pretend the engine is broken exactly on Until nodes
        def fake_disagrees(f, tr):
            return isinstance(f, Until)

        monkeypatch.setattr(campaign, "_disagrees", fake_disagrees)
        states = [set() for _ in range(16)]
        tr = make_trace(states, list(ALPHABET))
        small_f, small_tr = minimize(parse("(a U b) & (c | d)").left, tr)
        assert isinstance(small_f, Until)
        assert size(small_f) == 3
        assert len(small_tr) == 1
        # recursion: a disagreeing Until inside a disagreeing Until
        small_f2, _ = minimize(parse("(a U b) U (c & d)"), tr)
        assert small_f2 == parse("a U b")

    def test_real_shrink_on_injected_fault(self, monkeypatch):
        # make the circuit engine ignore Until’s left operand by routing the
        # builder to Release instead; minimize must still end on a disagreeing pair
        import pathcheck.builder as builder_mod

        real = builder_mod.build_unbounded

        def wrong(n, op, known_side, known):
            if op == "U":
                op = "R"
            return real(n, op, known_side, known)

        monkeypatch.setattr(builder_mod, "build_unbounded", wrong)
        f = parse("(a U b) | (a U b)")
        states = [{"a"}, {"a"}, {"b"}, set()] * 3
        tr = make_trace(states, list(ALPHABET))
        assert campaign._disagrees(f, tr)
        small_f, small_tr = minimize(f, tr)
        assert campaign._disagrees(small_f, small_tr)
        assert size(small_f) <= size(f)
        assert len(small_tr) <= len(tr)
