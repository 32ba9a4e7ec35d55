import dataclasses
import multiprocessing
import os
import random

import pytest

from pathcheck import campaign
from pathcheck.campaign import (
    ALPHABET,
    KEEP_FAILURES,
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
from pathcheck.formula import Until, parse
from pathcheck.semantics import eval_seq
from pathcheck.trace import Trace, make_trace

from test_formula import fold_size as size

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

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_chunked_draws_are_one_draw(self, monkeypatch, chunk):
        # drawing in chunks of whole 64-bit words gives the bits and the
        # generator state of one draw; the real chunk size only matters for
        # traces too long to draw in a test
        plain = [random.Random(seed) for seed in range(40)]
        expected = [(random_trace(rng, 70), rng.getstate()) for rng in plain]
        monkeypatch.setattr(campaign, "MAX_DRAW_WORDS", chunk)
        chunked = [random.Random(seed) for seed in range(40)]
        assert [(random_trace(rng, 70), rng.getstate()) for rng in chunked] == expected

    def test_trace_matches_per_cell_draws(self):
        # cell (i, p) is the (i * len(alphabet) + p)-th `random() < 0.5`, and
        # the generator ends in the same state as after those draws
        for seed in range(150):
            for max_len in (1, 2, 3, 17, 130):
                for alphabet in (("a",), ALPHABET):
                    want_rng, rng = random.Random(seed), random.Random(seed)
                    n = want_rng.randint(1, max_len)
                    want = [[want_rng.random() < 0.5 for _ in alphabet] for _ in range(n)]
                    tr = random_trace(rng, max_len, alphabet)
                    assert tr.columns.T.tolist() == want
                    assert rng.random() == want_rng.random()

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

    @pytest.mark.parametrize(
        "cases,max_len,seed,digest",
        [
            (400, 50, 1, "83a673fdfcf17268445d4a465912ebb753d5f12131268b7df560bdcb0145a76e"),
            (400, 50, 7, "b591707655a81c6527feb7c196cbaea5efa6c8fdbf0c0d465e4f9fdc1ff366af"),
            (400, 50, 42, "aea53e296eba2cf05b76c2890f137ef328accfed5c81eab057e487ca96542ef6"),
            (40, 3000, 1, "102dd5253d16372ded91c28e67cbee657379f5a3512567e77291e505b764c7bf"),
            (40, 3000, 7, "560885cf75f2a432a54af9e58658d1751a1efd42c8dc522c281280c78bc0c34f"),
            (40, 3000, 42, "620daa4a16b8cb5e5f0adbef15e42b8afb70f0c009dcdb80d72da5f60d1c3c36"),
        ],
        ids=lambda v: str(v)[:8],
    )
    def test_golden_digest(self, cases, max_len, seed, digest):
        # verdicts for fixed seeds, short and long traces: no change to the
        # trace generator or the row kernels may move them
        result = run_campaign(CampaignConfig(cases=cases, max_len=max_len, seed=seed))
        assert result.ok
        assert result.digest == digest

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

    @pytest.mark.parametrize(
        "changes,processes,match",
        [
            ({}, 0, "processes"),
            ({"cases": 0}, 1, "cases"),
            ({"cases": -3}, 1, "cases"),
            ({"max_len": 0}, 2, "max_len"),
            ({"max_bound": -1}, 2, "max_bound"),
            ({"max_size": -5}, 1, "max_size"),
            ({"max_size": 0}, 1, "max_size"),
        ],
        ids=["processes", "no-cases", "negative-cases", "max-len", "max-bound",
             "negative-max-size", "no-max-size"],
    )
    def test_rejects_bad_config(self, changes, processes, match):
        with pytest.raises(PathcheckError, match=match):
            run_campaign(dataclasses.replace(SMALL, **changes), processes=processes)

    def test_pool_no_larger_than_jobs(self, monkeypatch):
        fork = multiprocessing.get_context("fork")
        sizes = []

        class Recording:
            def Pool(self, processes, **kwargs):
                sizes.append(processes)
                return fork.Pool(processes, **kwargs)

        monkeypatch.setattr(campaign.multiprocessing, "get_context", lambda method: Recording())
        cfg = CampaignConfig(cases=2, max_size=6, max_len=6, seed=4)
        pooled = run_campaign(cfg, processes=4)
        assert sizes == [2]
        assert pooled.digest == run_campaign(cfg, processes=1).digest

    def test_pool_no_larger_than_cpu_count(self, monkeypatch):
        fork = multiprocessing.get_context("fork")
        sizes = []

        class Recording:
            def Pool(self, processes, **kwargs):
                sizes.append(processes)
                return fork.Pool(processes, **kwargs)

        monkeypatch.setattr(campaign.multiprocessing, "get_context", lambda method: Recording())
        cpus = os.cpu_count() or 1
        processes = cpus + 2
        cfg = CampaignConfig(cases=8 * processes, max_size=6, max_len=6, seed=4)
        assert len(_spans(cfg.cases, processes)) > cpus  # enough jobs for every process
        pooled = run_campaign(cfg, processes=processes)
        assert sizes == ([cpus] if cpus > 1 else [])
        assert pooled.digest == run_campaign(cfg, processes=1).digest

    def test_warm_up_stays_out_of_the_results(self, monkeypatch):
        cfg = CampaignConfig(cases=4, max_size=6, max_len=6, seed=1)
        clean = run_campaign(cfg)
        calls = []
        real = campaign.run_case

        def counting(cfg, index):
            calls.append(index)
            return real(cfg, index)

        monkeypatch.setattr(campaign, "run_case", counting)
        result = run_campaign(cfg)
        assert calls == [0, 0, 1, 2, 3]  # case 0 once untimed, then every case
        assert result.payload == clean.payload
        assert result.failure_count == 0
        assert sorted(i for _, i in result.slowest) == [0, 1, 2, 3]

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
        result = run_campaign(CampaignConfig(cases=30, max_size=6, max_len=6, seed=1))
        assert result.failure_count == 30
        assert len(result.failures) == KEEP_FAILURES


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

        real = builder_mod._raw_unbounded

        def wrong(n, op, known_side, known):
            if op == "U":
                op = "R"
            return real(n, op, known_side, known)

        monkeypatch.setattr(builder_mod, "_raw_unbounded", wrong)
        f = parse("(a U b) | (a U b)")
        states = [{"a"}, {"a"}, {"b"}, set()] * 3
        tr = make_trace(states, list(ALPHABET))
        assert campaign._disagrees(f, tr)
        small_f, small_tr = minimize(f, tr)
        assert campaign._disagrees(small_f, small_tr)
        assert size(small_f) <= size(f)
        assert len(small_tr) <= len(tr)
