"""Unit tests for fingerprints and the per-document incremental LRU."""

from __future__ import annotations

import threading

import pytest

from repro.core.checker import claim_fingerprint
from repro.core.config import AggCheckerConfig
from repro.service.incremental import (
    IncrementalCache,
    config_fingerprint,
    document_fingerprint,
    scope_fingerprint,
)
from repro.text.claims import detect_claims
from repro.text.document import Document


def claims_of(title: str, paragraphs: list[str]):
    return detect_claims(Document.from_plain_text(title, paragraphs))


class TestClaimFingerprint:
    def test_stable_across_identical_documents(self):
        first = claims_of("t", ["There were four bans.", "Then five more."])
        second = claims_of("t", ["There were four bans.", "Then five more."])
        assert [claim_fingerprint(c) for c in first] == [
            claim_fingerprint(c) for c in second
        ]

    def test_editing_one_sentence_changes_only_that_claim(self):
        base = claims_of("t", ["There were four bans.", "Then five more came."])
        edited = claims_of("t", ["There were nine bans.", "Then five more came."])
        assert len(base) == len(edited) == 2
        assert claim_fingerprint(base[0]) != claim_fingerprint(edited[0])
        assert claim_fingerprint(base[1]) == claim_fingerprint(edited[1])

    def test_previous_sentence_is_part_of_the_key(self):
        base = claims_of("t", ["The teams met. Four players scored."])
        edited = claims_of("t", ["The players met. Four players scored."])
        assert claim_fingerprint(base[-1]) != claim_fingerprint(edited[-1])

    def test_headline_is_part_of_the_key(self):
        base = claims_of("Suspensions", ["Four players were banned."])
        renamed = claims_of("Transfers", ["Four players were banned."])
        assert claim_fingerprint(base[0]) != claim_fingerprint(renamed[0])

    def test_inserting_an_earlier_paragraph_preserves_the_key(self):
        # The ordinal shifts but nothing the pipeline reads changes.
        base = claims_of("t", ["Four players were banned."])
        shifted = claims_of(
            "t", ["An intro with no numbers.", "Four players were banned."]
        )
        assert base[0].ordinal != shifted[-1].ordinal or len(shifted) == 1
        assert claim_fingerprint(base[0]) == claim_fingerprint(shifted[-1])


class TestDocumentFingerprint:
    def test_every_claim_and_its_order_are_part_of_the_key(self):
        base = claims_of("t", ["There were four bans.", "Then five more."])
        edited = claims_of("t", ["There were nine bans.", "Then five more."])
        assert document_fingerprint(base) != document_fingerprint(edited)
        assert document_fingerprint(base) != document_fingerprint(base[:1])
        assert document_fingerprint(base) != document_fingerprint(base[::-1])

    def test_a_sentence_without_a_number_feeds_no_claim(self):
        base = claims_of("t", ["There were four bans.", "Then five more."])
        longer = claims_of(
            "t", ["There were four bans.", "Then five more.", "The end."]
        )
        assert document_fingerprint(base) == document_fingerprint(longer)


class TestConfigFingerprint:
    def test_equal_configs_agree(self):
        assert config_fingerprint(AggCheckerConfig()) == config_fingerprint(
            AggCheckerConfig()
        )

    def test_any_knob_changes_the_key(self):
        base = config_fingerprint(AggCheckerConfig())
        assert base != config_fingerprint(AggCheckerConfig(predicate_hits=5))
        assert base != config_fingerprint(
            AggCheckerConfig().with_em(p_true=0.9)
        )

    def test_data_dictionary_content_is_part_of_the_key(self):
        config = AggCheckerConfig()
        base = config_fingerprint(config, None)
        assert base != config_fingerprint(config, {"Games": "length"})
        assert config_fingerprint(
            config, {"a": "x", "b": "y"}
        ) == config_fingerprint(config, {"b": "y", "a": "x"})

    def test_scope_fingerprint_folds_database(self):
        config = AggCheckerConfig()
        assert scope_fingerprint("db1", config) != scope_fingerprint(
            "db2", config
        )


class TestIncrementalCache:
    def test_round_trip_and_stats(self):
        cache = IncrementalCache(max_entries=8)
        key = ("scope", "document")
        assert cache.get(key) is None
        cache.put(key, [{"status": "verified"}])
        assert cache.get(key) == [{"status": "verified"}]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate() == 0.5

    def test_lru_eviction_order(self):
        cache = IncrementalCache(max_entries=2)
        cache.put(("s", "a"), [{"v": 1}])
        cache.put(("s", "b"), [{"v": 2}])
        assert cache.get(("s", "a")) is not None  # refresh a
        cache.put(("s", "c"), [{"v": 3}])  # evicts b, the LRU
        assert cache.get(("s", "b")) is None
        assert cache.get(("s", "a")) is not None
        assert cache.get(("s", "c")) is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_put_overwrites_in_place(self):
        cache = IncrementalCache(max_entries=2)
        cache.put(("s", "a"), [{"v": 1}])
        cache.put(("s", "a"), [{"v": 2}])
        assert len(cache) == 1
        assert cache.get(("s", "a")) == [{"v": 2}]

    def test_a_degraded_payload_refuses_the_whole_document(self):
        cache = IncrementalCache()
        cache.put(
            ("s", "a"),
            [
                {"status": "verified"},
                {"status": "unverifiable", "degraded": "shed"},
            ],
        )
        assert cache.get(("s", "a")) is None
        assert cache.stats.skipped == 1 and cache.stats.stores == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            IncrementalCache(max_entries=0)

    def test_clear(self):
        cache = IncrementalCache()
        cache.put(("s", "a"), [{}])
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_mixed_access_is_safe(self):
        cache = IncrementalCache(max_entries=64)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    key = ("s", f"document-{(seed * 7 + i) % 96}")
                    if i % 3 == 0:
                        cache.put(key, [{"v": i}])
                    else:
                        cache.get(key)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
