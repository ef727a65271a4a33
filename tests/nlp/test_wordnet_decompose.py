"""Unit tests for the synonym lexicon and identifier decomposition."""

from __future__ import annotations

from repro.nlp import decompose
from repro.nlp.decompose import abbreviation_expansions, decompose_identifier
from repro.nlp.wordnet import expand_keywords, synonyms, vocabulary


class TestSynonyms:
    def test_symmetric_groups(self):
        assert "pay" in synonyms("salary")
        assert "salary" in synonyms("pay")

    def test_word_not_its_own_synonym(self):
        assert "salary" not in synonyms("salary")

    def test_unknown_word(self):
        assert synonyms("zyzzyva") == set()

    def test_case_insensitive(self):
        assert synonyms("Salary") == synonyms("salary")

    def test_aggregation_vocabulary(self):
        assert "number" in synonyms("count")
        assert "mean" in synonyms("average")
        assert "share" in synonyms("percentage")

    def test_domain_terms(self):
        assert "suspension" in synonyms("ban")
        assert "permanent" in synonyms("lifetime")

    def test_expand_keywords(self):
        expanded = expand_keywords({"salary"})
        assert {"salary", "pay", "wage"} <= expanded

    def test_vocabulary_nonempty(self):
        assert len(vocabulary()) > 200


class TestDecompose:
    def test_snake_case(self):
        assert decompose_identifier("avg_salary") == ["avg", "salary"]

    def test_camel_case(self):
        assert decompose_identifier("YearsExperience") == ["years", "experience"]

    def test_acronym_boundary(self):
        assert decompose_identifier("NFLSuspensions") == ["nfl", "suspensions"]

    def test_concatenation_split(self):
        assert decompose_identifier("nflsuspensions") == ["nfl", "suspensions"]

    def test_digits_separated(self):
        assert decompose_identifier("stackoverflow2016") == [
            "stack",
            "overflow",
            "2016",
        ]

    def test_unsplittable_kept_whole(self):
        assert decompose_identifier("qxzzk") == ["qxzzk"]

    def test_spaces_and_dashes(self):
        assert decompose_identifier("per-game total") == ["per", "game", "total"]

    def test_short_identifier(self):
        assert decompose_identifier("id") == ["id"]

    def test_empty(self):
        assert decompose_identifier("") == []


class TestAbbreviationExpansions:
    def test_bridges_abbreviation_to_dictionary_word(self):
        assert "indefinite" in abbreviation_expansions("indef")

    def test_short_and_numeric_tokens_have_none(self):
        assert abbreviation_expansions("ind") == []
        assert abbreviation_expansions("2016") == []

    def test_matches_linear_scan_of_the_dictionary(self):
        """The bisect range returns what scanning every word returns."""
        words = sorted(decompose._DICTIONARY)

        def linear(token, limit=3):
            token = token.lower()
            if len(token) < 4 or token.isdigit():
                return []
            found = [w for w in words if w != token and w.startswith(token)]
            found.sort(key=lambda word: (len(word), word))
            return found[:limit]

        # Prefixes of dictionary words (4+ letters, whole words included),
        # the same with a miss appended, mixed case, and the range's edges.
        tokens = {word[:cut] for word in words[::3] for cut in range(4, len(word) + 1)}
        tokens |= {token + "q" for token in list(tokens)[::7]}
        tokens |= {token.upper() for token in list(tokens)[::11]}
        tokens |= {words[0], words[-1], words[-1] + "z", "zzzz", "aaaa"}
        assert len(tokens) > 300
        for token in sorted(tokens):
            for limit in (1, 3, 50):
                assert abbreviation_expansions(token, limit) == linear(token, limit), token
