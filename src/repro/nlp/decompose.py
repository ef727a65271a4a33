"""Identifier decomposition for column and table names.

Column names are often concatenations of words and abbreviations
("nflsuspensions", "YearsExperience", "avg_salary"). The paper decomposes
names into all possible substrings and compares against a dictionary
(Section 4.2); we implement the standard pipeline — split on case/digit/
separator boundaries, then greedy longest-match dictionary splitting of any
remaining concatenations.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from repro.nlp.wordnet import vocabulary

#: Common words worth recognizing inside identifiers, beyond the synonym
#: lexicon (short function words excluded to avoid spurious splits).
_EXTRA_WORDS = frozenset(
    """
    year years games game name names team teams category county state
    result results status value values date month day week hour rank
    level code type group region gender income salary total count
    percent share vote votes seat seats win wins loss losses home away
    goals points runs hits spend spent raised fund funds self taught
    online formal degree years exp experience remote office commit
    commits answer answers question questions tag tags repo repos
    suspension suspensions nfl fifa senate house district primary
    recipient donor amount party election speech speeches mention
    mentions lyric lyrics artist artists song songs album albums
    respondent respondents country countries language languages
    occupation education employment dev stack overflow survey surveys
    flight flights airline airlines seat passenger passengers
    city cities price prices sale sales store stores product products
    population area density capital
    """.split()
)

_BOUNDARY_RE = re.compile(
    r"""
    [A-Z]+(?=[A-Z][a-z])   # acronym followed by word: XMLParser -> XML
    | [A-Z]?[a-z]+         # words: Parser, parser
    | [A-Z]+               # trailing acronyms
    | \d+                  # digit runs
    """,
    re.VERBOSE,
)


_DICTIONARY = frozenset(vocabulary() | _EXTRA_WORDS)
#: The same words in order: the words extending a prefix are one bisect
#: range, not a scan of the dictionary.
_SORTED_DICTIONARY = sorted(_DICTIONARY)


def decompose_identifier(name: str, min_part: int = 2) -> list[str]:
    """Split an identifier into lowercase word parts.

    "YearsExperience" -> ["years", "experience"];
    "nflsuspensions"  -> ["nfl", "suspensions"];
    "avg_salary"      -> ["avg", "salary"].
    """
    parts: list[str] = []
    for chunk in re.split(r"[\s_\-./]+", name):
        if not chunk:
            continue
        for piece in _BOUNDARY_RE.findall(chunk):
            parts.extend(_split_concatenation(piece.lower(), min_part))
    return [part for part in parts if part]


def abbreviation_expansions(token: str, limit: int = 3) -> list[str]:
    """Dictionary words that extend an abbreviated token.

    Data sets often contain abbreviations ("indef" for "indefinite") that
    claim text never spells out; bridging them to dictionary words lets
    keyword matching connect the two (paper Section 1 lists this among the
    core challenges). Tokens shorter than 4 characters are too ambiguous.
    """
    token = token.lower()
    if len(token) < 4 or token.isdigit():
        return []
    words = _SORTED_DICTIONARY
    expansions = []
    index = bisect_left(words, token)
    while index < len(words) and words[index].startswith(token):
        if words[index] != token:
            expansions.append(words[index])
        index += 1
    expansions.sort(key=lambda word: (len(word), word))
    return expansions[:limit]


def _split_concatenation(word: str, min_part: int) -> list[str]:
    """Greedy longest-match dictionary split; unsplittable text kept whole."""
    if word.isdigit() or len(word) <= min_part:
        return [word]
    words = _DICTIONARY
    if word in words:
        return [word]
    result: list[str] = []
    rest = word
    while rest:
        match = None
        # Longest dictionary prefix of the remaining text.
        for end in range(len(rest), min_part - 1, -1):
            if rest[:end] in words:
                match = rest[:end]
                break
        if match is None:
            # No split found: emit the whole remainder once.
            if result:
                result.append(rest)
            else:
                return [word]
            break
        result.append(match)
        rest = rest[len(match):]
    return result
