"""Input builders: every workload's documents and databases from one seed.

Inputs come from the repository's own generators, so every claim has
ground truth. The program under test receives only what is built here;
the same seed gives the same inputs.

Every fourth document is drawn from ``--seed``. The other three, and
every table of the themed workloads, come from a stream all seeds share;
for ``corpus_cold`` that stream is the repository's canonical corpus
(seed 2019). Documents differ more than ten-fold in cost per claim
(3-36 ms by theme), a run has room for ten to a hundred of them, and the
acceptance rule for this benchmark compares runs on *different* seeds:
with every document seeded, the draw alone moved ``corpus_cold``'s wall
time by 6% (quartile distance over median, ten seeds of 96 documents, the
machine's part taken out), and ten seeds spread ``claims_per_s`` by
14-25% on every in-process workload, on a machine that adds 5-15% of its
own (README, "Steadiness"). The shared part halves the draw's share;
the seeded part keeps every run's inputs - and its verdict digest -
different, so a change still meets documents it was not written against.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.checker import claim_fingerprint
from repro.corpus import THEMES, CorpusConfig, generate_corpus
from repro.corpus.articles import ArticleBuilder, ArticleConfig
from repro.corpus.datasets import build_database
from repro.corpus.spec import TestCase
from repro.errors import CorpusError

#: Served articles: the corpus mean, pinned, so the claim count - and with
#: it ``claims_per_s`` and ``cpu_s_per_claim`` - does not follow the draw
#: of the article length.
SERVED_ARTICLE = ArticleConfig(claims_range=(8, 8))

#: Articles over the big tables. What a document costs there is the cube
#: statements it causes, one per set of predicate columns its text
#: matches: an 8-claim article causes 3, 6 or 10 on the same table and
#: its time varies by a quarter (cv 0.22-0.25 over six draws, two
#: themes); with 16 claims the count stops depending on the draw (cv
#: 0.09-0.11).
BIGROWS_ARTICLE = ArticleConfig(claims_range=(16, 16))

#: A long report: pushed down, a document's cost is again its statement
#: count, and only at 32 claims does an article touch every predicate
#: column its theme offers (``claims_per_s`` spread over ten seeds: 27%
#: with sixteen 8-claim articles, 6% with twelve of these).
LONG_REPORT = ArticleConfig(claims_range=(32, 32))

#: Appended to a resubmitted article. It holds no number, so it adds no
#: claim and leaves every existing claim's fingerprint untouched.
RESUBMIT_SUFFIX = "\n<p>Editors reviewed this story after publication.</p>"

_MAX_ATTEMPTS = 50

#: Every this-many-th document is drawn from ``--seed``: the second of
#: each four. Themes cycle with the table index, so where each table has
#: one article (``bigrows_*``, ``sqlite_pushdown``) the seeded articles
#: fall on ``campaign_finance`` and ``hiphop_lyrics``, whose cost hardly
#: follows the draw (cv 0.02-0.09 on a 100 000-row table). The fourth of each four fell on
#: ``airline_etiquette`` and ``sunday_shows``: one seeded article in four
#: then moved ``bigrows_*`` by -25% on one seed in ten, and the other
#: takes 0.15 s or 1.7 s to write, depending on the draw.
SEEDED_EVERY = 4
_SEEDED_SLOT = 1

#: Corpus seed of the shared stream (the repository's canonical corpus).
_SHARED_CORPUS_SEED = 2019
#: Offset that keeps a seeded corpus stream off the shared one.
_SEEDED_CORPUS_OFFSET = 1_000_003


def _is_seeded(index: int) -> bool:
    return index % SEEDED_EVERY == _SEEDED_SLOT


def corpus_cases(seed: int, n_articles: int) -> list[TestCase]:
    """The paper's setting: themed articles over paper-sized tables."""
    n_seeded = sum(1 for index in range(n_articles) if _is_seeded(index))
    shared = iter(
        generate_corpus(
            CorpusConfig(n_articles - n_seeded, _SHARED_CORPUS_SEED)
        ).cases
    )
    seeded = iter(
        generate_corpus(
            CorpusConfig(n_seeded, seed + _SEEDED_CORPUS_OFFSET)
        ).cases
    )
    return [
        next(seeded if _is_seeded(index) else shared)
        for index in range(n_articles)
    ]


def themed_cases(
    seed: int,
    purpose: str,
    n_databases: int,
    rows: int | None,
    articles_per_database: int = 1,
    article: ArticleConfig | None = None,
    distinct_claims: bool = False,
) -> list[list[TestCase]]:
    """One database per theme (first ``n_databases`` themes, cycling), each
    with ``articles_per_database`` articles written against it.

    The tables never depend on the seed: they are the workload's
    definition (and, at 100 000 rows, most of its set-up time); the seed
    writes every ``SEEDED_EVERY``-th article. ``rows`` pins the table size
    and drops the theme's filler columns (None keeps the theme as the
    paper-sized corpus uses it): the one theme that has them gets 90, and
    at these sizes that single table would cost more than all the others
    together. A draw the generator rejects is retried on the same theme,
    so the theme mix is fixed. ``distinct_claims`` also redraws an article
    that repeats a claim fingerprint, its own or one of an earlier article
    on the same database: the service answers such a claim from its memo
    (or folds it into the job in flight), verifies the rest as a smaller
    joint batch than ``check_document`` does, and can return different
    verdicts depending on timing (README, "Findings"), which would fail
    the served output check.
    """
    groups: list[list[TestCase]] = []
    for index in range(n_databases):
        theme = THEMES[index % len(THEMES)]
        if rows is not None:
            theme = replace(theme, row_range=(rows, rows), filler_columns=0)
        database = build_database(
            theme, random.Random(f"shared/{purpose}/{index}")
        )
        group: list[TestCase] = []
        seen: set[str] = set()  # claim fingerprints of the group so far
        for slot in range(articles_per_database):
            ordinal = index * articles_per_database + slot
            owner = seed if _is_seeded(ordinal) else "shared"
            rng = random.Random(f"{owner}/{purpose}/{index}/{slot}")
            for _ in range(_MAX_ATTEMPTS):
                builder = ArticleBuilder(
                    theme, database, random.Random(rng.randrange(2**62)),
                    article,
                )
                try:
                    case = builder.build(f"{purpose}_{index:02d}_{slot:02d}")
                except CorpusError:
                    continue
                prints = {claim_fingerprint(claim) for claim in case.claims}
                if distinct_claims and (
                    len(prints) < len(case.claims) or prints & seen
                ):
                    continue
                seen |= prints
                group.append(case)
                break
            else:
                raise CorpusError(
                    f"no usable article for {purpose} database {index} "
                    f"slot {slot} in {_MAX_ATTEMPTS} draws"
                )
        groups.append(group)
    return groups


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission of the open-loop workload."""

    ordinal: int
    due: float  # seconds after the schedule's epoch
    database: int
    html: str
    #: Ordinal of the earlier arrival this one re-sends (edited), or None.
    resubmits: int | None


def write_csv(case: TestCase, directory: Path) -> Path:
    """Write the case's single table as ``<table name>.csv``."""
    table = case.database.single_table()
    path = directory / f"{table.name}.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(column.name for column in table.columns)
        for row in table.rows:
            writer.writerow("" if cell is None else cell for cell in row)
    return path


def resubmit_count(n_arrivals: int) -> int:
    """3 in 13 arrivals are resubmissions (24 of 104 at the issue's size)."""
    return n_arrivals * 3 // 13 if n_arrivals > 6 else 0


def arrival_schedule(
    seed: int, groups: list[list[TestCase]], n_arrivals: int, rate: float
) -> list[Arrival]:
    """A fixed open-loop schedule: fresh articles plus resubmissions.

    ``groups[d][0]`` is database ``d``'s warm-up article and is not
    scheduled. The rest are the fresh documents, in an order drawn from
    the seed. Resubmissions re-send an earlier fresh arrival with one
    sentence appended; their positions are drawn from the seed, none
    before the 6th arrival.
    """
    rng = random.Random(f"{seed}/schedule")
    fresh = [
        (database, case.html)
        for database, group in enumerate(groups)
        for case in group[1:]
    ]
    rng.shuffle(fresh)
    n_resubmits = resubmit_count(n_arrivals)
    if len(fresh) < n_arrivals - n_resubmits:
        raise ValueError("not enough fresh articles for the schedule")
    resubmit_at = set(rng.sample(range(5, n_arrivals), n_resubmits))
    arrivals: list[Arrival] = []
    sent: list[Arrival] = []  # fresh arrivals so far, resubmission sources
    for ordinal in range(n_arrivals):
        due = ordinal / rate
        if ordinal in resubmit_at:
            source = rng.choice(sent)
            arrival = Arrival(
                ordinal, due, source.database,
                source.html + RESUBMIT_SUFFIX, source.ordinal,
            )
        else:
            database, html = fresh.pop()
            arrival = Arrival(ordinal, due, database, html, None)
            sent.append(arrival)
        arrivals.append(arrival)
    return arrivals
