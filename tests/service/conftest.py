"""Shared service-test data and helpers: two small databases with an
article each, the ``check --json`` oracle, and NDJSON request helpers.

Test modules elsewhere import the helpers (and the ``data_files``
fixture) from here by name.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import main as cli_main

NFL_CSV = """Name,Team,Games,Category,Year
Ray Rice,BAL,2,domestic violence,2014
Art Schlichter,BAL,indef,gambling,1983
Stanley Wilson,CIN,indef,"substance abuse, repeated offense",1989
Dexter Manley,WAS,indef,"substance abuse, repeated offense",1991
Roy Tarpley,DAL,indef,"substance abuse, repeated offense",1995
Josh Gordon,CLE,16,substance abuse,2014
"""

#: The NFL table without its one gambling ban: changes the article's
#: "one was for gambling" verdict.
NFL_CSV_EDITED = NFL_CSV.replace("Art Schlichter,BAL,indef,gambling,1983\n", "")

SALES_CSV = """product,region,units,price
widget,north,4,10
widget,south,6,12
gadget,north,3,30
gadget,south,7,25
sprocket,north,5,8
"""

NFL_ARTICLE = """
<title>Punishing players</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"""

SALES_ARTICLE = (
    "We sold five kinds of items across two regions.\n\n"
    "The north region moved 12 units in total."
)


@pytest.fixture()
def data_files(tmp_path):
    nfl = tmp_path / "nflsuspensions.csv"
    nfl.write_text(NFL_CSV)
    sales = tmp_path / "sales.csv"
    sales.write_text(SALES_CSV)
    nfl_article = tmp_path / "nfl_article.html"
    nfl_article.write_text(NFL_ARTICLE)
    sales_article = tmp_path / "sales_article.txt"
    sales_article.write_text(SALES_ARTICLE)
    return {
        "nfl": nfl,
        "sales": sales,
        "nfl_article": nfl_article,
        "sales_article": sales_article,
    }


def post_check(url: str, payload: dict) -> list[dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + "/check", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in response.read().splitlines()]


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def cli_claims(capsys, csv_path, article_path) -> list[dict]:
    """The ``check --json`` per-claim payloads (the bit-identity oracle)."""
    code = cli_main(
        ["check", "--csv", str(csv_path), "--article", str(article_path),
         "--json"]
    )
    assert code in (0, 1)
    return json.loads(capsys.readouterr().out)["claims"]


def claims_of(events: list[dict]) -> list[dict]:
    ordered = sorted(
        (e for e in events if e["event"] == "claim"), key=lambda e: e["index"]
    )
    assert [e["index"] for e in ordered] == list(range(len(ordered)))
    return [e["claim"] for e in ordered]
