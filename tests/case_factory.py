"""Hand-built case records for tests; a module of its own so that test
files can import it under a name no other test directory uses."""
from __future__ import annotations

import datetime

from caseline.corpus import CaseRecord


def make_case(case_id: str, day: int, articles, text: str,
              title: str | None = None) -> CaseRecord:
    return CaseRecord(
        case_id=case_id,
        title=title or f"Case {case_id}",
        decision_date=datetime.date(2001, 1, 1) + datetime.timedelta(days=day),
        articles=frozenset(articles),
        text=text,
    )
