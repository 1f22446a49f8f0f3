"""Document model for the embedded document database."""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from typing import Any, Dict, List, Optional

from repro.utils.errors import ValidationError

_next_seq = 0
_seq_lock = threading.Lock()


def new_object_ids(n: int) -> List[str]:
    """``n`` unique, time-ordered object ids (Mongo-style) from one clock
    read and one reservation of ``n`` consecutive sequence numbers."""
    global _next_seq
    with _seq_lock:
        first = _next_seq
        _next_seq += n
    prefix = f"{int(time.time() * 1000):013x}-"
    return [f"{prefix}{seq:08x}" for seq in range(first, first + n)]


def new_object_id() -> str:
    """Generate a unique, time-ordered object id (Mongo-style)."""
    return new_object_ids(1)[0]


class Document(dict):
    """A JSON-like document with an ``_id`` field.

    Behaves exactly like a ``dict``; construction assigns a fresh ``_id`` if
    one is not supplied.  Binary payloads (serialised samples) are stored
    under ordinary keys, typically ``"payload"``.
    """

    def __init__(self, data: Optional[Mapping[str, Any]] = None, **kwargs):
        if data is None:
            data = ()
        elif not isinstance(data, dict) and not isinstance(data, Mapping):
            raise ValidationError("Document data must be a mapping")
        super().__init__(data, **kwargs)
        if "_id" not in self:
            self["_id"] = new_object_id()

    @property
    def id(self) -> str:
        return self["_id"]

    def without_id(self) -> Dict[str, Any]:
        return {k: v for k, v in self.items() if k != "_id"}

    def matches(self, query: Mapping[str, Any]) -> bool:
        """Simple equality filter used by :meth:`Collection.find`."""
        for key, expected in query.items():
            if key not in self:
                return False
            actual = self[key]
            if isinstance(expected, Mapping) and set(expected) <= {"$gte", "$lte", "$gt", "$lt", "$in", "$ne"}:
                if "$gte" in expected and not actual >= expected["$gte"]:
                    return False
                if "$lte" in expected and not actual <= expected["$lte"]:
                    return False
                if "$gt" in expected and not actual > expected["$gt"]:
                    return False
                if "$lt" in expected and not actual < expected["$lt"]:
                    return False
                if "$in" in expected and actual not in expected["$in"]:
                    return False
                if "$ne" in expected and actual == expected["$ne"]:
                    return False
            elif actual != expected:
                return False
        return True
