"""Event timeline: everything that happened to a job (or other entity).

The job overview page (Fig. 3c) shows a timeline of all events associated
with a job; this service records and retrieves those events.
"""

from __future__ import annotations

from repro.core.entities import Event
from repro.core.enums import EventType
from repro.core.repository import Repository
from repro.storage.database import Database
from repro.storage.query import and_, eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator


class EventService:
    """Records and queries timeline events."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator):
        self._clock = clock
        self._ids = ids
        self._events = Repository(database, Event)

    def record(self, entity_type: str, entity_id: str, event_type: EventType,
               message: str = "") -> Event:
        """Append an event to the timeline of ``entity_type``/``entity_id``."""
        event = Event(
            id=self._ids.next("event"),
            entity_type=entity_type,
            entity_id=entity_id,
            event_type=event_type,
            message=message,
            timestamp=self._clock.now(),
        )
        return self._events.add(event)

    def timeline(self, entity_type: str, entity_id: str) -> list[Event]:
        """All events of one entity in chronological order."""
        events = self._events.find(
            and_(eq("entity_type", entity_type), eq("entity_id", entity_id))
        )
        return sorted(events, key=lambda event: (event.timestamp, event.id))

    def count(self, entity_type: str | None = None) -> int:
        if entity_type is None:
            return self._events.count()
        return self._events.count(eq("entity_type", entity_type))
