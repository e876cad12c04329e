"""Project management: the organisational unit grouping experiments."""

from __future__ import annotations

from repro.core.access import AccessControl
from repro.core.entities import Project, User
from repro.core.enums import EventType
from repro.core.events import EventService
from repro.core.repository import Repository
from repro.errors import StateError
from repro.storage.database import Database
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.validation import ensure_non_empty


class ProjectService:
    """Creates projects, manages membership and archives them."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 events: EventService):
        self._clock = clock
        self._ids = ids
        self._events = events
        self._projects = Repository(database, Project)

    # -- CRUD --------------------------------------------------------------------

    def create(self, name: str, owner: User, description: str = "") -> Project:
        """Create a project owned by ``owner``."""
        ensure_non_empty(name, "project name")
        project = Project(
            id=self._ids.next("project"),
            name=name,
            description=description,
            owner_id=owner.id,
            members=[owner.id],
            created_at=self._clock.now(),
        )
        self._projects.add(project)
        self._events.record("project", project.id, EventType.CREATED,
                            f"project {name!r} created by {owner.username}")
        return project

    def get(self, project_id: str) -> Project:
        return self._projects.get(project_id)

    def list(self, user: User | None = None, include_archived: bool = True) -> list[Project]:
        """All projects, optionally restricted to those ``user`` can view."""
        projects = self._projects.find(None, order_by="created_at")
        if not include_archived:
            projects = [project for project in projects if not project.archived]
        if user is None:
            return projects
        return [project for project in projects if AccessControl.can_view(user, project)]

    # -- membership -----------------------------------------------------------------

    def add_member(self, project_id: str, user: User) -> Project:
        """Add ``user`` to the project's member list (idempotent)."""
        project = self.get(project_id)
        if user.id in project.members:
            return project
        members = project.members + [user.id]
        return self._projects.update(project_id, {"members": members})

    # -- archiving --------------------------------------------------------------------

    def archive(self, project_id: str) -> Project:
        """Archive a project: its settings and results become read-only."""
        project = self._projects.update(project_id, {"archived": True})
        self._events.record("project", project_id, EventType.ARCHIVED,
                            f"project {project.name!r} archived")
        return project

    def ensure_not_archived(self, project_id: str) -> Project:
        """Raise when the project is archived (mutation guard)."""
        project = self.get(project_id)
        if project.archived:
            raise StateError(f"project {project.name!r} is archived and read-only")
        return project
