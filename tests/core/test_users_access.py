"""Tests for user management, sessions and project-level access control."""

from __future__ import annotations

import pytest

from repro.core.access import AccessControl
from repro.core.enums import Role
from repro.core.users import hash_password, verify_password
from repro.errors import AuthenticationError, ConflictError, NotFoundError, PermissionDeniedError


class TestPasswordHashing:
    def test_hash_and_verify(self):
        stored = hash_password("secret")
        assert verify_password("secret", stored)
        assert not verify_password("wrong", stored)

    def test_hashes_are_salted(self):
        assert hash_password("secret") != hash_password("secret")

    def test_malformed_hash_rejected(self):
        assert not verify_password("secret", "plaintext")


class TestUserService:
    def test_create_and_get(self, control):
        user = control.users.create_user("alice", "pw", Role.USER)
        assert control.users.get_by_username("alice") == user

    def test_duplicate_username_rejected(self, control):
        control.users.create_user("alice", "pw")
        with pytest.raises(ConflictError):
            control.users.create_user("alice", "other")

    def test_admin_created_by_default(self, control):
        admin = control.users.get_by_username("admin")
        assert admin.role is Role.ADMIN

    def test_unknown_user_raises(self, control):
        with pytest.raises(NotFoundError):
            control.users.get_by_username("ghost")

    def test_list_users_sorted(self, control):
        control.users.create_user("zoe", "pw")
        control.users.create_user("bob", "pw")
        names = [user.username for user in control.users.list_users()]
        assert names == sorted(names)


class TestSessions:
    def test_login_and_validate(self, control):
        token = control.users.login("admin", "admin")
        assert control.users.validate_token(token).username == "admin"

    def test_wrong_password_rejected(self, control):
        with pytest.raises(AuthenticationError):
            control.users.login("admin", "wrong")
        with pytest.raises(AuthenticationError):
            control.users.login("ghost", "whatever")

    def test_invalid_token_rejected(self, control):
        with pytest.raises(AuthenticationError):
            control.users.validate_token("bogus")

    def test_tokens_expire(self, control, clock):
        token = control.users.login("admin", "admin")
        clock.advance(9 * 3600)
        with pytest.raises(AuthenticationError):
            control.users.validate_token(token)


class TestAccessControl:
    @pytest.fixture
    def users(self, control):
        return {
            "owner": control.users.create_user("owner", "pw"),
            "member": control.users.create_user("member", "pw"),
            "outsider": control.users.create_user("outsider", "pw"),
            "readonly": control.users.create_user("ro", "pw", Role.READONLY),
            "admin": control.users.get_by_username("admin"),
        }

    @pytest.fixture
    def project(self, control, users):
        project = control.projects.create("secret project", users["owner"])
        control.projects.add_member(project.id, users["member"])
        control.projects.add_member(project.id, users["readonly"])
        return control.projects.get(project.id)

    def test_members_and_owner_can_view(self, users, project):
        assert AccessControl.can_view(users["owner"], project)
        assert AccessControl.can_view(users["member"], project)
        assert AccessControl.can_view(users["admin"], project)
        assert not AccessControl.can_view(users["outsider"], project)

    def test_readonly_member_cannot_modify(self, users, project):
        assert AccessControl.can_view(users["readonly"], project)
        assert not AccessControl.can_modify(users["readonly"], project)

    def test_only_owner_and_admin_administer(self, users, project):
        assert AccessControl.can_administer(users["owner"], project)
        assert AccessControl.can_administer(users["admin"], project)
        assert not AccessControl.can_administer(users["member"], project)

    def test_enforcement_helpers_raise(self, users, project):
        with pytest.raises(PermissionDeniedError):
            AccessControl.require_view(users["outsider"], project)
        with pytest.raises(PermissionDeniedError):
            AccessControl.require_modify(users["readonly"], project)
        with pytest.raises(PermissionDeniedError):
            AccessControl.require_administer(users["member"], project)
        AccessControl.require_modify(users["member"], project)  # must not raise
