"""Shared pytest plumbing: acceptance verdict lines in the summary, and
groups that tests may share.

A group's table and the rest of its derived data live on the group, so
tests that revisit a group share that work only if they share the group
object.  `shared_group` is opt-in: tests that check freeing, or count
builds, make their own groups.
"""

from indres.cli import load_group

ACCEPTANCE_LINES = []
_GROUPS = {}


def shared_group(name):
    """The session's one copy of a group, named as `cli.load_group` takes it."""
    if name not in _GROUPS:
        _GROUPS[name] = load_group(name)
    return _GROUPS[name]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
