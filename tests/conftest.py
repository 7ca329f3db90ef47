"""Shared pytest plumbing: acceptance verdict lines in the summary, groups
that tests may share, and one hypothesis profile.

The profile derandomizes every property test, so each run draws the same
examples; tests keep their own `max_examples` and `deadline`.

A group's table and the rest of its derived data live on the group, so
tests that revisit a group share that work only if they share the group
object.  `shared_group` is opt-in: tests that check freeing, or count
builds, make their own groups.
"""

from hypothesis import settings

from indres.cli import load_group

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

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
