"""Shared pytest plumbing: acceptance verdict lines in the summary, groups
that tests may share, a reference transporter mask, and one hypothesis
profile.

The profile derandomizes every property test, so each run draws the same
examples; tests keep their own `max_examples` and `deadline`.

A group's table and the rest of its derived data live on the group, so
tests that revisit a group share that work only if they share the group
object.  `shared_group` is opt-in: tests that check freeing, or count
builds, make their own groups.
"""

import numpy as np
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


def full_transporter_mask(G, K, L, lo=0, hi=None):
    """Mask over G's elements lo:hi of the g with g K g^-1 inside L, with
    every generator of K conjugated by every row in lo:hi."""
    E, Einv = G.elements()[lo:hi], G.inverses()[lo:hi]
    mask = np.ones(len(E), dtype=bool)
    for k in K.generators:
        ka = np.asarray(k, dtype=E.dtype)
        mask &= L.rows_in(np.take_along_axis(E, ka[Einv], axis=1))
    return mask


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
