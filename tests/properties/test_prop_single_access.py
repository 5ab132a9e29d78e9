"""Differential test of one-access-per-call guest accesses.

Runs ``SingleAccessDiff`` from ``test_prop_seq_access.py`` alone: a
default machine and a reference machine in lockstep over
``load``/``store``/``read_bytes``/``write_bytes`` and the steps between
accesses (timer-tick padding, ``sfence``, reclaim and retouch, one
``store`` per fresh page), with no sequence calls.  The merged machine
there spends most of its steps on sequences; here every step goes to the
engine's one-access calls and the faults they take in place.  The two
machines must agree on everything ``_Side.fingerprint`` compares.
"""

from __future__ import annotations

from hypothesis import settings

from tests.properties.test_prop_seq_access import SingleAccessDiff

SingleAccessDiff.TestCase.settings = settings(deadline=None, stateful_step_count=40)
TestSingleAccessDiff = SingleAccessDiff.TestCase
