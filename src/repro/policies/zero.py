"""Zero-bounds policy: the vanilla-equivalent baseline."""

from __future__ import annotations

from repro.core.policy import Policy


class ZeroBoundsPolicy(Policy):
    """Every subscription gets zero bounds (the base policy's columns).

    With zero bounds each committed update immediately exceeds the
    numerical bound and flushes on the spot, so the middleware degenerates
    to vanilla immediate broadcast. The integration test suite verifies
    this equivalence packet-for-packet against the server's direct path.
    """
