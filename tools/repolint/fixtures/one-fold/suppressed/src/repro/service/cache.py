"""Suppressed twin: a name that only looks like a merge."""


def soak(sponge, water):
    # repolint: ignore[one-fold] -- a sponge absorbs water here; no partial is merged
    return sponge.absorb(water)
