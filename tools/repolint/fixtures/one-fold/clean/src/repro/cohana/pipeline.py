"""Clean twin: the one module that merges partials."""


class MergeState:
    def __init__(self, query):
        self.query = query
        self.parts = []

    def absorb(self, partial, stats):
        self.parts.append(partial)


def concatenate(query, partials):
    state = MergeState(query)
    for partial in partials:
        state.absorb(partial, None)
    return state
