"""Seeded violation: a worker folding a run itself."""


def scan_run(physical, table, indices, state):
    for index in indices:
        state.absorb(physical.execute_chunk(table, table.chunks[index]),
                     None)
    return state.partial(fold=False)
