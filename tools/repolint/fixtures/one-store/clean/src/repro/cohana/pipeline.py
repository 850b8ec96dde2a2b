"""Clean twin: the scheduler's own module scans one segment for a
caller that reads no table."""


def shard_value_partial(shard, plan, kernel, config, stats):
    (partial,) = ChunkScheduler(shard, plan, kernel,
                                config).segment_partials(stats)
    return partial


class ChunkScheduler:
    def __init__(self, table, plan, kernel, config=None, partials=None):
        self.table = table
