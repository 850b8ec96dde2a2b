"""Seeded violation: a (table, token) pair read as two calls."""


class Service:
    def __init__(self, engine):
        self.engine = engine

    def pair(self, name):
        while True:
            token = self.engine.version_token(name)
            table = self.engine.table(name)
            if self.engine.version_token(name) == token:
                return table, token


def units(engine, name):
    table = engine.table(name)
    return [(shard, shard.digest or engine.version_token(name))
            for shard in table.shards]
