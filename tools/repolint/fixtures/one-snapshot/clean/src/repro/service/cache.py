"""Clean twin: the pair comes from one snapshot; single reads stay legal."""


class Service:
    def __init__(self, engine):
        self.engine = engine

    def pair(self, name):
        return self.engine.snapshot(name)

    def schema(self, name):
        return self.engine.table(name).schema

    def token(self, name):
        return self.engine.version_token(name)


def units(engine, name):
    table, token = engine.snapshot(name)

    def key(shard):
        return shard.digest or token

    return [(shard, key(shard)) for shard in table.shards]
