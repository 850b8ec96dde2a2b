"""Shared utilities: lexing infrastructure for both query languages,
and the one bounded LRU cache (:mod:`repro.common.lru`)."""

from repro.common.lexer import (
    END,
    IDENT,
    NUMBER,
    STRING,
    SYMBOL,
    Token,
    TokenStream,
    tokenize,
)

__all__ = ["END", "IDENT", "NUMBER", "STRING", "SYMBOL", "Token",
           "TokenStream", "tokenize"]
