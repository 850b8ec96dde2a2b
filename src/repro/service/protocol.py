"""Wire protocol for the HTTP service tier, and the statement surface
of the ``serve`` command on stdin.

Three concerns live here, all stdlib-only:

* **Statement surface** — :class:`StatementAccumulator` (the stdin
  session's multi-line statement accumulation; the HTTP frontend
  speaks whole statements) and the structured error codec
  (:func:`error_payload`, :func:`format_error`, :func:`status_for`).
  The stdin session and the HTTP frontend classify a malformed
  statement through the *same* functions: stdin renders the payload
  as an ``error:`` line, HTTP renders it as a JSON 400 body carrying
  the error type and, for parse errors, the character position —
  never a stack trace.

* **HTTP/1.1 codecs** — :func:`read_request` parses one request
  (request line, headers, ``Content-Length`` body) from an asyncio
  stream into an :class:`HttpRequest`; :func:`render_response` builds
  the response bytes. Deliberately minimal: no chunked bodies, no
  multipart — every payload this service speaks is one JSON document.

* **Result codecs** — :func:`result_payload` turns a
  :class:`~repro.cohort.result.CohortResult` (+ its
  :class:`~repro.cohana.pipeline.ExecStats`) into a JSON-able dict
  carrying a :func:`result_digest` computed server-side over the very
  rows being serialized, so clients (and CI) can assert digest parity
  against a direct engine run without re-deriving value types from
  JSON.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import (
    CatalogError,
    ExecutionError,
    ReproError,
    StorageError,
)

if TYPE_CHECKING:
    from repro.cohana.parser import ParsedStatement

#: Response reason phrases for every status this service emits.
REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 411: "Length Required", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout", 505: "HTTP Version Not Supported",
}

#: Tenant attributed to requests that carry no ``X-Tenant`` header.
DEFAULT_TENANT = "public"

#: Hard caps on one request's header block and body.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024


class ProtocolError(ReproError):
    """A request violated HTTP framing (not query semantics).

    Attributes:
        status: the HTTP status code the violation maps to.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# Structured errors: one classification for stdin and the wire
# ---------------------------------------------------------------------------


def error_payload(exc: BaseException) -> dict:
    """The structured error body both frontends derive from one
    exception: ``{"error": {"type", "message"[, "position"]}}``.

    ``position`` (character offset of the offending token) appears
    exactly when the exception carries one — :class:`ParseError` does —
    so clients can point at the broken token instead of re-lexing the
    statement themselves.
    """
    payload: dict = {"type": type(exc).__name__, "message": str(exc)}
    position = getattr(exc, "position", None)
    if position is not None:
        payload["position"] = position
    return {"error": payload}


def format_error(exc: BaseException) -> str:
    """The same classification as :func:`error_payload`, rendered as
    the one-line form ``serve`` on stdin prints after ``error:``."""
    inner = error_payload(exc)["error"]
    suffix = (f" (at position {inner['position']})"
              if "position" in inner else "")
    return f"{inner['message']}{suffix}"


def status_for(exc: BaseException) -> int:
    """Map a library exception to the HTTP status it should travel as.

    Client-side mistakes (parse/bind/semantic errors, service misuse)
    are 400s; an unknown table or view is a 404; everything the server
    itself broke on (storage corruption, execution failure) is a 500.
    """
    if isinstance(exc, ProtocolError):
        return exc.status
    if isinstance(exc, CatalogError):
        return 404
    if isinstance(exc, (StorageError, ExecutionError)):
        return 500
    if isinstance(exc, ReproError):
        return 400
    return 500


# ---------------------------------------------------------------------------
# Statement accumulation (the serve command's stdin session)
# ---------------------------------------------------------------------------


class StatementAccumulator:
    """Accumulate input lines into complete statements.

    A statement may span several lines: a line ending with ``;`` always
    terminates it, and a buffer that parses as a complete statement is
    *held* — the next line may still extend it (clauses can follow in
    either order), and it only becomes a statement when a line arrives
    that cannot. A buffered fragment that can never complete is flushed
    as its own broken statement as soon as a self-contained statement
    follows it, so one typo does not swallow the rest of the session.

    Completed statements pile up in :attr:`pending` as ``(text,
    parsed)`` pairs, ``parsed`` being the statement or the
    :class:`~repro.errors.ReproError` its parse raised: the parse that
    found the statement's end is the only one. Callers take them with
    :meth:`take` at their flush points.
    """

    def __init__(self):
        self._fragment: list[str] = []
        #: The parse of the buffered fragment.
        self._parsed: ParsedStatement | ReproError | None = None
        self.pending: list[tuple[str, ParsedStatement | ReproError]] = []

    def feed(self, line: str) -> None:
        """Add one input line; move completed statements to pending."""
        text = "\n".join([*self._fragment, line]).rstrip(";")
        parsed = _parse(text)
        if self._fragment and isinstance(parsed, ReproError):
            held = not isinstance(self._parsed, ReproError)
            alone = None if held else _parse(line.rstrip(";"))
            if held or not isinstance(alone, ReproError):
                # The buffer cannot absorb this line. If it was a held
                # complete statement, emit it; if it is a hopeless
                # fragment followed by a self-contained statement, fail
                # it on its own terms. Either way, the line starts
                # fresh.
                self.drain()
                text = line.rstrip(";")
                parsed = _parse(text) if alone is None else alone
        if line.endswith(";"):
            self._fragment.clear()
            self.pending.append((text, parsed))
        else:
            self._fragment.append(line)
            self._parsed = parsed

    def drain(self) -> None:
        """A flush point ends any buffered statement (a partial one's
        parse error is reported downstream like any other broken
        query)."""
        if self._fragment:
            self.pending.append(("\n".join(self._fragment), self._parsed))
            self._fragment.clear()

    def take(self) -> list[tuple[str, ParsedStatement | ReproError]]:
        """Return the completed statements and reset :attr:`pending`."""
        statements, self.pending = self.pending, []
        return statements


def _parse(text: str) -> ParsedStatement | ReproError:
    """``parse_statement(text)``, or the :class:`ReproError` it
    raised."""
    from repro.cohana.parser import parse_statement

    try:
        return parse_statement(text)
    except ReproError as exc:
        return exc


# ---------------------------------------------------------------------------
# HTTP/1.1 framing
# ---------------------------------------------------------------------------


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    route: str
    params: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def tenant(self) -> str:
        """The admission identity: ``X-Tenant`` header or the default."""
        return self.headers.get("x-tenant", DEFAULT_TENANT) or \
            DEFAULT_TENANT

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body as one JSON object (empty body = empty object)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: "
                                f"{exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload


async def read_request(reader,
                       max_header_bytes: int = MAX_HEADER_BYTES,
                       max_body_bytes: int = MAX_BODY_BYTES,
                       ) -> HttpRequest | None:
    """Read one HTTP/1.1 request from an asyncio stream.

    Returns ``None`` on a clean EOF before any request byte (the peer
    closed an idle keep-alive connection). Raises
    :class:`ProtocolError` — carrying the right status — on malformed
    framing.
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request header block too large",
                            status=431) from None
    if len(header_block) > max_header_bytes:
        raise ProtocolError("request header block too large", status=431)
    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported protocol {version!r}",
                            status=505)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError("chunked request bodies are not supported",
                            status=411)
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length_text!r}") \
            from None
    if length < 0:
        raise ProtocolError(f"bad Content-Length {length}")
    if length > max_body_bytes:
        raise ProtocolError(f"request body of {length} bytes exceeds "
                            f"the {max_body_bytes}-byte cap",
                            status=413)
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    params = {k: v for k, v in parse_qsl(split.query)}
    return HttpRequest(method=method.upper(), target=target,
                       route=unquote(split.path) or "/",
                       params=params, headers=headers, body=body)


def render_response(status: int, body: dict | list | bytes | str,
                    *, keep_alive: bool = True,
                    extra_headers: dict[str, str] | None = None,
                    ) -> bytes:
    """Serialize one response. Dict/list bodies are sent as JSON."""
    if isinstance(body, (dict, list)):
        payload = (json.dumps(body, indent=None,
                              separators=(",", ":")) + "\n").encode()
        content_type = "application/json"
    elif isinstance(body, str):
        payload = body.encode()
        content_type = "text/plain; charset=utf-8"
    else:
        payload = body
        content_type = "application/octet-stream"
    headers = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + payload


# ---------------------------------------------------------------------------
# Result payloads
# ---------------------------------------------------------------------------


def result_digest(result) -> str:
    """The digest every parity check in this repo speaks:
    ``sha256(repr(rows))[:16]`` — identical to the benchmark suite's,
    so an HTTP response can be compared against a direct
    :class:`~repro.cohana.engine.CohanaEngine` run byte-for-byte."""
    return hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16]


def result_payload(result, stats=None) -> dict:
    """A :class:`CohortResult` (+ optional stats) as one JSON body.

    The digest is computed over the very rows being serialized, before
    JSON degrades tuples to lists — it is the server-side truth a
    client compares against a direct engine run.
    """
    payload = {
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "n_cohort_columns": result.n_cohort_columns,
        "digest": result_digest(result),
    }
    if stats is not None:
        payload["stats"] = asdict(stats)
    return payload
