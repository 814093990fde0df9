"""A small client for the JSONL-over-TCP serve protocol.

One class, three layers of convenience:

* **Line framing** — the protocol is one JSON object per line (see
  :mod:`repro.engine.batch`); :meth:`SocketClient.send_line` /
  :meth:`SocketClient.recv_line` move whole lines with explicit timeouts.
* **Connect / reconnect** — :meth:`SocketClient.connect` is idempotent,
  :meth:`SocketClient.reconnect` tears down and redials; every failure
  surfaces as :class:`ConnectionError` (or ``TimeoutError``), never a
  half-usable stream.
* **Request/response** — :meth:`SocketClient.request` sends one record and
  waits for the response bearing its id (responses may complete out of
  order), and :meth:`SocketClient.ask` runs a whole conversation.

Used by the cluster router (one multiplexed ``SocketClient`` per backend),
by the socket-mode tests, and by ``kmt query --connect HOST:PORT``.
"""

from __future__ import annotations

import json
import socket

__all__ = ["SocketClient"]


class SocketClient:
    """One framed JSONL connection to a ``kmt serve --socket`` endpoint.

    Not thread-safe as a whole, by design: the router has one thread at a
    time sending and another receiving on the same connection, which is exactly the split
    ``send_line`` / ``recv_line`` supports (each side is single-threaded).
    ``io_timeout`` (seconds, ``None`` = block) applies to every read; writes
    use the same socket timeout.
    """

    def __init__(self, host, port, connect_timeout=5.0, io_timeout=None):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self._sock = None
        self._reader = None

    # -- connection lifecycle ------------------------------------------------

    @property
    def connected(self):
        return self._sock is not None

    def connect(self):
        """Dial the endpoint (idempotent); raises ``ConnectionError``/
        ``TimeoutError`` on failure."""
        if self._sock is not None:
            return self
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.connect_timeout)
        except socket.timeout as error:
            raise TimeoutError(
                f"connect to {self.host}:{self.port} timed out "
                f"after {self.connect_timeout}s") from error
        except OSError as error:
            raise ConnectionError(
                f"cannot connect to {self.host}:{self.port}: {error}") from error
        sock.settimeout(self.io_timeout)
        # One JSON line per request either way; batching happens above this
        # layer, so trade Nagle latency away.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        return self

    def reconnect(self):
        """Tear the connection down and dial again."""
        self.close()
        return self.connect()

    def close(self):
        sock, self._sock = self._sock, None
        reader, self._reader = self._reader, None
        if sock is not None:
            # Shut the socket down BEFORE touching the reader: a thread
            # blocked in a read holds the buffered reader's lock, and closing
            # that file object would deadlock on it — shutdown() makes the
            # blocked read return EOF first, releasing the lock.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if reader is not None:
            try:
                reader.close()
            except (OSError, ValueError):
                pass

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info):
        self.close()

    # -- line framing --------------------------------------------------------

    def send_line(self, line):
        """Send one protocol line (newline appended here).

        A broken connection raises ``ConnectionError`` and leaves the client
        closed, so ``connected`` is an honest health signal.
        """
        if self._sock is None:
            raise ConnectionError(f"not connected to {self.host}:{self.port}")
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as error:
            self.close()
            raise ConnectionError(
                f"send to {self.host}:{self.port} failed: {error}") from error

    def send_record(self, record):
        self.send_line(json.dumps(record, sort_keys=True))

    def recv_line(self):
        """Receive one line (stripped), or ``None`` on orderly EOF.

        Raises ``TimeoutError`` when ``io_timeout`` expires — the connection
        is closed then, because a line-framed stream abandoned mid-read
        cannot be resynchronized — and ``ConnectionError`` on a reset.
        """
        if self._reader is None:
            raise ConnectionError(f"not connected to {self.host}:{self.port}")
        try:
            line = self._reader.readline()
        except socket.timeout as error:
            self.close()
            raise TimeoutError(
                f"read from {self.host}:{self.port} timed out "
                f"after {self.io_timeout}s") from error
        except (OSError, ValueError) as error:  # ValueError: file closed under us
            self.close()
            raise ConnectionError(
                f"read from {self.host}:{self.port} failed: {error}") from error
        if line == "":
            self.close()
            return None
        return line.rstrip("\n")

    def recv_record(self):
        """Receive and parse one response object, or ``None`` on EOF."""
        line = self.recv_line()
        if line is None:
            return None
        return json.loads(line)

    # -- request/response ----------------------------------------------------

    def request(self, record, timeout=-1):
        """Send one request and wait for *its* response (matched by id).

        The server answers out of order; responses for other ids received
        while waiting are discarded — use this only for strictly sequential
        conversations (the CLI one-shot, tests), not multiplexed traffic.
        ``timeout=-1`` keeps the client's ``io_timeout``; any other value
        replaces it for this call.  EOF before the response raises
        ``ConnectionError``.
        """
        wanted = record.get("id")
        previous = self.io_timeout
        if timeout != -1 and self._sock is not None:
            self.io_timeout = timeout
            self._sock.settimeout(timeout)
        try:
            self.send_record(record)
            while True:
                response = self.recv_record()
                if response is None:
                    raise ConnectionError(
                        f"{self.host}:{self.port} closed before answering "
                        f"id {wanted!r}")
                if wanted is None or response.get("id") == wanted:
                    return response
        finally:
            self.io_timeout = previous
            if self._sock is not None:
                self._sock.settimeout(previous)

    def ask(self, records, quit=True):
        """Send ``records``, then collect every response until EOF.

        Appends ``{"op": "quit"}`` (connection-scoped drain) unless ``quit``
        is false; returns the parsed responses in arrival order.
        """
        for record in records:
            self.send_record(record)
        if quit:
            self.send_record({"op": "quit"})
        responses = []
        while True:
            response = self.recv_record()
            if response is None:
                return responses
            responses.append(response)

