"""Run a server object's asyncio lifecycle on a private thread.

The system under test (a ``JoinServer`` or a ``FleetHandle``) runs on its
own event loop in a background thread of the benchmark process; its worker
pools are child processes.  The load generator talks to it over loopback
sockets through the program's blocking ``JoinClient``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable

START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 120.0


class LoopThread:
    """Owns ``target`` (anything with ``async start()``/``async stop()``)."""

    def __init__(self, target: Any) -> None:
        self.target = target
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="sut-loop", daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.target.start()
                self._started.set()
                await self._stop.wait()
            finally:
                await self.target.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            self._failure = error
        finally:
            self._started.set()

    def start(self) -> "LoopThread":
        self._thread.start()
        if not self._started.wait(START_TIMEOUT_S):
            raise TimeoutError("system under test did not start")
        if self._failure is not None:
            raise RuntimeError("system under test failed to start") from self._failure
        return self

    def call(self, function: Callable[[], Any]) -> Any:
        """Run ``function`` on the loop thread and return its result."""
        assert self._loop is not None

        async def invoke() -> Any:
            return function()

        return asyncio.run_coroutine_threadsafe(invoke(), self._loop).result(30)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(STOP_TIMEOUT_S)
        if self._thread.is_alive():
            raise TimeoutError("system under test did not stop")
        if self._failure is not None:
            raise RuntimeError("system under test failed") from self._failure
