"""Service assembly: persistent coordinator + HTTP frontend + workers.

:class:`ServeService` wires the pieces of ``python -m repro serve``
together from one :class:`~repro.config.ServeConfig`:

* a :class:`~repro.dist.coordinator.Coordinator` in *persistent* mode
  (jobs arrive via :meth:`~repro.dist.coordinator.Coordinator.submit`,
  the batch never "finishes"), whose event loop also owns the HTTP
  listener as a frontend;
* a :class:`~repro.serve.app.QueryApp` routing queries between banked
  state and the queue;
* ``config.workers`` in-thread workers speaking the ordinary worker
  protocol over loopback.  They are detected as *local* at handshake
  (same host + pid), so they share the process's kernel cache and store
  tiers directly and nothing is seeded or double-absorbed.  External
  workers can additionally join via the published ``--distributed``
  address, exactly like ``python -m repro worker``.

Closing the service broadcasts ``done`` to every idle worker (the
persistent-close path of the coordinator), so in-thread workers unwind
through their normal farewell and the store flushes once, at the single
writer.

A restarted service needs no recovery state of its own: results banked
before the crash live in the store, and clients re-POST their queries
anyway, because job ids die with the process.
"""

from __future__ import annotations

import threading

from ..config import ServeConfig
from ..dist.coordinator import Coordinator
from ..dist.executor import parse_address
from ..dist.worker import run_worker
from ..errors import DistError
from .app import QueryApp
from .http import HttpConnection

__all__ = ["ServeService"]


class ServeService:
    """A running solvability query service (context manager).

    ``with ServeService(config) as service:`` starts everything and
    tears it down on exit; ``service.http_address`` is the bound
    ``(host, port)`` of the HTTP listener (query it with plain
    ``urllib``/``curl``), ``service.dist_address`` the worker port.
    """

    def __init__(self, config: ServeConfig | None = None, *, log=None):
        self._config = config if config is not None else ServeConfig()
        self._log = log or (lambda message: None)
        self._app: QueryApp | None = None
        self._coordinator: Coordinator | None = None
        self._workers: list[threading.Thread] = []
        self._started = False

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def app(self) -> QueryApp:
        if self._app is None:
            raise DistError("service not started")
        return self._app

    @property
    def http_address(self) -> tuple[str, int]:
        if self._coordinator is None:
            raise DistError("service not started")
        return tuple(self._coordinator.frontend_addresses[0])

    @property
    def dist_address(self) -> tuple[str, int]:
        if self._coordinator is None:
            raise DistError("service not started")
        return self._coordinator.address

    @property
    def alive(self) -> bool:
        return self._coordinator is not None and self._coordinator.alive

    def start(self) -> "ServeService":
        if self._started:
            raise DistError("service already started")
        config = self._config
        if config.store.mode != "off":
            # Only touch the global store when the config asks for one;
            # an embedding process (or test) may have configured its own.
            config.store.apply()
        app = QueryApp(budget=config.budget, backend=config.backend)
        http_host, http_port = parse_address(config.http)
        if config.distributed is not None:
            dist_host, dist_port = parse_address(config.distributed)
        else:
            dist_host, dist_port = "127.0.0.1", 0
        coordinator = Coordinator(
            [],
            host=dist_host,
            port=dist_port,
            persistent=True,
            lease_timeout=config.lease_timeout,
            wait_delay=config.wait_delay,
            frontends=[(http_host, http_port, lambda: HttpConnection(app))],
            on_complete=app.on_complete,
            log=self._log,
        )
        host, port = coordinator.start()
        app.bind(coordinator)
        self._app = app
        self._coordinator = coordinator
        self._started = True
        for i in range(config.workers):
            thread = threading.Thread(
                target=self._worker_main,
                args=(host, port, f"serve-worker-{i}"),
                name=f"serve-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        http = self.http_address
        self._log(
            f"serving queries on http://{http[0]}:{http[1]} "
            f"(workers at {host}:{port}, {config.workers} in-thread)"
        )
        return self

    def _worker_main(self, host: str, port: int, worker_id: str) -> None:
        try:
            run_worker(host, port, worker_id=worker_id, retry=5.0)
        except DistError as exc:  # pragma: no cover - startup race only
            self._log(f"{worker_id}: {exc}")

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
        for thread in self._workers:
            thread.join(timeout=10.0)
        self._workers = []

    def __enter__(self) -> "ServeService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
