"""A stdlib HTTP client for the prover service.

Thin and dependency-free (``urllib``): the loadgen, the smoke tests,
the cluster router, and any external tool drive the service through
this.  One instance is safe to share across threads — each call opens
its own connection.

Transport resilience: a worker restart (or any network blip) surfaces
as ``ECONNREFUSED``/``ECONNRESET``/read timeouts mid-call.  Those are
safe to retry — ``POST /prove`` is idempotent (the service
single-flights on :meth:`~repro.eval.tasks.TheoremTask.cache_key`, so
a duplicate submit joins the in-flight job instead of starting a
second search) and every ``GET`` is read-only — so :meth:`_request`
retries transient transport errors with bounded, deterministic
seeded backoff (:func:`repro.resilience.backoff`).  HTTP
*error responses* (4xx/5xx) are answers, not transport faults, and
are never retried.  Exhaustion raises :class:`ProverTransportError`;
``client.transport_retries`` counts retries for observability.

Usage::

    client = ProverClient("http://127.0.0.1:8421")
    job = client.prove(theorem="rev_involutive", model="gpt-4o")
    record = client.wait(job["job"], timeout=120.0)
    if record["record"]["status"] == "proved":
        print(record["record"]["generated_proof"])
"""

from __future__ import annotations

import http.client
import json
import math
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

from repro.errors import ReproError
from repro.resilience import backoff

__all__ = [
    "ProverClient",
    "ProverServiceError",
    "ProverTransportError",
    "JobTimeout",
]

RETRY_BASE_DELAY = 0.05  # seconds before the first transport retry


class ProverServiceError(ReproError):
    """An HTTP error from the service, with its status and payload."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )


class ProverTransportError(ReproError):
    """The service could not be reached within the retry budget."""


class JobTimeout(ReproError):
    """A job did not finish within the caller's wait budget."""


class ProverClient:
    """Blocking JSON client over the service's HTTP routes."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.sleep = sleep
        #: Transport retries performed over this client's lifetime.
        self.transport_retries = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _open(self, request) -> dict:
        with urllib.request.urlopen(
            request, timeout=self.timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.transport_retries += 1
                # Uncapped: the retry count bounds the wait.
                self.sleep(
                    backoff(
                        attempt - 1,
                        path,
                        attempt,
                        base=RETRY_BASE_DELAY,
                        cap=math.inf,
                        jitter=1.0,
                    )
                )
            try:
                return self._open(request)
            except urllib.error.HTTPError as exc:
                # A status line came back: this is a response, not a
                # transport fault — surface it without retrying.
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = {"error": str(exc)}
                raise ProverServiceError(exc.code, payload) from exc
            except (OSError, http.client.HTTPException) as exc:
                # ECONNREFUSED/ECONNRESET/timeouts/torn responses — the
                # shapes a restarting worker produces.  URLError is an
                # OSError subclass, so this covers urlopen's wrapping.
                last = exc
        raise ProverTransportError(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{type(last).__name__}: {last}"
        ) from last

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def prove(self, **task_fields) -> dict:
        """``POST /prove``; returns the admission payload (job id).

        Keyword arguments are the task fields (``theorem``/``goal``,
        ``model``, ``hinted``, ``width``, ``fuel``, …).
        """
        return self._request("POST", "/prove", task_fields)

    def job(self, job_id: str, wait: Optional[float] = None) -> dict:
        """``GET /jobs/<id>``; ``wait`` long-polls server-side."""
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 5.0,
    ) -> dict:
        """Block until the job finishes; returns the final status JSON.

        Uses server-side long-polling (bounded by ``poll`` per round
        trip) so the job usually returns on the first response after it
        completes rather than on the next poll tick.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise JobTimeout(
                    f"job {job_id} still unfinished after {timeout:g}s"
                )
            status = self.job(job_id, wait=min(poll, max(remaining, 0.0)))
            if status.get("state") in ("done", "failed"):
                return status

    def prove_and_wait(
        self, timeout: float = 300.0, poll: float = 5.0, **task_fields
    ) -> dict:
        """Submit and block for the result in one call."""
        admitted = self.prove(**task_fields)
        if admitted.get("state") in ("done", "failed"):
            return admitted  # warm cache hit answered inline
        return self.wait(admitted["job"], timeout=timeout, poll=poll)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """``GET /metrics`` in Prometheus text exposition format."""
        request = urllib.request.Request(
            self.base_url + "/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ProverServiceError(
                exc.code, {"error": str(exc)}
            ) from exc
