"""Loopback chat-completions stub for the live-transport workload.

Run as its own process so that its CPU time stays out of the benchmark's:

    python3 perfbench/stub.py --plan DIR/plan.json

It binds an ephemeral port on 127.0.0.1, prints ``PORT <n>`` and serves until
terminated.  Each POST sleeps LATENCY_MS and answers from the
generator's plan (never from rulerverse's mock script).  ``GET /stats``
returns the chat requests served and the TCP connections that carried them.
"""
from __future__ import annotations

import argparse
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

LATENCY_MS = 10.0  # injected per request; the base of the transport ratios in README.md
_CRITERION = re.compile(r"criterion: (.+?)\. Rate it")
_SYSTEM = re.compile(r"\[\[(sys\d+)\]\]")
_SLOT = re.compile(r"\[\[slot(\d+)\]\]")


def answer(plan: dict, user_text: str) -> str | None:
    """The plan's score line for a ruler or grading prompt; None if unplanned."""
    system = _SYSTEM.search(user_text)
    if system is None:
        return None
    if "Judge whether the candidate translation satisfies" in user_text:
        slot = _SLOT.search(user_text)
        score = plan["grades"][system.group(1)].get(str(int(slot.group(1)))) if slot else None
    else:
        match = _CRITERION.search(user_text)
        by_display = {d: c for c, d in plan["criteria"].items()}
        criterion = by_display.get(match.group(1)) if match else None
        score = plan["ruler"][system.group(1)].get(criterion) if criterion else None
    return None if score is None else f"Score: {score}"


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.plan = plan
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: a client may reuse one connection
    server: StubServer

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        with self.server.lock:
            stats = {"requests": self.server.requests, "connections": self.server.connections}
        self._send(200, stats)

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with self.server.lock:
            self.server.requests += 1
            if not getattr(self, "_counted", False):
                self.server.connections += 1
                self._counted = True
        time.sleep(LATENCY_MS / 1000.0)
        text = answer(self.server.plan, body["messages"][-1]["content"])
        if text is None:
            self._send(400, {"error": {"message": "prompt not in the plan"}})
        else:
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    server = StubServer(plan)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
