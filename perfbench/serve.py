"""Process and wire plumbing: timed child processes, the ``graphsig
serve`` process and one blocking TCP client connection."""

import os
import socket
import subprocess
import threading
import time

import helpers

# A request that has not answered after this long counts as missing.
REQUEST_TIMEOUT_S = 120.0


def run_timed(argv, cwd=None):
    """Run ``argv`` to completion. Returns ``(seconds, returncode,
    stdout, stderr, max_rss_kb)``; the time runs from spawn until the
    child has exited and its stdout is fully read."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return elapsed, proc.returncode, out, err[0], usage.ru_maxrss


class Server:
    """``graphsig serve --tcp 127.0.0.1:0 --workers N``. Its stderr is
    drained on a thread; ``--log`` request lines are kept in memory."""

    def __init__(self, binary, workers, log=False, cwd=None):
        argv = [binary, "serve", "--tcp", "127.0.0.1:0", "--workers", str(workers)]
        if log:
            argv.append("--log")
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.log = []
        self.port = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(30) or self.port is None:
            self.stop()
            raise RuntimeError("graphsig serve did not report a listening port")

    def _drain(self):
        for line in self.proc.stderr:
            if self.port is None and "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                self._ready.set()
                continue
            entry = helpers.parse_log_line(line)
            if entry is not None:
                self.log.append(entry)
        self._ready.set()

    def connect(self):
        return Client(self.port)

    def peak_rss_kb(self):
        """The server's VmHWM (peak resident set), in kB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        """Ask for a drained shutdown, then make sure the process is gone
        and its stderr is fully read."""
        if self.proc.poll() is None and self.port is not None:
            try:
                with self.connect() as c:
                    c.request("shutdown id=bench-shutdown drain_ms=5000")
            except (OSError, RuntimeError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=30)
        self.proc.stderr.close()


class Client:
    """One TCP connection speaking the line protocol, one request at a
    time (closed loop)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.sock.close()

    def _read_until_newline(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("connection closed mid-response")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()

    def _read_exact(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(max(1 << 16, n - len(self.buf)))
            if not chunk:
                raise RuntimeError("connection closed mid-payload")
            self.buf += chunk
        data, self.buf = self.buf[:n], self.buf[n:]
        return data.decode()

    def request(self, line):
        """Send one request line; return ``(seconds, header, payload)``,
        timed from send to the last payload byte."""
        t0 = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        header = helpers.parse_header(self._read_until_newline())
        payload = self._read_exact(header["bytes"])
        return time.perf_counter() - t0, header, payload
