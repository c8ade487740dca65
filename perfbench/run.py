#!/usr/bin/env python3
"""End-to-end benchmark of GraphSig: the release ``graphsig`` binary,
driven as a one-shot CLI and as a resident TCP server.

    python3 perfbench/run.py --workload serve-mine --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The script builds the binary
and the ``gsbench`` helper with cargo, makes the workload's inputs from
``--seed``, sets up (several times, for ``setup_s``), measures for
``--seconds``, checks every answer, and prints one JSON result as the
last line of stdout. ``--trace 1`` makes a separate traced run that
reports per-layer metrics instead. See README.md in this directory.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import helpers  # noqa: E402
import serve  # noqa: E402

WORKERS = 2
CLIENTS = 2
SETUP_REPEATS = 9
SHARDS = 4  # every served dataset is packed into this many shards

# oneshot-tail: the OVCAR-8 screen at 1% scale, mined one run at a time.
SCREEN = ("OVCAR-8", "0.01")
ONESHOT_FLAGS = ("--min-freq", "0.05", "--radius", "6")
ONESHOT_KEY = "0.05,0.1,6,fsg"  # the same flags as a replay setting (max_pvalue default)
ONESHOT_SETUP_REPEATS = 15  # its set-up is one short `graphsig stats`: repeat more

# serve-*: fixed molecule populations; --seed shuffles them.
MINE_POPULATION, MINE_MOLECULES = 42, 250
RELOAD_POPULATIONS, RELOAD_MOLECULES = (42, 43), 1000
GRID = [(mf, pv, r) for mf in ("0.03", "0.05", "0.1")
        for pv in ("0.05", "0.1") for r in ("5", "8")]
WARMUP_KEY = ("0.1", "0.05", "5", "fsg")
# serve-mine: one pipeline thread per request, so two concurrent mines
# use the two cores without oversubscribing them. A client's round sends
# each of its six settings twice, every fourth request on gSpan.
MINE_THREADS = 1
MINE_ROUND = 12
RELOAD_KEY = ("0.05", "0.05", "5", "fsg")
# serve-reload: the freq supports of every round (one sweep covers them).
RELOAD_SUPPORTS = (100, 150, 200, 250)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


# ------------------------------------------------------------------ build --

def build(root):
    """Build ``graphsig`` and ``gsbench`` in release mode; return their
    paths. Cargo output goes to stderr."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        raise BenchError("run from the root of a graphsig source checkout")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (["cargo", "build", "--release", "--offline", "-p", "graphsig-cli"],
                 ["cargo", "build", "--release", "--offline",
                  "--manifest-path", os.path.join("perfbench", "replay", "Cargo.toml")]):
        if subprocess.run(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                          stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: %s" % " ".join(argv))
    release = os.path.join(target, "release")
    return os.path.join(release, "graphsig"), os.path.join(release, "gsbench")


def source_digest(root):
    """The checkout's commit when it is a git repository, else a digest
    of the sources the binary is built from."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    paths = [os.path.join(d, f) for d, _, fs in os.walk(os.path.join(root, "crates"))
             for f in fs if f.endswith(".rs") or f == "Cargo.toml"]
    for p in sorted(paths) + [os.path.join(root, "Cargo.lock")]:
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


# ---------------------------------------------------------------- the run --

class Run:
    """One benchmark invocation: binaries, scratch directory, failure
    counts, output-check verdicts and the result record."""

    def __init__(self, args, root, graphsig, gsbench):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.graphsig = graphsig
        self.gsbench = gsbench
        self.work = os.path.join(root, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
        self.failures = {"errors": 0, "busy": 0, "dropped": 0, "missing": 0}
        self.attempted = 0
        self.problems = []  # output-check failures, one line each
        self.record = {}
        self.lock = threading.Lock()

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, ok, what):
        if not ok:
            with self.lock:
                self.problems.append(what)
            log("CHECK FAILED: " + what)

    def count(self, kind):
        with self.lock:
            self.failures[kind] += 1

    def gen(self, args, out_path):
        """Write a generated transaction file."""
        with open(out_path, "wb") as f:
            rc = subprocess.run([self.gsbench, "gen", *args], stdout=f, stderr=sys.stderr,
                                stdin=subprocess.DEVNULL).returncode
        if rc != 0:
            raise BenchError("gsbench gen %s failed" % " ".join(args))

    def pack(self, text, store, molecules):
        shutil.rmtree(store, ignore_errors=True)
        shard_size = str(-(-molecules // SHARDS))
        rc = subprocess.run([self.graphsig, "pack", text, store, "--shard-size", shard_size],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        if rc != 0:
            raise BenchError("graphsig pack %s failed" % text)

    def property(self, name, value):
        """Record and print the property that defines the workload."""
        self.record.setdefault("property", {})[name] = value
        log("workload property %s = %.4f" % (name, value))


class Connection:
    """One client thread's connection. Every outcome other than
    ``status=ok`` counts as a failure; nothing is retried. A dropped
    connection is replaced for the next request."""

    def __init__(self, run, server, client_id, records):
        self.run, self.server, self.client_id, self.records = run, server, client_id, records
        self.conn = server.connect()

    def send(self, line, op, key):
        """Send one request; return its record, or ``None`` when no
        response came back."""
        run = self.run
        with run.lock:
            run.attempted += 1
        try:
            secs, header, payload = self.conn.request(line)
        except (OSError, RuntimeError, ValueError) as e:
            run.count("missing" if isinstance(e, TimeoutError) else "dropped")
            log("request %r: %r" % (line[:60], e))
            self.conn.close()
            self.conn = self.server.connect()
            return None
        if header["status"] != "ok":
            run.count("busy" if header["status"] == "busy" else "errors")
            log("request %r: status=%s %s" % (line[:60], header["status"], header.get("error", "")))
        rec = {"op": op, "key": key, "ms": secs * 1e3, "status": header["status"],
               "header": header, "payload": payload, "end": time.perf_counter(),
               "client": self.client_id}
        self.records.append(rec)
        return rec

    def close(self):
        self.conn.close()


class Rounds:
    """The timed window as whole rounds. Every client starts each round
    together, so each run sends a whole number of every client's fixed
    request round and the request mix does not depend on where the
    window ends (``helpers.another_round`` decides when it does)."""

    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.round = 0  # rounds started
        self.go = True
        self.barrier = threading.Barrier(CLIENTS, action=self._decide,
                                         timeout=serve.REQUEST_TIMEOUT_S * 3)

    def _decide(self):
        self.go = helpers.another_round(time.perf_counter(), self.start, self.round,
                                        self.deadline)
        if self.go:
            self.round += 1

    def next(self):
        """Wait for every client; true while another round runs."""
        self.barrier.wait()
        return self.go


def run_clients(run, bodies, barriers=()):
    """Run one thread per client body and wait for all of them. A crash
    fails the run's checks (and breaks the barriers, releasing the other
    client) instead of silently shortening the sample."""
    def guarded(body):
        try:
            body()
        except Exception as e:  # noqa: BLE001 - any crash invalidates the run
            run.check(False, "client crashed: %r" % (e,))
            for barrier in barriers:
                barrier.abort()
    threads = [threading.Thread(target=guarded, args=(b,)) for b in bodies]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def mine_line(rid, mf, pv, r, backend, threads=None):
    line = "mine id=%s dataset=d min_freq=%s max_pvalue=%s radius=%s backend=%s" % (
        rid, mf, pv, r, backend)
    return line if threads is None else line + " threads=%d" % threads


def cli_references(run, jobs):
    """One-shot ``graphsig mine`` at one thread for each ``(text, key)``,
    two at a time. Returns ``{(text, key): (stdout, stderr)}``."""
    def one(job):
        text, (mf, pv, r, backend) = job
        _, rc, out, err, _ = serve.run_timed(
            [run.graphsig, "mine", text, "--min-freq", mf, "--max-pvalue", pv, "--radius", r,
             "--backend", backend, "--threads", "1"])
        run.check(rc == 0, "one-shot mine %s %s exited %d" % (text, job[1], rc))
        return job, (out.decode(), err.decode())
    with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
        return dict(pool.map(one, sorted(jobs)))


def run_stats(err_text):
    """Counts from the CLI's ``# N graphs, V vectors, S significant
    vectors, R region sets`` stderr line."""
    for line in err_text.splitlines():
        if line.startswith("# ") and " vectors, " in line:
            words = line[2:].replace(",", "").split()
            return {"molecules": int(words[0]), "vectors": int(words[2]),
                    "region_sets": int(words[7])}
    return {}


def stats_snapshot(server):
    with server.connect() as c:
        _, header, _ = c.request("stats id=bench-stats")
    keys = ("coalesce_leads", "coalesce_riders", "busy_rejected", "errors")
    return {k: int(header[k]) for k in keys}


def window_metrics(run, primary, mines, records, start):
    """Latency and throughput from a timed window; per-op medians go to
    the record."""
    ok = [r["ms"] for r in primary if r["status"] == "ok"]
    mine_ok = [r["ms"] for r in mines if r["status"] == "ok"]
    if not ok or not mine_ok:
        raise BenchError("no successful request in the timed window")
    pct, tail_ms = helpers.tail(ok)
    # Closed loop: each client's completions over its time to the last one.
    ends = {}
    for r in records:
        if r["status"] == "ok":
            ends.setdefault(r["client"], []).append(r["end"])
    ops = {}
    for r in records:
        if r["status"] == "ok":
            ops.setdefault(r["op"], []).append(r["ms"])
    run.record.update({
        "samples": len(ok), "tail_percentile": pct, "mine_samples": len(mine_ok),
        "ops": {op: {"n": len(v), "p50_ms": round(helpers.percentile(v, 50), 3)}
                for op, v in sorted(ops.items())},
    })
    return {
        "p50_ms": helpers.percentile(ok, 50),
        "tail_ms": tail_ms,
        "mine_p50_ms": helpers.percentile(mine_ok, 50),
        "req_per_s": sum(len(e) / (max(e) - start) for e in ends.values()),
    }


# ------------------------------------------------------------ oneshot-tail --

def oneshot_tail(run):
    text = run.path("screen.txt")
    run.gen(["screen", SCREEN[0], SCREEN[1], str(run.seed)], text)
    # Set-up: the one-shot CLI's fixed cost (spawn, read, parse, exit) on
    # this input, timed as `graphsig stats`.
    setups = [stats_seconds(run, text) for _ in range(ONESHOT_SETUP_REPEATS)]
    argv = [run.graphsig, "mine", text, *ONESHOT_FLAGS]
    runs = []
    start = time.perf_counter()
    while time.perf_counter() < start + run.seconds:
        run.attempted += 1
        secs, rc, out, err, rss = serve.run_timed(argv)
        if rc != 0:
            run.count("errors")
            continue
        runs.append({"op": "mine", "ms": secs * 1e3, "status": "ok", "out": out, "err": err,
                     "rss": rss, "end": time.perf_counter(), "client": 0})
    if not runs:
        raise BenchError("no one-shot mine succeeded")
    metrics = window_metrics(run, runs, runs, runs, start)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(r["rss"] for r in runs) / 1024
    run.record.update(run_stats(runs[0]["err"].decode()))
    run.record["per_request_threads"] = "auto (%d)" % os.cpu_count()
    # Output check: every timed run prints what the same command prints
    # at one thread.
    _, rc, reference, _, _ = serve.run_timed(argv + ["--threads", "1"])
    run.check(rc == 0 and all(r["out"] == reference for r in runs),
              "a timed one-shot mine differs from the same mine at --threads 1")
    replay_args = ["--text", text]
    if run.trace:
        store = run.path("screen.store")
        run.pack(text, store, run.record["molecules"])
        replay_args += ["--store", store]
        layers = oneshot_server_leg(run, store, reference.decode())
    # The workload property comes from the replay's spans; on timed runs
    # the replay skips its untraced pass (``--quick``).
    replay = replay_workload(run, [(replay_args, [ONESHOT_KEY], [])], quick=not run.trace)
    run.property("fsg.top_set_share", replay["fsg.top_set_share"])
    if run.trace:
        run.check(replay["fingerprints"][ONESHOT_KEY] == fnv1a(reference),
                  "the traced replay differs from the one-shot CLI output")
        return finish_trace(run, layers, replay, text)
    return metrics


def stats_seconds(run, text):
    """Wall time of one `graphsig stats` on ``text``."""
    secs, rc, _, _, _ = serve.run_timed([run.graphsig, "stats", text])
    if rc != 0:
        raise BenchError("graphsig stats %s failed" % text)
    return secs


def fnv1a(data):
    """FNV-1a 64 as hex, the digest ``gsbench replay`` reports."""
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def oneshot_server_leg(run, store, reference):
    """The traced run's server leg for oneshot-tail: the same mine through
    a logging server, checked against the one-shot output."""
    server = serve.Server(run.graphsig, WORKERS, log=True, cwd=run.work)
    records = []
    try:
        before = stats_snapshot(server)
        s = Connection(run, server, 0, records)
        s.send("load id=L0 dataset=d path=%s format=packed" % store, "load", None)
        rec = s.send(mine_line("M0", ONESHOT_FLAGS[1], "0.1", ONESHOT_FLAGS[3], "fsg"), "mine", None)
        s.close()
        run.check(rec is not None and rec["payload"] == reference,
                  "server mine payload differs from the one-shot CLI output")
        after = stats_snapshot(server)
    finally:
        server.stop()
    return server_layers(server.log, records, before, after)


# -------------------------------------------------------------- serve-mine --

def client_settings():
    """Disjoint halves of the grid (a checkerboard over min_freq x
    max_pvalue x radius), each client's half in a fixed order, plus the
    one setting each client mines with gSpan: its min_freq 0.1, radius 5
    point. The order does not depend on the seed, so every run sends the
    same request mix."""
    halves = ([], [])
    for i, setting in enumerate(GRID):
        halves[(i // 4 + i // 2 + i) % 2].append(setting)
    return [(half, next(s for s in half if s[0] == "0.1" and s[2] == "5"))
            for half in halves]


def start_server(run, loads):
    """Start a server and send set-up requests; all must succeed."""
    server = serve.Server(run.graphsig, WORKERS, log=run.trace, cwd=run.work)
    with server.connect() as c:
        for line in loads:
            _, h, _ = c.request(line)
            if h["status"] != "ok":
                server.stop()
                raise BenchError("set-up request %r failed: %s" % (line, h))
    return server


def serve_mine(run):
    text, store = run.path("aids.txt"), run.path("aids.store")
    run.gen(["aids", str(MINE_MOLECULES), str(MINE_POPULATION), str(run.seed)], text)
    server, setups = None, []
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            run.pack(text, store, MINE_MOLECULES)
            server = start_server(run, ["load id=L dataset=d path=%s format=packed" % store,
                                        mine_line("W", *WARMUP_KEY)])
            setups.append(time.perf_counter() - t0)
        server.log.clear()
        before = stats_snapshot(server)
        records = []
        rounds = Rounds(run.seconds)

        def client(ci, settings, gspan_setting):
            s = Connection(run, server, ci, records)
            k = 0
            while rounds.next():
                for _ in range(MINE_ROUND):
                    key = ((*gspan_setting, "gspan") if k % 4 == 3
                           else (*settings[k % len(settings)], "fsg"))
                    s.send(mine_line("c%d-%d" % (ci, k), *key, threads=MINE_THREADS), "mine", key)
                    k += 1
            s.close()

        run_clients(run, [lambda ci=ci, st=st, g=g: client(ci, st, g)
                          for ci, (st, g) in enumerate(client_settings())], [rounds.barrier])
        peak = server.peak_rss_kb()
        after = stats_snapshot(server)
    finally:
        if server is not None:
            server.stop()
    # Output check: every mine payload equals the one-shot CLI output.
    refs = cli_references(run, {(text, r["key"]) for r in records})
    for r in records:
        if r["status"] == "ok":
            run.check(r["payload"] == refs[(text, r["key"])][0],
                      "mine %s payload differs from the one-shot CLI" % (r["key"],))
    metrics = window_metrics(run, records, records, records, rounds.start)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak / 1024
    run.record.update(run_stats(refs[min(refs)][1]))
    run.record.update({"distinct_settings": len(refs), "per_request_threads": MINE_THREADS,
                       "rounds": rounds.round})
    hits = sum(1 for r in records if r["header"].get("cached") == "hit")
    run.property("hit_share", hits / len(records))
    if not run.trace:
        return metrics
    layers = server_layers(server.log, records, before, after)
    keys = sorted({",".join(r["key"]) for r in records})
    replay = replay_workload(run, [(["--text", text, "--store", store], keys, [])])
    return finish_trace(run, layers, replay, text)


# ------------------------------------------------------------ serve-reload --

def serve_reload(run):
    texts = [run.path("a.txt"), run.path("b.txt")]
    stores = [run.path("a.store"), run.path("b.store")]
    for i, pop in enumerate(RELOAD_POPULATIONS):
        run.gen(["aids", str(RELOAD_MOLECULES), str(pop), str(run.seed + i)], texts[i])
    server, setups = None, []
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            for text, store in zip(texts, stores):
                run.pack(text, store, RELOAD_MOLECULES)
            server = start_server(run, ["load id=L dataset=d path=%s format=packed" % stores[0]])
            setups.append(time.perf_counter() - t0)
        server.log.clear()
        version_store = {1: 0}  # dataset version -> store it holds; set-up loaded version 1
        before = stats_snapshot(server)
        records = []
        rounds = Rounds(run.seconds)
        loaded = threading.Barrier(CLIENTS, timeout=serve.REQUEST_TIMEOUT_S * 3)

        def client(ci):
            s = Connection(run, server, ci, records)
            while rounds.next():
                n = rounds.round
                if ci == 0:
                    # 1. Replace the dataset; the other client waits for it.
                    target = n % 2
                    rec = s.send("load id=L%d dataset=d path=%s format=packed"
                                 % (n, stores[target]), "load", target)
                    if rec is not None and rec["status"] == "ok":
                        version_store[int(rec["header"]["version"])] = target
                loaded.wait()
                # 2. The same mine from both: one leads a cold run, one rides.
                s.send(mine_line("m%d-%d" % (n, ci), *RELOAD_KEY), "mine", RELOAD_KEY)
                # 3. freq at distinct supports, alternating backends, then a
                # sweep over the same supports.
                for j, sup in enumerate(RELOAD_SUPPORTS):
                    backend = "fsg" if (j + ci) % 2 == 0 else "gspan"
                    s.send("freq id=f%d-%d-%d dataset=d min_support=%d backend=%s"
                           % (n, ci, j, sup, backend), "freq", (sup, backend))
                backend = "fsg" if ci == 0 else "gspan"
                s.send("sweep id=s%d-%d dataset=d supports=%s backend=%s"
                       % (n, ci, ",".join(map(str, RELOAD_SUPPORTS)), backend),
                       "sweep", backend)
            s.close()

        run_clients(run, [lambda ci=ci: client(ci) for ci in range(CLIENTS)],
                    [rounds.barrier, loaded])
        peak = server.peak_rss_kb()
        after = stats_snapshot(server)
    finally:
        if server is not None:
            server.stop()
    ok = [r for r in records if r["status"] == "ok"]
    mines = [r for r in records if r["op"] == "mine"]
    freqs = [r for r in records if r["op"] == "freq"]
    # Output check 1: every mine payload equals the one-shot CLI output
    # for the store its dataset version was loaded from.
    refs = cli_references(run, {(t, RELOAD_KEY) for t in texts})
    for r in (r for r in mines if r["status"] == "ok"):
        src = version_store.get(int(r["header"]["version"]))
        run.check(src is not None and r["payload"] == refs[(texts[src], RELOAD_KEY)][0],
                  "mine on version %s differs from the one-shot CLI" % r["header"]["version"])
    # Output check 2: every freq payload equals the segment for its support
    # of a sweep with the same backend on the same dataset version.
    segments = {}
    for r in (r for r in ok if r["op"] == "sweep"):
        for sup, seg in helpers.split_sweep(r["payload"]).items():
            segments[(r["header"]["version"], r["key"], sup)] = seg
    for r in (r for r in freqs if r["status"] == "ok"):
        sup, backend = r["key"]
        seg = segments.get((r["header"]["version"], backend, sup))
        run.check(seg is not None and seg == r["payload"],
                  "freq %s on version %s has no equal sweep segment" % (r["key"], r["header"]["version"]))
    metrics = window_metrics(run, freqs, mines, records, rounds.start)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak / 1024
    for i, t in enumerate(texts):
        run.record["store%d" % i] = run_stats(refs[(t, RELOAD_KEY)][1])
    run.record["rounds"] = rounds.round
    run.record["per_request_threads"] = "auto (%d)" % os.cpu_count()
    # Riders carry their leader's cached= field, so a cold run shows
    # "miss" twice; the pipeline misses are the misses minus the riders.
    riders = after["coalesce_riders"] - before["coalesce_riders"]
    misses = sum(1 for r in mines if r["header"].get("cached") == "miss")
    run.property("miss_share", (misses - riders) / len(mines))
    run.property("rider_share", riders / len(mines))
    if not run.trace:
        return metrics
    layers = server_layers(server.log, records, before, after)
    freqs_ok = [r for r in freqs if r["status"] == "ok"]
    plans = []
    for i, (t, st) in enumerate(zip(texts, stores)):
        versions = {str(v) for v, src in version_store.items() if src == i}
        pairs = sorted({r["key"] for r in freqs_ok if r["header"]["version"] in versions})
        plans.append((["--text", t, "--store", st], [",".join(RELOAD_KEY)],
                      ["%d,%s" % p for p in pairs]))
    replay = replay_workload(run, plans)
    # The replay's freq miners copy the server's freq defaults; the pattern
    # counts show whether they still agree.
    for r in freqs_ok:
        src = version_store[int(r["header"]["version"])]
        run.check(int(r["header"]["patterns"]) == replay["freq_patterns"][src]["%d,%s" % r["key"]],
                  "freq %s: the replay's pattern count differs from the server's" % (r["key"],))
    return finish_trace(run, layers, replay, texts[0])


# ------------------------------------------------------------------ traces --

def server_layers(log_entries, records, before, after):
    """Server-side per-layer numbers from ``--log`` lines and ``stats``
    deltas, joined to client latencies by request id. Riders and sweep
    assembly log zero times, so timings average the solo and lead
    requests: queue wait + exec + unaccounted = their mean latency."""
    by_id = {r["header"]["id"]: r for r in records}
    timed = [e for e in log_entries if e["role"] in ("solo", "lead") and e["id"] in by_id]
    n = max(1, len(timed))
    queue = sum(e["queue_wait_us"] for e in timed) / 1e3 / n
    exec_ = sum(e["exec_us"] for e in timed) / 1e3 / n
    client = sum(by_id[e["id"]]["ms"] for e in timed) / n
    mines = [(e, by_id[e["id"]]["header"].get("cached")) for e in log_entries
             if e["op"] == "mine" and e["id"] in by_id]
    delta = {k: after[k] - before[k] for k in after}
    return {
        "server.queue_wait_ms": queue,
        "server.exec_ms": exec_,
        "server.unaccounted_ms": client - queue - exec_,
        "server.coalesce_leads": delta["coalesce_leads"],
        "server.coalesce_riders": delta["coalesce_riders"],
        "server.busy_rejected": delta["busy_rejected"],
        "server.errors": delta["errors"],
        "core.cache_hits": sum(1 for _, cached in mines if cached == "hit"),
        "core.cache_misses": sum(1 for e, cached in mines if cached == "miss" and e["role"] != "rider"),
    }


# Span names whose self time is a layer metric, and the metric's name.
SPAN_LAYERS = {
    "graph.parse": "graph.parse_ms", "graph.cut": "graph.cut_ms",
    "graph.index_build": "graph.index_build_ms", "store.open": "store.open_ms",
    "features.select": "features.select_ms", "features.rwr": "features.rwr_ms",
    "fvmine": "fvmine.ms", "fsg": "fsg.ms", "gspan": "gspan.ms",
    "gspan.maximal_filter": "gspan.maximal_filter_ms", "core.group": "core.group_ms",
    "cli.render": "cli.render_ms",
}
# Spans outside the in-process mining time: input decode and rendering.
OUTSIDE_MINE = ("graph.parse_ms", "store.open_ms", "cli.render_ms")
# Replay counters reported as layer metrics.
COUNTERS = {
    "graph.cut_calls": "cut_calls", "store.disk_bytes": "disk_bytes",
    "features.vectors": "vectors", "fvmine.groups": "groups",
    "fvmine.significant_vectors": "significant_vectors", "fsg.calls": "fsg_calls",
    "fsg.patterns": "fsg_patterns", "fsg.match_steps": "fsg_match_steps",
    "fsg.canon_calls": "fsg_canon_calls", "fsg.cert_hits": "fsg_cert_hits",
    "gspan.calls": "gspan_calls", "gspan.patterns": "gspan_patterns",
    "gspan.canon_calls": "gspan_canon_calls",
}


def replay_workload(run, plans, quick=False):
    """Run ``gsbench replay`` once per plan ``(input args, mine keys, freq
    pairs)`` and fold its spans into per-layer metrics. Also returns the
    answer fingerprints by mine key and, per plan, the freq pattern counts.
    ``quick`` skips the untraced pass (used for the workload property on
    timed runs)."""
    out = {name: 0.0 for name in SPAN_LAYERS.values()}
    out.update({name: 0 for name in COUNTERS})
    set_ms, fsg_set_max, untraced, traced, spans_total = [], 0.0, 0.0, 0.0, 0
    fingerprints, freq_patterns = {}, []
    for inputs, keys, freqs in plans:
        argv = [run.gsbench, "replay", *inputs]
        for k in keys:
            argv += ["--mine", k]
        for f in freqs:
            argv += ["--freq", f]
        if quick:
            argv.append("--quick")
        proc = subprocess.run(argv, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            run.check(False, "gsbench replay failed: %s" % proc.stderr.strip()[-300:])
            raise BenchError("replay failed")
        spans, summary = {}, None
        for line in proc.stdout.splitlines():
            if line.startswith("span "):
                sid, span, _ = helpers.parse_span_line(line)
                spans[sid] = span
            elif line.startswith("summary "):
                summary = json.loads(line[len("summary "):])
        for sid, self_ns in helpers.self_times(spans).items():
            name, start, end, parent = spans[sid]
            if name in SPAN_LAYERS:
                out[SPAN_LAYERS[name]] += self_ns / 1e6
            if name == "fsm.set":
                set_ms.append((end - start) / 1e6)
            elif name == "fsg" and parent is not None and spans[parent][0] == "fsm.set":
                fsg_set_max = max(fsg_set_max, (end - start) / 1e6)
        for metric, key in COUNTERS.items():
            out[metric] += summary[key]
        fingerprints.update(summary["fingerprints"])
        freq_patterns.append(summary["freq_patterns"])
        untraced += summary["untraced_ms"]
        traced += summary["traced_work_ms"]
        spans_total += summary["spans"]
        run.check(not summary["verified"] or summary["fingerprints_match"],
                  "traced replay differs from GraphSig::mine")
    inside = sum(v for k, v in out.items() if k.endswith("ms") and k not in OUTSIDE_MINE)
    out.update({
        "fsg.set_max_ms": fsg_set_max,
        "fsg.top_set_share": max(set_ms) / sum(set_ms) if set_ms else 0.0,
        # Layers + unaccounted = the untraced in-process time of the work.
        "core.unaccounted_ms": untraced - inside,
        "trace.overhead_ms": traced - untraced,
        "trace.spans": spans_total,
        "fingerprints": fingerprints,
        "freq_patterns": freq_patterns,
        "untraced_ms": untraced,
    })
    return out


def finish_trace(run, server, replay, text):
    """Assemble the per-layer metrics of a traced run."""
    metrics = dict(replay, **server)
    run.record["replay_untraced_ms"] = metrics.pop("untraced_ms")
    del metrics["fingerprints"], metrics["freq_patterns"]
    # The one-shot CLI's fixed cost: spawn, read, parse and exit, timed
    # as `graphsig stats` on the same input (median of 5).
    metrics["cli.overhead_ms"] = statistics.median(
        stats_seconds(run, text) * 1e3 for _ in range(5))
    metrics["failed_frac"] = helpers.failed_frac(run.attempted, **run.failures)
    return metrics


def metric_units(root, trace):
    """``{name: unit}`` of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in spec}


# ------------------------------------------------------------------- main --

WORKLOADS = {"oneshot-tail": oneshot_tail, "serve-mine": serve_mine, "serve-reload": serve_reload}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    root = os.getcwd()
    try:
        graphsig, gsbench = build(root)
        run = Run(args, root, graphsig, gsbench)
        shutil.rmtree(run.work, ignore_errors=True)
        os.makedirs(run.work)
        try:
            units = metric_units(root, args.trace)
            metrics = WORKLOADS[args.workload](run)
            if set(metrics) != set(units):
                raise BenchError("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                    sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))))
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(run.work))
            except OSError:
                pass
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    failed = sum(run.failures.values())
    run.record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": len(os.sched_getaffinity(0)), "workers": WORKERS,
        "clients": CLIENTS, "commit": source_digest(root),
        "failed_frac": failed / max(1, run.attempted), "failures": run.failures,
        "problems": run.problems,
    })
    print("record " + json.dumps(run.record, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
