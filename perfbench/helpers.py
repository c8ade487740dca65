"""Pure helpers of the GraphSig benchmark: statistics, span accounting,
failure accounting and parsers for the server's wire and log formats.

Nothing here starts a process or touches the filesystem, so every
function is unit-tested in ``test_helpers.py``.
"""

# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest percentile with ten of ``n`` samples beyond it,
    ``100 * (1 - 10 / n)``, or ``None`` when that is below the median
    (fewer than 20 samples). It moves smoothly with ``n``, so runs whose
    sample counts differ by a few still report comparable tails."""
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    return 100.0 * (1.0 - TAIL_MIN_BEYOND / n)


def tail(values):
    """``(percentile, value)`` by the tail rule. With fewer than 20
    samples no percentile at or above the median qualifies; the median is
    returned and the percentile reads 50."""
    p = tail_percentile(len(values))
    if p is None:
        p = 50.0
    return p, percentile(values, p)


def another_round(now, start, rounds, deadline):
    """Whether a window of whole rounds starts another one at ``now``,
    ``rounds`` having started since ``start``: the first always, then only
    while a round as long as the mean so far would end by ``deadline``."""
    return rounds == 0 or now + (now - start) / rounds <= deadline


def failed_frac(attempted, errors=0, busy=0, dropped=0, missing=0):
    """Share of attempted requests that did not come back ``status=ok``.
    Every kind of failure counts once; nothing is retried."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempted request")
    failed = errors + busy + dropped + missing
    if failed > attempted:
        raise ValueError("more failures than attempts")
    return failed / attempted


def unescape(token):
    """Invert the protocol's percent-escaping of values."""
    out = bytearray()
    raw = token.encode()
    i = 0
    while i < len(raw):
        if raw[i] == 0x25 and i + 2 < len(raw):
            out.append(int(raw[i + 1:i + 3], 16))
            i += 3
        else:
            out.append(raw[i])
            i += 1
    return out.decode()


def parse_fields(line):
    """``key=value`` tokens of a response header or ``--log`` line, in
    order, values unescaped. Tokens without ``=`` are skipped."""
    fields = {}
    for tok in line.split():
        key, eq, value = tok.partition("=")
        if eq:
            fields[key] = unescape(value)
    return fields


def parse_header(line):
    """Parse ``resp id=.. op=.. status=.. ... bytes=N``."""
    if not line.startswith("resp "):
        raise ValueError("not a response header: %r" % line[:80])
    fields = parse_fields(line)
    if "bytes" not in fields or "status" not in fields:
        raise ValueError("header lacks status/bytes: %r" % line[:80])
    fields["bytes"] = int(fields["bytes"])
    return fields


LOG_PREFIX = "[graphsig] "


def parse_log_line(line):
    """One ``--log`` request line as a dict with integer timings, or
    ``None`` for any other stderr line."""
    if not line.startswith(LOG_PREFIX):
        return None
    fields = parse_fields(line[len(LOG_PREFIX):])
    for key in ("op", "id", "status", "role", "queue_wait_us", "exec_us"):
        if key not in fields:
            return None
    fields["queue_wait_us"] = int(fields["queue_wait_us"])
    fields["exec_us"] = int(fields["exec_us"])
    return fields


SWEEP_MARK = "# sweep support "


def split_sweep(payload):
    """``{support: segment}`` of a sweep payload. Each segment is the text
    after its marker line, which must equal the ``freq`` payload at that
    support."""
    segments = {}
    current = None
    for line in payload.splitlines(keepends=True):
        if line.startswith(SWEEP_MARK):
            current = int(line[len(SWEEP_MARK):].split(":", 1)[0])
            segments[current] = ""
        elif current is None:
            raise ValueError("sweep payload does not start with a marker")
        else:
            segments[current] += line
    return segments


def self_times(spans):
    """Self time per span: its duration minus the part of its interval
    that its children cover. ``spans`` maps id -> (name, start, end,
    parent); returns id -> self time in the same unit."""
    children = {}
    for sid, (_, _, _, parent) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (_, start, end, _) in spans.items():
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def parse_span_line(line):
    """``span <id> <name> <start_ns> <end_ns> <parent|-1> <req>``."""
    _, sid, name, start, end, parent, req = line.split()
    parent = int(parent)
    return int(sid), (name, int(start), int(end), None if parent < 0 else parent), int(req)
