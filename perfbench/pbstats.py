"""Statistics for the record-path benchmark: supported percentiles and the
open-loop analysis of one serve_ingest ladder step.

Kept free of I/O so tests/test_pbstats.py can check the rules directly:

* a percentile is reported only when at least MIN_BEYOND samples lie
  beyond it, and always together with its sample count;
* open-loop latency runs from a frame's *due* send time, so a stall also
  charges the frames that queued behind it; a frame that was refused or
  never acked counts as a failure and as over every latency limit.
"""

import math

MIN_BEYOND = 10
INF = math.inf


def supported(n, q):
    """True when a sample of n values has MIN_BEYOND values beyond its
    q-quantile (nearest-rank)."""
    return n - math.ceil(q * n) >= MIN_BEYOND if n else False


def percentile(values, q):
    """Nearest-rank q-quantile of values (q in (0, 1)), or None when the
    sample does not support it. Infinite values (failures) sort last."""
    n = len(values)
    if not supported(n, q):
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * n)) - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Step:
    """One ladder step. frames: [records, due_ns, send_start_ns,
    send_end_ns, ack_ns] per frame, -1 where the event never happened;
    polls: [due_ns, end_ns, body_bytes] per GET, body_bytes -1 on failure."""

    def __init__(self, rate, frames, polls=()):
        self.rate = rate
        self.frames = frames
        self.polls = list(polls)

    def latencies_ms(self):
        """Due-to-ack latency per frame; INF for a frame never acked."""
        return [(ack - due) / 1e6 if ack >= 0 else INF
                for _, due, _, _, ack in self.frames]

    def lateness_ms(self):
        """How late the generator started each send; INF if never sent."""
        return [(start - due) / 1e6 if start >= 0 else INF
                for _, due, start, _, _ in self.frames]

    def failed_frames(self):
        return sum(1 for f in self.frames if f[4] < 0)

    def send_blocked_s(self):
        """Time the producer spent inside send calls (TCP backpressure)."""
        return sum((end - start) / 1e9 for _, _, start, end, _ in self.frames
                   if start >= 0 and end >= 0)

    def poll_latencies_ms(self):
        return [(end - due) / 1e6 if size >= 0 else INF
                for due, end, size in self.polls]

    def failed_polls(self):
        return sum(1 for p in self.polls if p[2] < 0)

    def backlog_peak_records(self):
        """Largest (records sent - records acked) at any send or ack."""
        events = []
        for records, _, _, end, ack in self.frames:
            if end >= 0:
                events.append((end, records))
            if ack >= 0:
                events.append((ack, -records))
        peak = level = 0
        for _, delta in sorted(events):
            level += delta
            peak = max(peak, level)
        return peak

    def backlog_growing(self, limit_ms):
        """The queue grew through the step: the median latency of the last
        quarter of frames exceeds that of the first quarter by more than
        half the limit. Below capacity latency is stationary; above it,
        it rises for as long as the step lasts."""
        lat = self.latencies_ms()
        quarter = max(1, len(lat) // 4)
        return median(lat[-quarter:]) - median(lat[:quarter]) > limit_ms / 2

    def throughput_per_s(self):
        """Records acked per second, from the first frame's due time to the
        last ack; None unless every frame was acked. Below capacity this is
        the offered rate; on a rung offered more than the server can take
        it is the server's ingest capacity for this fixed batch of frames."""
        acks = [f[4] for f in self.frames]
        if not acks or min(acks) < 0:
            return None
        records = sum(f[0] for f in self.frames)
        return records / ((max(acks) - self.frames[0][1]) / 1e9)

    def p99_ms(self):
        return percentile(self.latencies_ms(), 0.99)

    def meets(self, limit_ms):
        p99 = self.p99_ms()
        return (p99 is not None and p99 <= limit_ms
                and not self.backlog_growing(limit_ms))


def ladder_sustained(steps, limit_ms):
    """Highest rate, among steps sorted by rate, that meets the limit with
    every lower step meeting it too; None when the lowest step fails."""
    best = None
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.meets(limit_ms):
            break
        best = step.rate
    return best
