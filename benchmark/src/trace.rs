//! Harness-side spans: one per call into a layer's public surface, one
//! per loop iteration around them.
//!
//! A span is `(name, iteration, start, end)`. The iteration span is the
//! parent of every other span carrying its id, so a layer's *self time*
//! is its span minus nothing (leaf spans never nest here) and the
//! iteration's self time is its wall time minus the time its children
//! cover — the loop overhead and the cost of tracing itself. Totals per
//! name are accumulated as spans close; the first [`KEEP`] spans are also
//! kept verbatim in a buffer sized up front and written out as JSON lines
//! when the run ends. Nothing here allocates after `Tracer::new`.

use std::io::{self, Write};
use std::time::Instant;

/// Spans kept verbatim for the trace file (the aggregates cover all).
const KEEP: usize = 1 << 16;

/// Where a span was taken. `Iter` is the parent of all others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Iter,
    Gen,
    ServerEnqueue,
    ServerPump,
    ReactorPoll,
    DemuxSweep,
    DemuxPoll,
    Verify,
    DemuxRecycle,
    Idle,
}

/// Every span name, in `SpanName as usize` order.
pub const SPAN_NAMES: [SpanName; 10] = [
    SpanName::Iter,
    SpanName::Gen,
    SpanName::ServerEnqueue,
    SpanName::ServerPump,
    SpanName::ReactorPoll,
    SpanName::DemuxSweep,
    SpanName::DemuxPoll,
    SpanName::Verify,
    SpanName::DemuxRecycle,
    SpanName::Idle,
];

impl SpanName {
    /// The name written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Iter => "iter",
            SpanName::Gen => "gen",
            SpanName::ServerEnqueue => "server.enqueue",
            SpanName::ServerPump => "server.pump",
            SpanName::ReactorPoll => "reactor.poll",
            SpanName::DemuxSweep => "demux.sweep",
            SpanName::DemuxPoll => "demux.poll",
            SpanName::Verify => "verify",
            SpanName::DemuxRecycle => "demux.recycle",
            SpanName::Idle => "idle",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    /// The iteration this span belongs to (its parent's id; an `Iter`
    /// span's own id).
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span closed while recording.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

/// Self times derived from the totals (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTimes {
    /// Wall time covered by iteration spans.
    pub wall_ns: u64,
    /// The iterations' own time: `wall_ns` minus what child spans cover.
    pub iter_self_ns: u64,
}

/// Span recorder. Disabled tracers cost one branch per call site and
/// never read the clock.
pub struct Tracer {
    on: bool,
    /// Aggregation gate: spans closed while `false` (warm-up, drain) are
    /// neither totalled nor kept.
    recording: bool,
    origin: Instant,
    totals: [SpanTotal; SPAN_NAMES.len()],
    kept: Vec<Span>,
    closed: u64,
}

impl Tracer {
    /// A tracer measuring from `origin`; `on == false` records nothing.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            recording: false,
            origin,
            totals: [SpanTotal::default(); SPAN_NAMES.len()],
            kept: Vec::with_capacity(if on { KEEP } else { 0 }),
            closed: 0,
        }
    }

    /// Open or close the aggregation gate (the measured window).
    pub fn set_recording(&mut self, yes: bool) {
        self.recording = yes && self.on;
    }

    /// Open a span: the start stamp to hand back to [`end`](Self::end).
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Close a span opened at `start_ns`.
    #[inline]
    pub fn end(&mut self, name: SpanName, iter: u32, start_ns: u64) {
        if !self.recording {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.close(Span {
            name,
            iter,
            start_ns,
            end_ns,
        });
    }

    fn close(&mut self, s: Span) {
        let t = &mut self.totals[s.name as usize];
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        self.closed += 1;
        if self.kept.len() < KEEP {
            self.kept.push(s);
        }
    }

    /// Totals for one span name.
    pub fn total(&self, name: SpanName) -> SpanTotal {
        self.totals[name as usize]
    }

    /// Iteration wall time split into children and the iterations' own.
    pub fn self_times(&self) -> SelfTimes {
        let wall_ns = self.total(SpanName::Iter).total_ns;
        let children_ns: u64 = SPAN_NAMES
            .iter()
            .filter(|&&n| n != SpanName::Iter)
            .map(|&n| self.total(n).total_ns)
            .sum();
        SelfTimes {
            wall_ns,
            iter_self_ns: wall_ns.saturating_sub(children_ns),
        }
    }

    /// Write the kept spans as JSON lines: `name`, `iter` (the parent
    /// iteration id), `start_ns`, `end_ns`. A header line says how many
    /// spans the run closed in total.
    pub fn write_jsonl(&self, mut w: impl Write, workload: &str) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"spans_closed\":{},\"spans_kept\":{}}}",
            self.closed,
            self.kept.len()
        )?;
        for s in &self.kept {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name.label(),
                s.iter,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, iter: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            iter,
            start_ns,
            end_ns,
        }
    }

    /// Self time of the iteration is its wall time minus what its
    /// children cover; children plus that remainder is the wall time
    /// again, exactly.
    #[test]
    fn self_times_sum_to_wall_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_recording(true);
        // Iteration 0: 1000 ns, children cover 100+300+450 = 850.
        t.close(span(SpanName::Gen, 0, 0, 100));
        t.close(span(SpanName::ServerPump, 0, 120, 420));
        t.close(span(SpanName::DemuxSweep, 0, 500, 950));
        t.close(span(SpanName::Iter, 0, 0, 1000));
        // Iteration 1: 600 ns, one child of 580.
        t.close(span(SpanName::DemuxSweep, 1, 1010, 1590));
        t.close(span(SpanName::Iter, 1, 1000, 1600));
        let s = t.self_times();
        assert_eq!(s.wall_ns, 1600);
        assert_eq!(s.iter_self_ns, 150 + 20);
        assert_eq!(850 + 580 + s.iter_self_ns, s.wall_ns);
        assert_eq!(t.total(SpanName::DemuxSweep).count, 2);
        assert_eq!(t.total(SpanName::DemuxSweep).total_ns, 450 + 580);
        assert_eq!(t.closed, 6);
    }

    #[test]
    fn disabled_or_gated_tracers_record_nothing() {
        let mut off = Tracer::new(false, Instant::now());
        off.set_recording(true);
        let s = off.begin();
        off.end(SpanName::Gen, 0, s);
        assert_eq!(off.closed, 0);

        let mut gated = Tracer::new(true, Instant::now());
        let s = gated.begin();
        gated.end(SpanName::Gen, 0, s);
        assert_eq!(gated.closed, 0, "warm-up spans are not aggregated");
        gated.set_recording(true);
        let s = gated.begin();
        gated.end(SpanName::Gen, 0, s);
        assert_eq!(gated.closed, 1);
    }

    #[test]
    fn trace_file_lines_are_well_formed() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_recording(true);
        t.close(span(SpanName::ServerEnqueue, 3, 10, 25));
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "w").unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"workload\":\"w\",\"spans_closed\":1,\"spans_kept\":1}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"name\":\"server.enqueue\",\"iter\":3,\"start_ns\":10,\"end_ns\":25}"
        );
    }
}
