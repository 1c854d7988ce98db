//! Metric names, units, directions and bounds — the benchmark's contract
//! with `BENCHMARK.json` — and the arithmetic that turns runs into them.

use std::fmt::Write as _;

use crate::cells::{LayerCells, SysCell};
use crate::clock::{at_ref, REF_CLOCK_GHZ};
use crate::stack::{Measured, RunOut, Setup, Slice};
use crate::trace::SpanName;

/// An end-to-end metric: what a user of the stack would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the reference value by which it may worsen.
    pub bound: f64,
}

/// Mirrored in `BENCHMARK.json` (a unit test holds the two together).
///
/// Every workload reports every metric. A *frame* is whatever the
/// workload offers together — the closed loops' 128-packet burst, the
/// open loop's 256-packet video frame — timed from its due time to the
/// delivery of its last packet. Timings are at the reference clock (see
/// `clock`). `ooo_per_loss` is smoothed as `(out_of_order + 1) / (lost +
/// 1)` so that it reads 1 (not 0/0) on the lossless workloads and moves
/// by 0.01 % on the lossy one. The 90th and 99th percentile of the frame
/// latency are per-layer metrics: printed, never gated (between runs of
/// the same code they spread two to three times as far as the median).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "goodput_pps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ooo_per_loss",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics: name, unit, `true` when larger is better. No
/// bounds — they explain end-to-end movement, they do not gate.
pub const PER_LAYER: [(&str, &str, bool); 53] = [
    ("sched.srr.assign_ns_per_pkt", "ns", false),
    ("sched.drr.turn_ns", "ns", false),
    ("core.sender.send_batch_ns_per_pkt", "ns", false),
    ("core.receiver.replay_ns_per_pkt", "ns", false),
    ("core.receiver.skips", "count", false),
    ("core.receiver.marks_applied", "count", false),
    ("core.receiver.dropped_overflow", "count", false),
    ("frame.encode_ns_per_frame", "ns", false),
    ("frame.decode_ns_per_frame", "ns", false),
    ("pool.take_put_ns", "ns", false),
    ("pool.allocs_per_kpkt", "1/kpkt", false),
    ("sys.ceiling_pps", "1/s", true),
    ("sys.tx_ns_per_frame", "ns", false),
    ("sys.rx_ns_per_frame", "ns", false),
    ("udp.tx_frames_per_syscall", "count", true),
    ("udp.rx_frames_per_syscall", "count", true),
    ("udp.syscalls_per_pkt", "count", false),
    ("udp.dropped_queue", "count", false),
    ("udp.kernel_rcvbuf_drops", "count", false),
    ("udp.gso_active", "count", true),
    ("udp.gro_active", "count", true),
    ("server.enqueue_ns_per_pkt", "ns", false),
    ("server.pump_ns_per_pkt", "ns", false),
    ("server.flow_cycle_ns", "ns", false),
    ("server.markers_per_kpkt", "1/kpkt", false),
    ("server.dropped_backpressure", "count", false),
    ("demux.sweep_ns_per_pkt", "ns", false),
    ("demux.poll_ns_per_pkt", "ns", false),
    ("demux.recycle_ns_per_pkt", "ns", false),
    ("demux.dropped_malformed", "count", false),
    ("reactor.poll_ns_per_call", "ns", false),
    ("reactor.polls", "count", false),
    ("reactor.control_in", "count", false),
    ("reactor.allocs_per_kpoll", "1/kpoll", false),
    ("chaos.dropped_loss", "count", false),
    ("chaos.ns_per_frame", "ns", false),
    ("stack.mem_pps", "1/s", true),
    ("stack.one_channel_pps", "1/s", true),
    ("stack.efficiency", "ratio", true),
    ("proc.user_ns_per_pkt", "ns", false),
    ("proc.sys_ns_per_pkt", "ns", false),
    ("proc.max_rss_kb", "kB", false),
    ("harness.gen_ns_per_pkt", "ns", false),
    ("harness.verify_ns_per_pkt", "ns", false),
    ("harness.loop_ns_per_pkt", "ns", false),
    ("harness.gen_lag_p99_us", "us", false),
    ("harness.jain", "ratio", true),
    ("frame_p90_us", "us", false),
    ("frame_p99_us", "us", false),
    ("host.clock_ghz", "GHz", true),
    ("trace.goodput_pps", "1/s", true),
    ("trace.overhead_pct", "%", false),
    ("trace.unattributed_pct", "%", false),
];

/// The unit of a declared metric (empty for the undeclared extras printed
/// beside them).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("")
}

/// Named values, in print order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` (sorted in place; linear interpolation between
/// order statistics); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First quartile, median, third quartile; zeros when empty.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    (quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75))
}

/// The end-to-end metrics of one untraced run, plus the exact counts and
/// slice quartiles printed beside them.
pub struct EndToEndOut {
    pub metrics: Metrics,
    /// Undeclared extras: counts that must repeat exactly, and how far
    /// apart the slices of this one run lay.
    pub extras: Metrics,
}

/// Offered packets never delivered intact to their flow, not counting
/// what the impairment layer dropped on purpose. The oracle settles only
/// runs where this is zero (and a refused enqueue ends the run at once).
pub fn failed_ops(run: &RunOut) -> u64 {
    let t = run.fin.tally;
    t.offered.saturating_sub(t.delivered + run.fin.lost)
}

/// A slice or a set-up counts as taken at the reference clock when both
/// readings at its edges lie this close to it (turbo bins are 3 % apart).
const AT_REF_TOLERANCE: f64 = 0.015;
/// Those taken at the reference clock stand for all when they are at
/// least one in this many, and at least `MIN_SLICES_AT_REF` slices or
/// `MIN_SETUPS_AT_REF` set-ups.
const AT_REF_ONE_IN: usize = 4;
const MIN_SLICES_AT_REF: usize = 8;
const MIN_SETUPS_AT_REF: usize = 2;

fn taken_at_ref(edges_ghz: [f64; 2]) -> bool {
    edges_ghz
        .iter()
        .all(|c| (c / REF_CLOCK_GHZ - 1.0).abs() <= AT_REF_TOLERANCE)
}

/// Of `items`, those taken at the reference clock if there are enough of
/// them (see above), else all.
fn prefer_at_ref<T>(items: Vec<T>, edges_ghz: impl Fn(&T) -> [f64; 2], min: usize) -> Vec<T> {
    let at_ref = items.iter().filter(|i| taken_at_ref(edges_ghz(i))).count();
    if at_ref >= min && at_ref * AT_REF_ONE_IN >= items.len() {
        items
            .into_iter()
            .filter(|i| taken_at_ref(edges_ghz(i)))
            .collect()
    } else {
        items
    }
}

/// The slices a run is judged by, each as it would read at the reference
/// clock.
///
/// Rescaling by the clock is exact for work that waits on nothing but the
/// core (`bulk`, `mixed*`: within 3 % from the lowest turbo bin to the
/// highest) and overshoots for work that also waits on memory, whose
/// speed does not follow the core's (`small`, `paced`: +12 % at the
/// highest bin, where the raw reading is 12 % low). Slices that *ran* at
/// the reference clock need no correction, so whenever a fair share of the
/// run did, they alone are used; the rest of the time all slices are,
/// rescaled. Readings off any bin mark a slice a neighbour on the same
/// physical core disturbed; the selection drops those too.
///
/// An open loop's goodput is its schedule's and is left as it is. Slices
/// in which no frame completed have no latency to report and are left out
/// (only a stalled lossy run has any).
fn judged_slices(m: &Measured) -> Vec<Slice> {
    let timed: Vec<&Slice> = m.slices.iter().filter(|s| s.frames > 0).collect();
    prefer_at_ref(timed, |s| s.clock_edges_ghz, MIN_SLICES_AT_REF)
        .into_iter()
        .map(|s| Slice {
            goodput_pps: if m.open_loop {
                s.goodput_pps
            } else {
                s.goodput_pps / at_ref(1.0, s.clock_ghz())
            },
            frame_p50_us: at_ref(s.frame_p50_us, s.clock_ghz()),
            frame_p90_us: at_ref(s.frame_p90_us, s.clock_ghz()),
            ..*s
        })
        .collect()
}

fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&mut slices.iter().map(f).collect::<Vec<_>>())
}

/// The value a run is reported by: the best decile of its judged slices —
/// the 90th percentile of their goodputs, the 10th of their latencies.
///
/// With the clock taken out, what still differs between runs of the same
/// code is what the neighbours do to the memory system and the physical
/// core, and that only ever *slows* a slice. A run the host left alone
/// for a tenth of its length reaches the same best decile as one it left
/// alone throughout; the median slice follows the neighbours instead (ten
/// seeds of `paced_frames_4flows`, two of them taken during a busy few
/// minutes: the medians spread 20 %, the best deciles 9 %).
fn best_decile(slices: &[Slice], f: impl Fn(&Slice) -> f64, higher_is_better: bool) -> f64 {
    let q = if higher_is_better { 0.9 } else { 0.1 };
    quantile(&mut slices.iter().map(f).collect::<Vec<_>>(), q)
}

/// The goodput of a run as `end_to_end` reports it.
pub fn goodput(run: &RunOut) -> f64 {
    best_decile(&judged_slices(&run.measured), |s| s.goodput_pps, true)
}

/// The set-up time of a run: the median set-up, judged like the slices.
fn setup_s(setups: &[Setup]) -> f64 {
    let judged = prefer_at_ref(
        setups.iter().collect(),
        |s| s.clock_edges_ghz,
        MIN_SETUPS_AT_REF,
    );
    median(
        &mut judged
            .iter()
            .map(|s| at_ref(s.secs, s.clock_ghz()))
            .collect::<Vec<_>>(),
    )
}

/// The core clock over a run's measured window: its median slice.
pub fn clock_ghz(run: &RunOut) -> f64 {
    median_of(&run.measured.slices, Slice::clock_ghz)
}

pub fn end_to_end(run: &RunOut) -> EndToEndOut {
    let m = &run.measured;
    let slices = judged_slices(m);
    let raw = |f: fn(&Slice) -> f64| {
        quartiles(
            &mut m
                .slices
                .iter()
                .filter(|s| s.frames > 0)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let (g1, g2, g3) = raw(|s| s.goodput_pps);
    let (a1, a2, a3) = raw(|s| s.frame_p50_us);
    let (c1, c2, c3) = raw(Slice::clock_ghz);
    let lost = m.counters.chaos_dropped_loss;
    EndToEndOut {
        metrics: vec![
            ("goodput_pps", best_decile(&slices, |s| s.goodput_pps, true)),
            (
                "frame_p50_us",
                best_decile(&slices, |s| s.frame_p50_us, false),
            ),
            (
                "ooo_per_loss",
                (m.tally.out_of_order + 1) as f64 / (lost + 1) as f64,
            ),
            ("setup_s", setup_s(&run.setups)),
        ],
        extras: vec![
            (
                "frame_p90_us",
                best_decile(&slices, |s| s.frame_p90_us, false),
            ),
            ("slices", m.slices.len() as f64),
            ("judged_slices", slices.len() as f64),
            ("clock_ghz.q1", c1),
            ("clock_ghz.median", c2),
            ("clock_ghz.q3", c3),
            ("goodput_pps.raw_q1", g1),
            ("goodput_pps.raw_median", g2),
            ("goodput_pps.raw_q3", g3),
            ("frame_p50_us.raw_q1", a1),
            ("frame_p50_us.raw_median", a2),
            ("frame_p50_us.raw_q3", a3),
            ("frame_samples", m.frame_hist.count() as f64),
            ("measured_s", m.secs),
            ("offered_pkts", m.tally.offered as f64),
            ("out_of_order", m.tally.out_of_order as f64),
            ("chaos.dropped_loss", lost as f64),
            (
                "failed_ops_share",
                failed_ops(run) as f64 / run.fin.tally.offered.max(1) as f64,
            ),
            (
                "pool.allocs_per_kpkt",
                m.allocs as f64 * 1e3 / m.tally.offered.max(1) as f64,
            ),
        ],
    }
}

/// Everything a traced invocation gathers for one workload.
pub struct LayerRuns {
    /// Untraced, same length as the traced run: the overhead reference
    /// and the goodput `stack.efficiency` is taken from.
    pub reference: RunOut,
    pub traced: RunOut,
    pub mem: RunOut,
    pub one_channel: RunOut,
    pub sys: SysCell,
    pub cells: LayerCells,
}

pub fn per_layer(r: &LayerRuns) -> Metrics {
    let t = &r.traced;
    let m = &t.measured;
    let c = &m.counters;
    let pkts = m.tally.offered.max(1) as f64;
    // Everything timed over the traced window is read at that window's
    // clock (the cells and the bare-socket cell arrive rescaled already).
    let ghz = clock_ghz(t);
    let span_ns = |n: SpanName| at_ref(t.tracer.total(n).total_ns as f64, ghz);
    let per_pkt = |n: SpanName| span_ns(n) / pkts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let polls = t.tracer.total(SpanName::ReactorPoll).count;
    let selfs = t.tracer.self_times();
    let reference = goodput(&r.reference);
    let traced = goodput(t);
    vec![
        ("sched.srr.assign_ns_per_pkt", r.cells.srr_assign_ns_per_pkt),
        ("sched.drr.turn_ns", r.cells.drr_turn_ns),
        (
            "core.sender.send_batch_ns_per_pkt",
            r.cells.sender_send_batch_ns_per_pkt,
        ),
        (
            "core.receiver.replay_ns_per_pkt",
            r.cells.receiver_replay_ns_per_pkt,
        ),
        ("core.receiver.skips", c.receiver_skips as f64),
        (
            "core.receiver.marks_applied",
            c.receiver_marks_applied as f64,
        ),
        (
            "core.receiver.dropped_overflow",
            c.receiver_dropped_overflow as f64,
        ),
        ("frame.encode_ns_per_frame", r.cells.frame_encode_ns),
        ("frame.decode_ns_per_frame", r.cells.frame_decode_ns),
        ("pool.take_put_ns", r.cells.pool_take_put_ns),
        ("pool.allocs_per_kpkt", m.allocs as f64 * 1e3 / pkts),
        ("sys.ceiling_pps", r.sys.ceiling_pps),
        ("sys.tx_ns_per_frame", r.sys.tx_ns_per_frame),
        ("sys.rx_ns_per_frame", r.sys.rx_ns_per_frame),
        (
            "udp.tx_frames_per_syscall",
            ratio(c.tx_sent_frames, c.tx_send_syscalls),
        ),
        (
            "udp.rx_frames_per_syscall",
            ratio(c.rx_recv_frames, c.rx_recv_syscalls),
        ),
        (
            "udp.syscalls_per_pkt",
            (c.tx_send_syscalls + c.rx_recv_syscalls + c.reverse_syscalls) as f64 / pkts,
        ),
        ("udp.dropped_queue", c.udp_dropped_queue as f64),
        ("udp.kernel_rcvbuf_drops", c.kernel_rcvbuf_drops as f64),
        ("udp.gso_active", t.env.gso_channels as f64),
        ("udp.gro_active", t.env.gro_channels as f64),
        (
            "server.enqueue_ns_per_pkt",
            per_pkt(SpanName::ServerEnqueue),
        ),
        ("server.pump_ns_per_pkt", per_pkt(SpanName::ServerPump)),
        ("server.flow_cycle_ns", r.cells.flow_cycle_ns),
        (
            "server.markers_per_kpkt",
            c.markers_sent as f64 * 1e3 / pkts,
        ),
        (
            "server.dropped_backpressure",
            c.server_dropped_backpressure as f64,
        ),
        ("demux.sweep_ns_per_pkt", per_pkt(SpanName::DemuxSweep)),
        ("demux.poll_ns_per_pkt", per_pkt(SpanName::DemuxPoll)),
        ("demux.recycle_ns_per_pkt", per_pkt(SpanName::DemuxRecycle)),
        ("demux.dropped_malformed", c.demux_dropped_malformed as f64),
        (
            "reactor.poll_ns_per_call",
            if polls == 0 {
                0.0
            } else {
                span_ns(SpanName::ReactorPoll) / polls as f64
            },
        ),
        ("reactor.polls", c.reactor_polls as f64),
        ("reactor.control_in", c.reactor_control_in as f64),
        (
            "reactor.allocs_per_kpoll",
            ratio(m.ctl_allocs * 1000, c.reactor_polls),
        ),
        ("chaos.dropped_loss", c.chaos_dropped_loss as f64),
        ("chaos.ns_per_frame", r.cells.chaos_ns_per_frame),
        ("stack.mem_pps", goodput(&r.mem)),
        ("stack.one_channel_pps", goodput(&r.one_channel)),
        (
            "stack.efficiency",
            if r.sys.ceiling_pps > 0.0 {
                reference / r.sys.ceiling_pps
            } else {
                0.0
            },
        ),
        (
            "proc.user_ns_per_pkt",
            at_ref(m.cpu_user_ns as f64, ghz) / pkts,
        ),
        (
            "proc.sys_ns_per_pkt",
            at_ref(m.cpu_sys_ns as f64, ghz) / pkts,
        ),
        ("proc.max_rss_kb", t.fin.max_rss_kb as f64),
        ("harness.gen_ns_per_pkt", per_pkt(SpanName::Gen)),
        ("harness.verify_ns_per_pkt", per_pkt(SpanName::Verify)),
        (
            "harness.loop_ns_per_pkt",
            at_ref(selfs.iter_self_ns as f64, ghz) / pkts,
        ),
        ("harness.gen_lag_p99_us", m.lag_hist.percentile_us(99.0)),
        ("harness.jain", t.fin.jain),
        (
            "frame_p90_us",
            at_ref(m.frame_hist.percentile_us(90.0), ghz),
        ),
        (
            "frame_p99_us",
            at_ref(m.frame_hist.percentile_us(99.0), ghz),
        ),
        ("host.clock_ghz", ghz),
        ("trace.goodput_pps", traced),
        (
            "trace.overhead_pct",
            if reference > 0.0 {
                (reference - traced) / reference * 100.0
            } else {
                0.0
            },
        ),
        (
            "trace.unattributed_pct",
            if selfs.wall_ns > 0 {
                selfs.iter_self_ns as f64 / selfs.wall_ns as f64 * 100.0
            } else {
                0.0
            },
        ),
    ]
}

/// `workload metric value unit`, one line per metric.
pub fn print_lines(workload: &str, metrics: &Metrics) {
    for (name, value) in metrics {
        println!("{workload} {name} {} {}", fmt_value(*value), unit_of(name));
    }
}

/// All significant digits for small values, plain integers for counts.
pub fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e4 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — the shape the contract's
/// result line and `result.json` share.
pub fn metrics_object(metrics: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            fmt_value(*value),
            unit_of(name)
        );
    }
    s.push('}');
    s
}

/// The one-object result line of the benchmark contract.
pub fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run a neighbour slowed for two thirds of its length reports what
    /// it did in the rest.
    #[test]
    fn best_decile_is_the_undisturbed_part_of_the_run() {
        let mut run = vec![slice(2.2e6, 50.0, REF); 10];
        for i in 0..20 {
            run.push(slice(1.2e6 + i as f64 * 4e4, 90.0 - i as f64, REF));
        }
        assert_eq!(best_decile(&run, |s| s.goodput_pps, true), 2.2e6);
        assert_eq!(best_decile(&run, |s| s.frame_p50_us, false), 50.0);
        assert!(median_of(&run, |s| s.goodput_pps) < 2.0e6);
        assert_eq!(best_decile(&[], |s| s.goodput_pps, true), 0.0);
    }

    #[test]
    fn quartiles_interpolate_like_the_textbook() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quartiles(&mut v), (2.0, 3.0, 4.0));
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quartiles(&mut v), (1.75, 2.5, 3.25));
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    fn slice(goodput_pps: f64, frame_p50_us: f64, clock_ghz: f64) -> Slice {
        Slice {
            goodput_pps,
            frame_p50_us,
            frame_p90_us: frame_p50_us * 1.3,
            frames: 100,
            clock_edges_ghz: [clock_ghz; 2],
        }
    }

    fn measured(slices: Vec<Slice>, open_loop: bool) -> Measured {
        use crate::hist::LogHist;
        Measured {
            open_loop,
            secs: 1.0,
            slices,
            frame_hist: Box::new(LogHist::new()),
            lag_hist: Box::new(LogHist::new()),
            tally: Default::default(),
            counters: Default::default(),
            allocs: 0,
            ctl_allocs: 0,
            cpu_user_ns: 0,
            cpu_sys_ns: 0,
        }
    }

    const REF: f64 = REF_CLOCK_GHZ;

    /// Core-bound work in a turbo bin 27 % up reads the same at the
    /// reference clock as work done at it; an open loop's goodput is left
    /// alone; a slice in which no frame completed is left out.
    #[test]
    fn slices_are_rescaled_to_the_reference_clock() {
        let mut run = vec![slice(2.2e6 * 1.27, 50.0 / 1.27, REF * 1.27); 12];
        run.push(Slice {
            frames: 0,
            ..slice(9e9, 0.0, REF)
        });
        let judged = judged_slices(&measured(run.clone(), false));
        assert_eq!(judged.len(), 12);
        for s in &judged {
            assert!((s.goodput_pps - 2.2e6).abs() < 1.0, "{}", s.goodput_pps);
            assert!((s.frame_p50_us - 50.0).abs() < 1e-9);
            assert!((s.frame_p90_us - 65.0).abs() < 1e-9);
        }
        let open = judged_slices(&measured(run, true));
        assert!(open.iter().all(|s| s.goodput_pps == 2.2e6 * 1.27));
        assert!(judged_slices(&measured(Vec::new(), false)).is_empty());
    }

    /// Memory-bound work gains less from a turbo bin than the clock says,
    /// so rescaled it reads slow. When a fair share of the run was taken
    /// at the reference clock, those slices alone are used — and a slice
    /// with an off-bin reading at one edge is not one of them.
    #[test]
    fn slices_taken_at_the_reference_clock_are_preferred() {
        let mut run = vec![slice(3.2e6, 34.0, REF * 0.997); 10];
        // 27 % more clock, 12 % more speed.
        run.extend(vec![slice(3.2e6 * 1.12, 34.0 / 1.12, REF * 1.27); 20]);
        run.push(Slice {
            clock_edges_ghz: [REF, REF * 0.9],
            ..slice(2.0e6, 60.0, REF)
        });
        let judged = judged_slices(&measured(run.clone(), false));
        assert_eq!(judged.len(), 10);
        assert!(judged.iter().all(|s| (s.frame_p50_us - 33.9).abs() < 0.1));
        // Too few of them (7 of 28): every slice is used, rescaled.
        run.drain(0..3);
        let judged = judged_slices(&measured(run, false));
        assert_eq!(judged.len(), 28);
        assert!(median_of(&judged, |s| s.frame_p50_us) > 38.0);
    }

    /// Set-ups are judged the same way, from two of them up.
    #[test]
    fn set_ups_taken_at_the_reference_clock_are_preferred() {
        let setup = |secs, ghz| Setup {
            secs,
            clock_edges_ghz: [ghz; 2],
        };
        let turbo = REF * 1.2;
        let mut run = vec![setup(0.100, REF), setup(0.102, REF)];
        run.extend([setup(0.09, turbo); 4]);
        assert!((setup_s(&run) - 0.101).abs() < 1e-9);
        // One alone does not stand for six: all are used, rescaled.
        run[1] = setup(0.09, turbo);
        assert!((setup_s(&run) - 0.108).abs() < 1e-9);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` declares exactly what the harness prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit, higher) in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if *higher { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for w in &crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "missing or different: {entry}");
            assert!(w.why.len() <= 200);
        }
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
