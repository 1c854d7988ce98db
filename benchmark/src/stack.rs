//! The stack under test, assembled from the kept surface, and the one
//! loop that drives every workload through it.
//!
//! One process, one thread: the channels are non-blocking socket pairs
//! (or in-memory pairs for the kernel-free reference cell) served in turn,
//! so the numbers measure the program and not the scheduler. An iteration
//! offers one burst and then serves the receive side once:
//!
//! ```text
//! gen -> server.enqueue x burst -> server.pump -> [reactor.poll] ->
//! demux.sweep -> demux.poll x flows -> verify -> demux.recycle
//! ```
//!
//! The closed loop starts the next iteration at once (a burst's due time
//! is the moment it is generated); the open loop takes frames off a
//! [`Pacer`] and keeps serving the receive side until the frame is whole
//! or the next one is due. Each arrow above is a span when tracing is on.

use std::io;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::clock;
use crate::hist::LogHist;
use crate::oracle::{Oracle, Tally, Violation};
use crate::surface::*;
use crate::trace::{SpanName, Tracer};
use crate::workload::{Gen, Pacer, Workload};

// Fixed in the harness, not flags: every number in every run is taken
// under these settings.
pub const CHANNELS: usize = 4;
pub const QUANTUM: i64 = 1500;
pub const MARKER_ROUNDS: u64 = 4;
pub const QUEUE_FRAMES: usize = 256;
pub const SOCK_BUF: usize = 4 << 20;
pub const POOL_BUFFERS: usize = 1024;
pub const MTU: usize = 2048;
pub const PROBE_INTERVAL_NS: u64 = 10_000_000;
/// Silence after which the failover driver declares a channel dead. The
/// driver's default of three probe intervals turns any 30 ms freeze of
/// this single thread (the hypervisor delivers a few per hour) into a
/// four-channel blackout and refused enqueues; nothing is ever dead here,
/// so the deadline is moved out of a stall's reach. Probes still go out
/// every 10 ms.
pub const DEAD_AFTER_NS: u64 = 2_000_000_000;
/// Bernoulli loss on channel 0 of the lossy workload, parts per million.
pub const LOSS_PPM: u32 = 10_000;
/// In-memory link depth, frames per direction.
const MEM_LINK_FRAMES: usize = 1 << 12;
/// Arrivals each per-flow, per-channel receive ring is sized for up front
/// (what a ring's first push would allocate anyway).
const RING_PRESIZE: usize = 4;
/// Full set-ups per run, half before the measured window and half after;
/// `setup_s` is their median.
pub const SETUPS: usize = 6;

/// What the harness needs from a link beyond moving frames: a way to
/// reach the socket's and the impairment layer's counters.
pub trait BenchLink: DatagramLink {
    fn udp(&self) -> Option<&UdpChannel> {
        None
    }
    fn chaos(&self) -> Option<ChaosSnapshot> {
        None
    }
}

impl BenchLink for UdpChannel {
    fn udp(&self) -> Option<&UdpChannel> {
        Some(self)
    }
}

impl BenchLink for ImpairedLink<UdpChannel> {
    fn udp(&self) -> Option<&UdpChannel> {
        Some(self.inner())
    }
    fn chaos(&self) -> Option<ChaosSnapshot> {
        Some(self.snapshot())
    }
}

impl BenchLink for TestDatagramLink {}

/// `n` loopback socket pairs under the fixed socket settings: tx ends,
/// rx ends.
pub fn udp_pairs(n: usize) -> io::Result<(Vec<UdpChannel>, Vec<UdpChannel>)> {
    let mut tx = Vec::with_capacity(n);
    let mut rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (a, b) = UdpChannel::builder(MTU)
            .sndbuf(SOCK_BUF)
            .rcvbuf(SOCK_BUF)
            .pair()?;
        tx.push(a);
        rx.push(b);
    }
    Ok((tx, rx))
}

/// `n` in-memory pairs: the same stack with no kernel under it.
pub fn mem_pairs(n: usize) -> (Vec<TestDatagramLink>, Vec<TestDatagramLink>) {
    (0..n).map(|_| datagram_pair(MTU, MEM_LINK_FRAMES)).unzip()
}

/// The lossy workload's impairment plan for channel `c`.
pub fn chaos_plan(c: usize) -> ChaosPlan {
    if c == 0 {
        ChaosPlan::none().loss_bernoulli(LOSS_PPM)
    } else {
        ChaosPlan::none()
    }
}

/// Wrap every tx link in `ImpairedLink`; only channel 0 loses anything.
pub fn impair<L: DatagramLink>(w: &Workload, seed: u64, links: Vec<L>) -> Vec<ImpairedLink<L>> {
    links
        .into_iter()
        .enumerate()
        .map(|(c, l)| ImpairedLink::new(l, chaos_plan(c), w.chaos_seed(seed, c)))
        .collect()
}

/// The sending half: bare, or behind the reactor with the failover
/// driver probing. One lives per session, on the hot path: not worth a box.
#[allow(clippy::large_enum_variant)]
enum Tx<T: DatagramLink> {
    Bare(StripeServer<Srr, T>),
    Reactor(ServerReactor<Srr, T>),
}

impl<T: DatagramLink> Tx<T> {
    fn server(&self) -> &StripeServer<Srr, T> {
        match self {
            Tx::Bare(s) => s,
            Tx::Reactor(r) => r.path(),
        }
    }

    fn server_mut(&mut self) -> &mut StripeServer<Srr, T> {
        match self {
            Tx::Bare(s) => s,
            Tx::Reactor(r) => r.path_mut(),
        }
    }
}

/// Counters summed over the stack, read at the edges of the measured
/// window (reading them allocates and walks every flow, so never inside).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub tx_sent_frames: u64,
    pub tx_send_syscalls: u64,
    pub rx_recv_frames: u64,
    pub rx_recv_syscalls: u64,
    /// Syscalls of the reverse (control) direction on both ends.
    pub reverse_syscalls: u64,
    pub udp_dropped_queue: u64,
    pub kernel_rcvbuf_drops: u64,
    pub markers_sent: u64,
    pub server_dropped_backpressure: u64,
    pub demux_dropped_malformed: u64,
    pub receiver_skips: u64,
    pub receiver_marks_applied: u64,
    pub receiver_dropped_overflow: u64,
    pub reactor_polls: u64,
    pub reactor_control_in: u64,
    pub chaos_dropped_loss: u64,
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        macro_rules! delta {
            ($($f:ident),*) => { Counters { $($f: self.$f - earlier.$f),* } };
        }
        delta!(
            tx_sent_frames,
            tx_send_syscalls,
            rx_recv_frames,
            rx_recv_syscalls,
            reverse_syscalls,
            udp_dropped_queue,
            kernel_rcvbuf_drops,
            markers_sent,
            server_dropped_backpressure,
            demux_dropped_malformed,
            receiver_skips,
            receiver_marks_applied,
            receiver_dropped_overflow,
            reactor_polls,
            reactor_control_in,
            chaos_dropped_loss
        )
    }
}

/// Socket facts for the machine stamp.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkEnv {
    pub sndbuf: u64,
    pub rcvbuf: u64,
    /// Channels with GSO / GRO active.
    pub gso_channels: u64,
    pub gro_channels: u64,
}

/// One slice of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub goodput_pps: f64,
    pub frame_p50_us: f64,
    pub frame_p90_us: f64,
    pub frames: u64,
    /// Core clock read at the slice's two edges.
    pub clock_edges_ghz: [f64; 2],
}

impl Slice {
    /// Core clock over the slice: the mean of its edges.
    pub fn clock_ghz(&self) -> f64 {
        (self.clock_edges_ghz[0] + self.clock_edges_ghz[1]) / 2.0
    }
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many packets have been offered (rounded up to slices):
    /// counts repeat exactly from run to run.
    Packets(u64),
    /// Until this much time has passed (checked at slice edges).
    Seconds(f64),
}

/// Everything taken over the measured window.
pub struct Measured {
    /// The loop was open: goodput is the schedule's, not the machine's.
    pub open_loop: bool,
    pub secs: f64,
    pub slices: Vec<Slice>,
    /// Frame latency over the whole window, ns from due time.
    pub frame_hist: Box<LogHist>,
    /// How late the open loop's generator took each frame, ns.
    pub lag_hist: Box<LogHist>,
    pub tally: Tally,
    pub counters: Counters,
    /// Allocations in the window outside the control plane.
    pub allocs: u64,
    /// Allocations inside `reactor.poll` (probe reports).
    pub ctl_allocs: u64,
    pub cpu_user_ns: u64,
    pub cpu_sys_ns: u64,
}

/// What is known once the run has drained.
#[derive(Debug, Clone, Copy)]
pub struct Final {
    pub tally: Tally,
    pub lost: u64,
    pub jain: f64,
    pub max_rss_kb: u64,
}

/// User and system CPU time of this process so far, ns. Read from
/// `/proc/self/stat` (clock ticks, 100 per second on Linux), which is
/// fine-grained enough against windows of seconds and needs no FFI.
fn cpu_times_ns() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return (0, 0);
    };
    let mut f = rest.split_whitespace().skip(11);
    let mut tick = || f.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let (u, s) = (tick(), tick());
    (u * 10_000_000, s * 10_000_000)
}

fn max_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// A built stack plus the generator, the oracle and the tracer around it.
pub struct Session<T: BenchLink, R: BenchLink> {
    w: Workload,
    tx: Tx<T>,
    demux: FlowDemux<Srr, R>,
    handles: Vec<FlowHandle>,
    gen: Gen,
    oracle: Oracle,
    events: Vec<PumpEvent>,
    batch: RxBatch<PooledBuf>,
    staged: Vec<(u32, PooledBuf)>,
    origin: Instant,
    pub tracer: Tracer,
    iter: u32,
    frame_id: u32,
    ctl_allocs: u64,
}

impl<T: BenchLink, R: BenchLink> Session<T, R> {
    /// Sockets are already open; build the server, the demux, open every
    /// flow on both sides and, last, start the control plane.
    pub fn new(w: &Workload, seed: u64, tx_links: Vec<T>, rx_links: Vec<R>, trace: bool) -> Self {
        let channels = tx_links.len();
        let origin = Instant::now();
        let mut server: StripeServer<Srr, T> = StripeServer::builder()
            .scheduler(Srr::equal(channels, QUANTUM))
            .markers(MarkerConfig::every_rounds(MARKER_ROUNDS))
            .links(tx_links)
            .max_flows(w.flows)
            .queue_frames(QUEUE_FRAMES)
            .build();
        let handles: Vec<FlowHandle> = (0..w.flows)
            .map(|_| server.open_flow().expect("under the admission cap"))
            .collect();
        let mut demux: FlowDemux<Srr, R> = FlowDemux::builder()
            .scheduler(Srr::equal(channels, QUANTUM))
            .links(rx_links)
            .pool_buffers(POOL_BUFFERS)
            .max_flows(w.flows)
            .build();
        for h in &handles {
            demux.touch_flow(h.id());
            // Pool pre-size: a flow's four receive rings otherwise take
            // their first allocation whenever its SRR first reaches each
            // channel, which for 10 000 slow flows is deep into the
            // measured window.
            demux.reserve_flow(h.id(), RING_PRESIZE);
        }
        let tx = if w.reactor {
            let now = SimTime::from_nanos(origin.elapsed().as_nanos() as u64);
            let mut cfg = FailoverConfig::with_probe_interval(PROBE_INTERVAL_NS);
            cfg.liveness.dead_after_ns = DEAD_AFTER_NS;
            let driver = FailoverDriver::new(channels, cfg, now);
            Tx::Reactor(ServerReactor::new(
                server,
                Some(driver),
                now,
                SimDuration::from_nanos(PROBE_INTERVAL_NS),
            ))
        } else {
            Tx::Bare(server)
        };
        Self {
            w: *w,
            tx,
            demux,
            handles,
            gen: Gen::new(w, seed),
            oracle: Oracle::new(w),
            events: Vec::new(),
            batch: RxBatch::with_capacity(4096),
            staged: Vec::with_capacity(4096),
            origin,
            tracer: Tracer::new(trace, origin),
            iter: 0,
            frame_id: 0,
            ctl_allocs: 0,
        }
    }

    fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spin_until(&self, t_ns: u64) -> u64 {
        loop {
            let now = self.clock_ns();
            if now >= t_ns {
                return now;
            }
            std::hint::spin_loop();
        }
    }

    /// Generate one burst due at `due_ns`, enqueue it, pump it out. A
    /// refused enqueue is a failed operation and ends the run.
    fn offer(&mut self, due_ns: u64) -> Result<(), Violation> {
        let frame = self.frame_id;
        self.frame_id = self.frame_id.wrapping_add(1);
        let n = self.gen.burst_len();

        let t = self.tracer.begin();
        self.gen.burst(frame, due_ns);
        self.oracle.frame_started(frame, due_ns, n as u32);
        self.tracer.end(SpanName::Gen, self.iter, t);

        let t = self.tracer.begin();
        let server = self.tx.server_mut();
        for i in 0..n {
            let (flow, payload) = self.gen.packet(i);
            if let Err(e) = server.enqueue(self.handles[flow as usize], payload) {
                return Err(Violation(format!(
                    "flow {flow}: enqueue refused ({e}) after {} packets",
                    self.oracle.tally().offered
                )));
            }
            self.oracle.offered(flow);
        }
        self.tracer.end(SpanName::ServerEnqueue, self.iter, t);

        let now = SimTime::from_nanos(self.clock_ns());
        let t = self.tracer.begin();
        self.tx
            .server_mut()
            .pump_into(now, usize::MAX, &mut self.events);
        self.tracer.end(SpanName::ServerPump, self.iter, t);
        Ok(())
    }

    /// Serve the receive side once: control plane, socket sweep, poll
    /// `count` flows from `first`, verify, recycle.
    fn rx_round(&mut self, first: usize, count: usize) -> Result<(), Violation> {
        let now = SimTime::from_nanos(self.clock_ns());
        if let Tx::Reactor(reactor) = &mut self.tx {
            let t = self.tracer.begin();
            let a0 = alloc::allocations();
            drop(reactor.poll(now));
            self.ctl_allocs += alloc::allocations() - a0;
            self.tracer.end(SpanName::ReactorPoll, self.iter, t);
        }

        let t = self.tracer.begin();
        self.demux.sweep(now);
        self.tracer.end(SpanName::DemuxSweep, self.iter, t);

        let t = self.tracer.begin();
        let flows = self.w.flows;
        for k in 0..count {
            let f = ((first + k) % flows) as u32;
            self.demux.poll_flow_into(f, &mut self.batch);
            for pb in self.batch.drain() {
                self.staged.push((f, pb));
            }
        }
        self.tracer.end(SpanName::DemuxPoll, self.iter, t);

        let delivered_at = self.clock_ns();
        let t = self.tracer.begin();
        for (f, pb) in &self.staged {
            self.oracle.delivery(*f, pb.as_slice(), delivered_at)?;
        }
        self.tracer.end(SpanName::Verify, self.iter, t);

        let t = self.tracer.begin();
        for (_, pb) in self.staged.drain(..) {
            self.demux.recycle(pb);
        }
        self.tracer.end(SpanName::DemuxRecycle, self.iter, t);
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let server = self.tx.server();
        for l in server.links() {
            if let Some(u) = l.udp() {
                let s = u.stats();
                c.tx_sent_frames += s.sent_frames;
                c.tx_send_syscalls += s.send_syscalls;
                c.reverse_syscalls += s.recv_syscalls;
                c.udp_dropped_queue += s.dropped_queue;
            }
            if let Some(ch) = l.chaos() {
                c.chaos_dropped_loss += ch.dropped_loss;
            }
        }
        for l in self.demux.links() {
            if let Some(u) = l.udp() {
                let s = u.stats();
                c.rx_recv_frames += s.recv_frames;
                c.rx_recv_syscalls += s.recv_syscalls;
                c.reverse_syscalls += s.send_syscalls;
                c.udp_dropped_queue += s.dropped_queue;
                c.kernel_rcvbuf_drops += u.kernel_drops();
            }
        }
        let s = server.stats();
        c.markers_sent = s.path.markers_sent;
        c.server_dropped_backpressure = s.dropped_backpressure;
        c.demux_dropped_malformed = self.demux.net_stats().dropped_malformed;
        for h in &self.handles {
            if let Some(r) = self.demux.flow_stats(h.id()) {
                c.receiver_skips += r.skips;
                c.receiver_marks_applied += r.marks_applied;
                c.receiver_dropped_overflow += r.dropped_overflow;
            }
        }
        if let Tx::Reactor(r) = &self.tx {
            let s = r.stats();
            c.reactor_polls = s.polls;
            c.reactor_control_in = s.control_in;
        }
        c
    }

    /// Socket settings as the kernel applied them (zeros over memory).
    pub fn link_env(&self) -> LinkEnv {
        let mut e = LinkEnv::default();
        for l in self.tx.server().links() {
            if let Some(u) = l.udp() {
                e.sndbuf = u.stats().sndbuf;
                e.gso_channels += u.gso_offload() as u64;
            }
        }
        for l in self.demux.links() {
            if let Some(u) = l.udp() {
                e.rcvbuf = u.stats().rcvbuf;
                e.gro_channels += u.gro_offload() as u64;
            }
        }
        e
    }

    /// The flows an iteration polls: the ones its burst touched, or all
    /// of them when the population is small enough to poll every time.
    fn poll_window(&self) -> (usize, usize) {
        if self.w.flows <= self.w.burst {
            (0, self.w.flows)
        } else {
            self.gen.last_window()
        }
    }

    /// The fixed-count warm-up: `pkts` packets through the same loop,
    /// back to back, nothing recorded but everything verified.
    pub fn warm_up(&mut self, pkts: u64) -> Result<(), Violation> {
        let mut offered = 0;
        while offered < pkts {
            let now = self.clock_ns();
            self.offer(now)?;
            let (first, count) = self.poll_window();
            self.rx_round(first, count)?;
            offered += self.w.burst as u64;
        }
        Ok(())
    }

    /// The measured window.
    pub fn measure(&mut self, budget: Budget) -> Result<Measured, Violation> {
        let slice_pkts = self.w.slice_pkts();
        let mut slices: Vec<Slice> = Vec::with_capacity(1 << 12);
        let mut frame_hist = Box::new(LogHist::new());
        let mut lag_hist = Box::new(LogHist::new());
        self.oracle.slice_hist.clear();

        let counters0 = self.counters();
        let (user0, sys0) = cpu_times_ns();
        let tally0 = self.oracle.tally();
        self.ctl_allocs = 0;
        self.tracer.set_recording(true);
        let allocs0 = alloc::allocations();
        let mut edge_clock = clock::core_clock_ghz();

        let mut pacer = self
            .w
            .pacing
            .map(|p| Pacer::new(self.clock_ns() + p.period_ns, p.period_ns));
        let mut now = match &pacer {
            Some(p) => self.spin_until(p.next_due_ns()),
            None => self.clock_ns(),
        };
        let window_start = now;
        let mut slice_start = now;
        let mut slice_in_order = tally0.in_order;
        let mut offered = 0u64;
        let mut next_edge = slice_pkts;

        loop {
            let iter_start = now;
            let due = match pacer.as_mut() {
                Some(p) => {
                    let (due, lag) = p.take_due(now).expect("the loop waits for each due time");
                    lag_hist.record(lag);
                    due
                }
                None => now,
            };
            self.offer(due)?;
            offered += self.w.burst as u64;
            let (first, count) = self.poll_window();
            loop {
                self.rx_round(first, count)?;
                now = self.clock_ns();
                let Some(p) = &pacer else { break };
                let t = self.oracle.tally();
                if t.delivered >= t.offered || now >= p.next_due_ns() {
                    break;
                }
            }
            if let Some(p) = &pacer {
                if now < p.next_due_ns() {
                    let t = self.tracer.begin();
                    now = self.spin_until(p.next_due_ns());
                    self.tracer.end(SpanName::Idle, self.iter, t);
                }
            }
            self.tracer.end(SpanName::Iter, self.iter, iter_start);
            self.iter = self.iter.wrapping_add(1);

            if offered >= next_edge {
                next_edge += slice_pkts;
                let in_order = self.oracle.tally().in_order;
                let clock_now = clock::core_clock_ghz();
                let h = &mut self.oracle.slice_hist;
                slices.push(Slice {
                    goodput_pps: (in_order - slice_in_order) as f64 * 1e9
                        / (now - slice_start).max(1) as f64,
                    frame_p50_us: h.percentile_us(50.0),
                    frame_p90_us: h.percentile_us(90.0),
                    frames: h.count(),
                    clock_edges_ghz: [edge_clock, clock_now],
                });
                edge_clock = clock_now;
                frame_hist.merge(h);
                h.clear();
                // The clock reading (45 µs) belongs to no slice; on the
                // open loop the frame it delayed is charged its lateness.
                now = self.clock_ns();
                slice_start = now;
                slice_in_order = in_order;
                let done = match budget {
                    Budget::Packets(n) => offered >= n,
                    Budget::Seconds(s) => (now - window_start) as f64 >= s * 1e9,
                };
                if done {
                    break;
                }
            }
        }

        let allocs = alloc::allocations() - allocs0;
        self.tracer.set_recording(false);
        let (user1, sys1) = cpu_times_ns();
        let counters1 = self.counters();
        let t1 = self.oracle.tally();
        Ok(Measured {
            open_loop: pacer.is_some(),
            secs: (now - window_start) as f64 / 1e9,
            slices,
            frame_hist,
            lag_hist,
            tally: Tally {
                offered: t1.offered - tally0.offered,
                delivered: t1.delivered - tally0.delivered,
                in_order: t1.in_order - tally0.in_order,
                out_of_order: t1.out_of_order - tally0.out_of_order,
                frames_done: t1.frames_done - tally0.frames_done,
            },
            counters: counters1.since(&counters0),
            allocs: allocs - self.ctl_allocs,
            ctl_allocs: self.ctl_allocs,
            cpu_user_ns: user1 - user0,
            cpu_sys_ns: sys1 - sys0,
        })
    }

    fn chaos_lost(&self) -> u64 {
        self.tx
            .server()
            .links()
            .iter()
            .filter_map(|l| l.chaos())
            .map(|c| c.dropped_loss)
            .sum()
    }

    /// Drain what is still in flight (idle markers resynchronise flows
    /// left waiting behind a loss), then close the oracle's books.
    pub fn finish(mut self) -> Result<Final, Violation> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut rounds = 0u32;
        loop {
            let t = self.oracle.tally();
            if t.delivered + self.chaos_lost() >= t.offered || Instant::now() > deadline {
                break;
            }
            rounds += 1;
            if rounds.is_multiple_of(16) {
                let now = SimTime::from_nanos(self.clock_ns());
                let server = self.tx.server_mut();
                server.send_idle_markers_into(now, &mut self.events);
                server.flush();
            }
            self.rx_round(0, self.w.flows)?;
        }
        let lost = self.chaos_lost();
        self.oracle.settle(lost)?;
        Ok(Final {
            tally: self.oracle.tally(),
            lost,
            jain: self.oracle.jain(),
            max_rss_kb: max_rss_kb(),
        })
    }
}

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub secs: f64,
    /// Core clock read before it and after it.
    pub clock_edges_ghz: [f64; 2],
}

impl Setup {
    /// Core clock over the set-up: the mean of its edges.
    pub fn clock_ghz(&self) -> f64 {
        (self.clock_edges_ghz[0] + self.clock_edges_ghz[1]) / 2.0
    }
}

/// One complete run of a workload over one kind of link.
pub struct RunOut {
    /// Each full set-up (links, stack, flows, warm-up).
    pub setups: Vec<Setup>,
    pub measured: Measured,
    pub fin: Final,
    pub env: LinkEnv,
    pub tracer: Tracer,
}

/// Set the stack up `setups` times, timing each: the first half (rounded
/// up) before the measured window, the last of them carrying it, the rest
/// after the run has drained — a window's length apart, so that a stretch
/// of host interference a few seconds long cannot sit on all of them.
pub fn run_with<T: BenchLink, R: BenchLink>(
    w: &Workload,
    seed: u64,
    make_links: impl Fn() -> io::Result<(Vec<T>, Vec<R>)>,
    setups: usize,
    warm_pkts: u64,
    budget: Budget,
    trace: bool,
) -> Result<RunOut, String> {
    let mut times = Vec::with_capacity(setups);
    let mut set_up = || -> Result<Session<T, R>, String> {
        let clock0 = clock::core_clock_ghz();
        let t0 = Instant::now();
        let (tx, rx) = make_links().map_err(|e| format!("opening links: {e}"))?;
        let mut s = Session::new(w, seed, tx, rx, trace);
        s.warm_up(warm_pkts).map_err(|v| v.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        times.push(Setup {
            secs,
            clock_edges_ghz: [clock0, clock::core_clock_ghz()],
        });
        Ok(s)
    };
    let before = setups.div_ceil(2).max(1);
    let mut s = set_up()?;
    for _ in 1..before {
        drop(s);
        s = set_up()?;
    }
    let env = s.link_env();
    let measured = s.measure(budget).map_err(|v| v.to_string())?;
    let tracer = std::mem::replace(&mut s.tracer, Tracer::new(false, Instant::now()));
    let fin = s.finish().map_err(|v| v.to_string())?;
    for _ in before..setups {
        drop(set_up()?);
    }
    Ok(RunOut {
        setups: times,
        measured,
        fin,
        env,
        tracer,
    })
}

/// Which links to run a workload over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Loopback UDP sockets, this many channels (impaired when the
    /// workload is lossy).
    Udp(usize),
    /// In-memory pairs, `CHANNELS` of them, never impaired.
    Mem,
}

/// [`run_with`] over the links `transport` names.
pub fn run(
    w: &Workload,
    seed: u64,
    transport: Transport,
    setups: usize,
    warm_pkts: u64,
    budget: Budget,
    trace: bool,
) -> Result<RunOut, String> {
    match transport {
        Transport::Udp(n) if w.lossy => run_with(
            w,
            seed,
            || udp_pairs(n).map(|(tx, rx)| (impair(w, seed, tx), rx)),
            setups,
            warm_pkts,
            budget,
            trace,
        ),
        Transport::Udp(n) => run_with(w, seed, || udp_pairs(n), setups, warm_pkts, budget, trace),
        Transport::Mem => run_with(
            w,
            seed,
            || Ok(mem_pairs(CHANNELS)),
            setups,
            warm_pkts,
            budget,
            trace,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lossy workload at toy scale over in-memory links, impaired the
    /// same way: what the impairment layer drops is a function of the
    /// seed alone.
    fn lossy_run(seed: u64) -> (u64, u64, u64, u64) {
        let w = Workload {
            warm_pkts: 0,
            ..*Workload::by_name("mixed_lossy_8flows").unwrap()
        };
        let out = run_with(
            &w,
            seed,
            || {
                let (tx, rx) = mem_pairs(CHANNELS);
                Ok((impair(&w, seed, tx), rx))
            },
            1,
            0,
            Budget::Packets(w.slice_pkts()),
            false,
        )
        .expect("oracle holds");
        (
            out.fin.lost,
            out.fin.tally.out_of_order,
            out.fin.tally.delivered,
            out.fin.tally.offered,
        )
    }

    impl BenchLink for ImpairedLink<TestDatagramLink> {
        fn chaos(&self) -> Option<ChaosSnapshot> {
            Some(self.snapshot())
        }
    }

    #[test]
    fn chaos_losses_are_a_function_of_the_seed() {
        let a = lossy_run(1996);
        assert_eq!(a, lossy_run(1996));
        assert!(a.0 > 0, "1 % of a quarter of ~200k packets is not zero");
        assert_ne!(a.0, lossy_run(7).0);
        assert_eq!(a.0 + a.2, a.3, "offered == delivered + lost");
    }

    #[test]
    fn lossless_run_over_memory_is_fifo_complete_and_fair() {
        let w = Workload {
            flows: 300,
            ..*Workload::by_name("small_10kflows_64B").unwrap()
        };
        let out = run(
            &w,
            5,
            Transport::Mem,
            2,
            128 * 10,
            Budget::Packets(128 * 50),
            true,
        )
        .expect("oracle holds");
        assert_eq!(out.setups.len(), 2);
        assert_eq!(out.fin.lost, 0);
        assert_eq!(out.fin.tally.out_of_order, 0);
        assert_eq!(out.fin.tally.delivered, out.fin.tally.offered);
        assert!(out.fin.jain > 0.99);
        // One slice at least, and every iteration left its spans.
        assert!(!out.measured.slices.is_empty());
        let s = out.tracer.self_times();
        assert!(s.wall_ns > 0 && s.iter_self_ns < s.wall_ns);
    }

    #[test]
    fn open_loop_over_memory_times_frames_from_their_due_time() {
        let w = Workload {
            measure_pkts: 256 * 50,
            ..*Workload::by_name("paced_frames_4flows").unwrap()
        };
        let out = run(
            &w,
            5,
            Transport::Mem,
            1,
            256 * 4,
            Budget::Packets(256 * 20),
            false,
        )
        .expect("oracle holds");
        let m = &out.measured;
        assert_eq!(m.tally.frames_done, m.tally.offered / 256);
        assert_eq!(m.lag_hist.count(), m.tally.offered / 256);
        // 20 frames at 640 µs apiece: the window cannot be shorter.
        assert!(m.secs >= 19.0 * 640e-6, "{}", m.secs);
        assert!(m.frame_hist.count() > 0);
    }
}
