//! Layers timed in isolation, over the workload's own length and flow
//! trace, plus the kernel-only reference cell.
//!
//! Each cell repeats one burst-sized batch of work, timing every batch,
//! for a fixed share of the run, and reports the median batch — so one
//! preempted batch does not move the number. These are per-layer metrics:
//! they explain an end-to-end change, they never stand in for one.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use crate::clock::at_ref;
use crate::stack::{
    chaos_plan, mem_pairs, CHANNELS, MARKER_ROUNDS, MTU, POOL_BUFFERS, QUANTUM, QUEUE_FRAMES,
    SOCK_BUF,
};
use crate::surface::*;
use crate::workload::{Gen, Workload};

/// Flow-scheduler quantum the server builds its DRR with (its default).
const FLOW_QUANTUM: i64 = 1 << 14;
/// Frames per `BatchIo` batch (the channel default).
const IO_BATCH: usize = 32;

/// Run `batch` (which returns operations done and nanoseconds spent on
/// them) until `target` has passed; median nanoseconds per operation.
fn median_ns_per_op(target: Duration, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let mut per_op = Vec::with_capacity(4096);
    let start = Instant::now();
    while per_op.len() < 16 || (start.elapsed() < target && per_op.len() < 1 << 20) {
        let (ops, ns) = batch();
        if ops > 0 {
            per_op.push(ns as f64 / ops as f64);
        }
    }
    crate::report::median(&mut per_op)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// The first `bursts` bursts of the workload: per packet, flow and
/// payload length.
fn trace_of(w: &Workload, seed: u64, bursts: usize) -> Vec<Vec<(u32, usize)>> {
    let mut g = Gen::new(w, seed);
    (0..bursts)
        .map(|b| {
            g.burst(b as u32, 0);
            (0..g.burst_len())
                .map(|i| {
                    let (flow, p) = g.packet(i);
                    (flow, p.len())
                })
                .collect()
        })
        .collect()
}

/// Every isolated-layer number of one workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCells {
    pub srr_assign_ns_per_pkt: f64,
    pub drr_turn_ns: f64,
    pub sender_send_batch_ns_per_pkt: f64,
    pub receiver_replay_ns_per_pkt: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
    pub pool_take_put_ns: f64,
    pub flow_cycle_ns: f64,
    pub chaos_ns_per_frame: f64,
}

/// A link that accepts everything and delivers nothing, so the
/// impairment layer can be timed with nothing underneath it.
struct NullLink;

impl DatagramLink for NullLink {
    fn send_frame(&mut self, _frame: &[u8]) -> Result<(), TxError> {
        Ok(())
    }
    fn recv_frame(&mut self, _buf: &mut [u8]) -> Option<usize> {
        None
    }
    fn mtu(&self) -> usize {
        MTU
    }
}

impl LayerCells {
    /// Every cell as it would read at the reference clock, having been
    /// taken at `ghz`.
    pub fn at_ref(self, ghz: f64) -> Self {
        let r = |ns| at_ref(ns, ghz);
        Self {
            srr_assign_ns_per_pkt: r(self.srr_assign_ns_per_pkt),
            drr_turn_ns: r(self.drr_turn_ns),
            sender_send_batch_ns_per_pkt: r(self.sender_send_batch_ns_per_pkt),
            receiver_replay_ns_per_pkt: r(self.receiver_replay_ns_per_pkt),
            frame_encode_ns: r(self.frame_encode_ns),
            frame_decode_ns: r(self.frame_decode_ns),
            pool_take_put_ns: r(self.pool_take_put_ns),
            flow_cycle_ns: r(self.flow_cycle_ns),
            chaos_ns_per_frame: r(self.chaos_ns_per_frame),
        }
    }
}

/// Time every isolated layer, spending about `per_cell` on each.
pub fn layer_cells(w: &Workload, seed: u64, per_cell: Duration) -> LayerCells {
    let trace = trace_of(w, seed, 64);
    let lens: Vec<Vec<usize>> = trace
        .iter()
        .map(|b| b.iter().map(|&(_, l)| l).collect())
        .collect();
    let mut out = LayerCells::default();
    let mut at = 0usize;
    let mut next = move || {
        at = (at + 1) % 64;
        at
    };

    // sched: SRR channel assignment over the length trace.
    {
        let mut srr = Srr::equal(CHANNELS, QUANTUM);
        let mut chans: Vec<ChannelId> = Vec::with_capacity(w.burst);
        out.srr_assign_ns_per_pkt = median_ns_per_op(per_cell, || {
            let l = &lens[next()];
            chans.clear();
            let ((), ns) = timed(|| srr.assign_batch(black_box(l), &mut chans));
            black_box(&chans);
            (l.len() as u64, ns)
        });
    }

    // sched: the DRR work of one burst exactly as the server does it —
    // activate per enqueued packet, then turns that charge packets while
    // the deficit affords them — per turn taken.
    {
        let mut drr = Drr::new(FLOW_QUANTUM);
        let mut pending: Vec<std::collections::VecDeque<i64>> = vec![Default::default(); w.flows];
        for f in 0..w.flows {
            drr.register(f);
        }
        out.drr_turn_ns = median_ns_per_op(per_cell, || {
            let b = &trace[next()];
            timed(|| {
                for &(flow, len) in b {
                    pending[flow as usize].push_back(len as i64);
                    drr.activate(flow as usize);
                }
                let mut turns = 0u64;
                while let Some(f) = drr.begin_turn() {
                    while let Some(&cost) = pending[f].front() {
                        if drr.deficit(f) < cost {
                            break;
                        }
                        drr.charge(f, cost);
                        pending[f].pop_front();
                    }
                    drr.end_turn(f, !pending[f].is_empty());
                    turns += 1;
                }
                turns
            })
        });
    }

    // core: the striping engine's batch send, then the receiver replaying
    // exactly those decisions (push in per-channel order, poll_into).
    {
        let markers = MarkerConfig::every_rounds(MARKER_ROUNDS);
        let mut tx = StripingSender::new(Srr::equal(CHANNELS, QUANTUM), markers);
        let mut rx: LogicalReceiver<Srr, usize> =
            LogicalReceiver::new(Srr::equal(CHANNELS, QUANTUM), 1 << 14);
        rx.reserve(1 << 10);
        let mut chans: Vec<ChannelId> = Vec::with_capacity(w.burst);
        let mut marks: Vec<(usize, ChannelId, Marker)> = Vec::new();
        let mut got: RxBatch<usize> = RxBatch::with_capacity(w.burst);
        let mut send_ns = Vec::with_capacity(4096);
        out.receiver_replay_ns_per_pkt = median_ns_per_op(per_cell * 2, || {
            let l = &lens[next()];
            let ((), ns) = timed(|| tx.send_batch(black_box(l), &mut chans, &mut marks));
            send_ns.push(ns as f64 / l.len() as f64);
            let (n, ns) = timed(|| {
                let mut m = 0;
                for (i, (&c, &len)) in chans.iter().zip(l).enumerate() {
                    rx.push(c, Arrival::Data(len));
                    while m < marks.len() && marks[m].0 == i {
                        rx.push(marks[m].1, Arrival::Marker(marks[m].2));
                        m += 1;
                    }
                }
                rx.poll_into(&mut got)
            });
            assert_eq!(n, l.len(), "in-memory replay delivers every packet");
            (n as u64, ns)
        });
        out.sender_send_batch_ns_per_pkt = crate::report::median(&mut send_ns);
    }

    // frame: encode and decode at the workload's own payload lengths.
    {
        let payload = vec![0xA5u8; crate::workload::MAX_PAYLOAD];
        let mut bufs: Vec<Vec<u8>> = (0..w.burst).map(|_| Vec::with_capacity(MTU)).collect();
        let mut enc = Vec::with_capacity(4096);
        out.frame_decode_ns = median_ns_per_op(per_cell * 2, || {
            let b = &trace[next()];
            let ((), ns) = timed(|| {
                for (buf, &(flow, len)) in bufs.iter_mut().zip(b) {
                    frame::encode_data_flow_into(flow, black_box(&payload[..len]), buf);
                }
            });
            enc.push(ns as f64 / b.len() as f64);
            let (ok, ns) = timed(|| {
                bufs.iter()
                    .filter(|buf| frame::try_decode_flow(black_box(buf)).is_ok())
                    .count()
            });
            assert_eq!(ok, b.len());
            (ok as u64, ns)
        });
        out.frame_encode_ns = crate::report::median(&mut enc);
    }

    // pool: one take and one put.
    {
        let mut pool = BufPool::new(MTU, POOL_BUFFERS);
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(IO_BATCH);
        out.pool_take_put_ns = median_ns_per_op(per_cell, || {
            let ((), ns) = timed(|| {
                for _ in 0..IO_BATCH {
                    held.push(pool.take());
                }
                for b in held.drain(..) {
                    pool.put(black_box(b));
                }
            });
            (IO_BATCH as u64, ns)
        });
    }

    // server + demux: retire one flow and bring it back (close, reopen
    // into the freed slot, touch the receive replica).
    {
        let (tx_links, rx_links) = mem_pairs(CHANNELS);
        let mut server: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
            .scheduler(Srr::equal(CHANNELS, QUANTUM))
            .markers(MarkerConfig::every_rounds(MARKER_ROUNDS))
            .links(tx_links)
            .max_flows(w.flows)
            .queue_frames(QUEUE_FRAMES)
            .build();
        let mut demux: FlowDemux<Srr, TestDatagramLink> = FlowDemux::builder()
            .scheduler(Srr::equal(CHANNELS, QUANTUM))
            .links(rx_links)
            .pool_buffers(POOL_BUFFERS)
            .max_flows(w.flows)
            .build();
        let mut handles: Vec<FlowHandle> = (0..w.flows)
            .map(|_| server.open_flow().expect("under the cap"))
            .collect();
        for h in &handles {
            demux.touch_flow(h.id());
        }
        let mut victim = 0usize;
        out.flow_cycle_ns = median_ns_per_op(per_cell, || {
            let ((), ns) = timed(|| {
                for _ in 0..IO_BATCH {
                    let h = handles[victim];
                    server.close_flow(h).expect("live handle");
                    demux.close_flow(h.id());
                    let h = server.open_flow().expect("slot just freed");
                    demux.touch_flow(h.id());
                    handles[victim] = h;
                    victim = (victim + 1) % handles.len();
                }
            });
            (IO_BATCH as u64, ns)
        });
    }

    // chaos: the impairment layer alone (channel 0's plan over a link
    // that swallows everything). Zero on workloads that run without it.
    if w.lossy {
        let mut link = ImpairedLink::new(NullLink, chaos_plan(0), w.chaos_seed(seed, 0));
        let frames: Vec<Vec<u8>> = trace[0]
            .iter()
            .map(|&(flow, len)| {
                let mut f = Vec::new();
                frame::encode_data_flow_into(flow, &vec![0u8; len], &mut f);
                f
            })
            .collect();
        // A plan that draws a fate per frame never takes the storage it
        // is offered, so the same run can be offered again and again.
        let mut run = frames;
        let mut results = Vec::with_capacity(run.len());
        out.chaos_ns_per_frame = median_ns_per_op(per_cell, || {
            results.clear();
            let ((), ns) = timed(|| link.send_run_owned(&mut run, &mut results));
            (run.len() as u64, ns)
        });
    }
    out
}

/// The kernel-only reference: bare `BatchIo` on four loopback socket
/// pairs set up like the channels, no striping, no framing beyond length.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysCell {
    pub ceiling_pps: f64,
    pub tx_ns_per_frame: f64,
    pub rx_ns_per_frame: f64,
}

impl SysCell {
    /// The cell as it would read at the reference clock, having been
    /// taken at `ghz`.
    pub fn at_ref(self, ghz: f64) -> Self {
        Self {
            ceiling_pps: self.ceiling_pps / at_ref(1.0, ghz),
            tx_ns_per_frame: at_ref(self.tx_ns_per_frame, ghz),
            rx_ns_per_frame: at_ref(self.rx_ns_per_frame, ghz),
        }
    }
}

struct RawPair {
    tx: UdpSocket,
    rx: UdpSocket,
    tx_io: BatchIo,
    rx_io: BatchIo,
}

fn raw_pair() -> std::io::Result<RawPair> {
    let bind = || -> std::io::Result<UdpSocket> {
        let s = UdpSocket::bind(("127.0.0.1", 0))?;
        s.set_nonblocking(true)?;
        sys::configure_buffers(&s, Some(SOCK_BUF), Some(SOCK_BUF));
        Ok(s)
    };
    let (tx, rx) = (bind()?, bind()?);
    tx.connect(rx.local_addr()?)?;
    rx.connect(tx.local_addr()?)?;
    let tx_io = BatchIo::new(IO_BATCH, false);
    let mut rx_io = BatchIo::new(IO_BATCH, false);
    if rx_io.batched() {
        rx_io.set_gro(sys::configure_offload(&rx));
    }
    Ok(RawPair {
        tx,
        rx,
        tx_io,
        rx_io,
    })
}

/// Move the workload's frames (same lengths, same burst, dealt round
/// robin over the four pairs) for `secs`; median burst.
pub fn sys_cell(w: &Workload, seed: u64, secs: f64) -> std::io::Result<SysCell> {
    let mut pairs = (0..CHANNELS)
        .map(|_| raw_pair())
        .collect::<std::io::Result<Vec<_>>>()?;
    let bursts = trace_of(w, seed, 16);
    // Per burst, per pair: the frames that pair carries.
    let dealt: Vec<Vec<Vec<Vec<u8>>>> = bursts
        .iter()
        .map(|b| {
            let mut per_pair = vec![Vec::new(); CHANNELS];
            for (i, &(flow, len)) in b.iter().enumerate() {
                per_pair[i % CHANNELS].push(vec![0x5Au8; frame::data_flow_frame_len(flow, len)]);
            }
            per_pair
        })
        .collect();
    let mut bufs: Vec<Vec<u8>> = (0..IO_BATCH).map(|_| vec![0u8; MTU]).collect();
    let mut lens = vec![0usize; IO_BATCH];
    let (mut tx_ns, mut rx_ns, mut burst_pps) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut at = 0;
    while start.elapsed().as_secs_f64() < secs {
        at = (at + 1) % dealt.len();
        let t0 = Instant::now();
        let mut sent = 0u64;
        for (p, frames) in pairs.iter_mut().zip(&dealt[at]) {
            let mut off = 0;
            while off < frames.len() {
                let rep = p.tx_io.send_frames(&p.tx, &frames[off..]);
                if rep.hard_error {
                    return Err(std::io::Error::other("bare send failed"));
                }
                off += rep.sent;
            }
            sent += frames.len() as u64;
        }
        let t1 = Instant::now();
        let mut got = 0u64;
        while got < sent {
            for p in pairs.iter_mut() {
                loop {
                    let rep = p.rx_io.recv_frames(&p.rx, &mut bufs, &mut lens);
                    got += rep.received as u64;
                    if rep.received < IO_BATCH {
                        break;
                    }
                }
            }
            if t1.elapsed() > Duration::from_secs(5) {
                return Err(std::io::Error::other("bare receive lost frames"));
            }
        }
        let t2 = Instant::now();
        tx_ns.push((t1 - t0).as_nanos() as f64 / sent as f64);
        rx_ns.push((t2 - t1).as_nanos() as f64 / sent as f64);
        burst_pps.push(sent as f64 * 1e9 / (t2 - t0).as_nanos() as f64);
    }
    Ok(SysCell {
        ceiling_pps: crate::report::median(&mut burst_pps),
        tx_ns_per_frame: crate::report::median(&mut tx_ns),
        rx_ns_per_frame: crate::report::median(&mut rx_ns),
    })
}
