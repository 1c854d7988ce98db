//! One striped channel over one kernel UDP socket.
//!
//! [`UdpChannel`] is the [`DatagramLink`] instance the real-socket
//! datapath runs on: a *connected*, non-blocking `std::net::UdpSocket`
//! per channel, so data frames, markers and control messages for channel
//! `c` all share one 5-tuple — per-flow FIFO on loopback, quasi-FIFO in
//! the wild, which is precisely the channel model the §5 marker recovery
//! tolerates. The reverse path (probe acks, membership acks, credit)
//! rides the same socket in the other direction.
//!
//! The channel is **syscall-batched**: the send queue goes to the kernel
//! as `sendmmsg` batches and receives drain the socket in `recvmmsg`
//! batches (see [`crate::sys`]), with a portable per-frame fallback
//! behind the same API.
//!
//! **One send route.** A frame reaches the kernel one way: it joins the
//! bounded local queue, and [`flush`](DatagramLink::flush) submits the
//! queue. The two entries differ only in who calls the flush:
//!
//! - [`send_run_owned`](DatagramLink::send_run_owned) — the datapath:
//!   park each frame of the run and let the caller's end-of-burst
//!   [`flush`](DatagramLink::flush) drain the whole queue in mmsg
//!   batches. This is what lifts batch occupancy above the per-run
//!   packet count: SRR runs at large payloads are only 1–2 frames long,
//!   but a burst parks many frames per channel before the single flush.
//! - [`send_frame`](DatagramLink::send_frame) — control and probes:
//!   flush the backlog, join the queue, and — when nothing is parked
//!   ahead — flush again and report this frame's own fate.
//!
//! Receives go through [`recv_trains`](DatagramLink::recv_trains): land
//! up to a window-array's worth of datagrams (whole GRO trains, on an
//! offloaded socket) in one `recvmmsg`, straight where the caller will
//! read them — the caller opens the [bundles](crate::bundle) the send
//! planner packed short frames into.
//!
//! **The send queue** is one ordered queue of two kinds of entry, chosen
//! by the frame's length alone. A frame of at most [`ARENA_FRAME_MAX`]
//! bytes — a data frame without the mark field, a marker frame, control
//! — is *copied* to the end of the channel's **send arena**, one byte
//! buffer reserved when the channel is built, and queued as `(offset,
//! len)`; a longer frame keeps the storage it came in (swapped against a
//! recycled buffer) and is queued as that `Vec`. Short frames queued one
//! after another therefore lie back to back in memory, and
//! [`BatchIo::send_slices`] hands a run of them to the kernel as *one*
//! iovec of their `sendmmsg` message, where a queue of separate buffers
//! costs one iovec a frame — ~20 ns each in the kernel's copy-in,
//! whatever its length, which is more than the 70 bytes cost to copy.
//! For a 1236-byte frame it is the other way round (a second user copy
//! costs more than the iovec it saves), hence a rule by length with the
//! break-even measured (EXPERIMENTS.md, "One iovec per train"). The
//! arena's life cycle is the queue's: bytes are appended while entries
//! are outstanding, never moved (a partial `sendmmsg` leaves offsets
//! behind it valid), never grown, and the arena rewinds to empty exactly
//! when the queue does — on the flush that sends its last entry, or the
//! drain of a dead socket. A short frame that finds the arena full takes
//! the long frames' path. `queue_cap` counts entries of both kinds;
//! per-channel FIFO, every `TxError` and every errno recovery below are
//! what they were with one kind. The portable path walks the same queue
//! with one `send` an entry.
//!
//! Backpressure mirrors the simulated links: when the kernel refuses a
//! frame (`WouldBlock`), frames park in the bounded local queue for the
//! next flush; when that queue is full too, the send reports
//! [`TxError::QueueFull`] — the same congestion signal a full simulated
//! transmit queue produces. Queue buffers are recycled, so backpressure
//! episodes allocate only up to the queue's high-water mark.
//!
//! The snapshot counts syscalls, kernel datagrams and iovecs on both
//! directions and reports the effective `SO_SNDBUF`/`SO_RCVBUF`;
//! [`kernel_drops`](UdpChannel::kernel_drops) estimates kernel
//! receive-buffer overflow — losses that otherwise surface only as §5
//! marker recoveries.
//!
//! **Socket-error recovery.** A hard send error always concerns the
//! queue's head frame, and one ladder (`head_refused`) decides from the
//! errno what becomes of it — parked, dropped, or the channel dead —
//! whichever entry offered the frame:
//!
//! - `ECONNREFUSED` — a connected UDP socket echoes the peer's ICMP
//!   port-unreachable back on the *next* send. One echo is transient
//!   (the peer may be restarting), so the frame stays parked and a score
//!   (+2 per refusal) tracks persistence; past [`REFUSED_DEAD_SCORE`]
//!   the channel declares itself dead. Only *inbound* traffic — proof
//!   the peer is alive — decays the score (−1 per receive): a
//!   kernel-accepted send proves nothing about the peer, and ICMP
//!   echoes are rate-limited, so accepted sends interleaving with the
//!   refusals they provoked must never outvote them.
//! - `ENOBUFS` — kernel transmit memory, not our queue: the frame
//!   stays parked and the next [`ENOBUFS_BACKOFF`] flushes are skipped
//!   to let the NIC drain rather than hammering the syscall. A
//!   `send_frame` in that window is parked with the rest (`Ok`): its own
//!   flush counts among the skipped ones, so a caller that only ever
//!   calls `send_frame` still sees the queue leave, in order.
//! - `EMSGSIZE` — the path MTU shrank under us: clamp the channel MTU
//!   below the refused frame's length, demote GSO (super-datagrams are
//!   the first casualties of a shrunken path), and drop the frame
//!   ([`TxError::TooBig`] to a `send_frame` caller) — the frames behind
//!   it may well fit.
//! - anything else — the frame is dropped ([`TxError::LinkDown`]);
//!   [`HARD_DEAD_STREAK`] *consecutive* fatal errors declare the channel
//!   dead.
//!
//! Every frame dropped this way is counted `dropped_error`, once.
//!
//! A dead channel fails every send fast with `LinkDown`, drains its
//! queue (frames counted `dropped_error`, buffers recycled), and
//! reports [`DatagramLink::link_dead`] — which the sender reactor
//! feeds to the failover driver, retiring the channel through the same
//! §liveness path a silent channel takes. No `io::Error` ever bubbles
//! out of the datapath.
//!
//! **Socket recreation.** Death is no longer terminal: the lifecycle
//! machinery (see [`crate::lifecycle`]) calls
//! [`revive`](DatagramLink::revive) after the cooldown, and the channel
//! rebuilds itself from its remembered [`ChannelSpec`] — a *fresh*
//! connected socket on the **same local port** (the peer's connected
//! socket filters by 5-tuple, so the port must survive the swap) with
//! a fresh [`BatchIo`]. Every acquired penalty is scoped to the socket
//! generation and resets with it: the refusal score, the ENOBUFS
//! backoff, the fatal streak, the EMSGSIZE MTU clamp, and the GSO
//! demotion all start over, to be re-proved or re-acquired against the
//! new path. The revived channel reports itself
//! [`LifecycleState::Probing`] until the first inbound frame arrives.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};

use stripe_link::{DatagramLink, Train, TxError};

use crate::lifecycle::LifecycleState;
use crate::sys::{self, BatchIo};

/// Refusal score at which a channel stops believing `ECONNREFUSED` is
/// transient. Refusals add 2; inbound frames (proof the peer lives)
/// subtract 1; accepted sends subtract nothing — the kernel accepting
/// a datagram says nothing about the peer, and ICMP echoes are
/// rate-limited. A truly-gone peer crosses this within a handful of
/// echoes; a restarting peer's blip decays as soon as its traffic
/// resumes.
pub const REFUSED_DEAD_SCORE: u32 = 16;

/// Consecutive unclassified hard errors before the channel is dead.
pub const HARD_DEAD_STREAK: u32 = 8;

/// Flushes skipped after the kernel reports `ENOBUFS`.
pub const ENOBUFS_BACKOFF: u32 = 4;

/// Longest frame the send queue *copies* into the channel's
/// send arena instead of taking its storage. Queued back to back there, a
/// run of such frames is one iovec of its `sendmmsg` message, and an
/// iovec costs the kernel ~20 ns to walk whatever its length (64 × 70 B as
/// one GSO train: 40 ns/pkt as 64 iovecs, 21 as one). A copy costs by the
/// byte, so the rule is by length, and the break-even is measured, not
/// assumed (EXPERIMENTS.md, "One iovec per train"): the frames that gain
/// are data frames too short for the mark field, marker frames and
/// control; copying 1236-byte frames as well cost `bulk_1flow_1200B`
/// 1–5 % in eight pairs of eight, a second user copy being dearer than
/// the iovec it saves.
pub const ARENA_FRAME_MAX: usize = 320;

/// Most bytes a send arena reserves (never more than `queue_cap` frames
/// of [`ARENA_FRAME_MAX`]): room for the short frames of several pumps.
/// Reserved at build and never grown — offsets into it stay put while
/// the kernel may still be owed the bytes — so when it is full, short
/// frames take the long frames' path until the queue next empties.
const ARENA_BYTES: usize = 256 << 10;

const ECONNREFUSED: i32 = 111;
const ENOBUFS: i32 = 105;
const EMSGSIZE: i32 = 90;

/// What a hard send error means for the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendFailure {
    /// `ECONNREFUSED`: ICMP echo from the peer — transient until proven
    /// persistent.
    Refused,
    /// `ENOBUFS`: kernel transmit buffers exhausted — back off.
    NoBufs,
    /// `EMSGSIZE`: the path MTU shrank — clamp and demote GSO.
    MsgSize,
    /// Anything else — fatal if it keeps happening.
    Fatal,
}

fn classify_errno(errno: Option<i32>) -> SendFailure {
    match errno {
        Some(ECONNREFUSED) => SendFailure::Refused,
        Some(ENOBUFS) => SendFailure::NoBufs,
        Some(EMSGSIZE) => SendFailure::MsgSize,
        _ => SendFailure::Fatal,
    }
}

/// Counters for one UDP channel, under the workspace snapshot convention
/// (`dropped_<cause>`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpChannelSnapshot {
    /// Frames handed to the kernel.
    pub sent_frames: u64,
    /// Bytes of the frames handed to the kernel.
    pub sent_bytes: u64,
    /// Frames received from the kernel, each of a bundle's counted.
    pub recv_frames: u64,
    /// Bytes received from the kernel: what landed, bundle headers and
    /// padding included (through `recv_frame`, the frame's bytes).
    pub recv_bytes: u64,
    /// Frames that joined the local queue: every accepted frame, the
    /// queue being the one way to the kernel.
    pub queued: u64,
    /// Frames dropped because the local queue was full.
    pub dropped_queue: u64,
    /// Frames dropped on a hard socket error.
    pub dropped_error: u64,
    /// Send-direction syscalls (`sendmmsg`, or per-frame `send` on the
    /// fallback path, including calls that reported backpressure).
    pub send_syscalls: u64,
    /// Receive-direction syscalls (`recvmmsg`/`recv`, including the ones
    /// that found the queue empty).
    pub recv_syscalls: u64,
    /// Kernel datagrams the sent frames left as: a GSO train counts 1.
    pub sent_trains: u64,
    /// Scatter-gather pieces the sent trains were handed to the kernel
    /// as (see [`sys::SendReport::iovecs`]): one per train where short
    /// frames queue back to back, one per frame otherwise.
    pub sent_iovecs: u64,
    /// Kernel datagrams the received frames arrived as: a GRO-coalesced
    /// train counts 1.
    pub recv_trains: u64,
    /// Effective `SO_SNDBUF` in bytes (0 = unknown/unsupported).
    pub sndbuf: u64,
    /// Effective `SO_RCVBUF` in bytes (0 = unknown/unsupported).
    pub rcvbuf: u64,
    /// `ECONNREFUSED` echoes absorbed as transient (frame stays parked).
    pub transient_refused: u64,
    /// `ENOBUFS` episodes that triggered a flush backoff.
    pub enobufs_backoffs: u64,
    /// `EMSGSIZE` recoveries: MTU clamped, GSO demoted.
    pub mtu_clamps: u64,
    /// The channel's own view of its lifecycle: `Live` while flowing,
    /// `Dead` once [`UdpChannel::is_dead`], `Probing` between a socket
    /// rebuild and the first inbound frame. (The cooldown/rejoining
    /// phases live in the reactor's [`crate::lifecycle`] machine — the
    /// channel itself only knows about its socket.)
    pub lifecycle: LifecycleState,
    /// Socket generation: 0 for the original socket, +1 per successful
    /// rebuild. Penalties (refusal score, MTU clamp, GSO demotion) are
    /// scoped to one generation.
    pub generation: u64,
    /// Completed revivals: rebuilt sockets that went on to hear the
    /// peer again (`Probing` → `Live`).
    pub rejoins: u64,
    /// Socket rebuild attempts (successful or not).
    pub revive_attempts: u64,
}

impl UdpChannelSnapshot {
    /// Average frames per send syscall — the batch-occupancy figure of
    /// merit (1.0 on the per-frame path, up to the batch cap here).
    pub fn send_batch_occupancy(&self) -> f64 {
        if self.send_syscalls == 0 {
            0.0
        } else {
            self.sent_frames as f64 / self.send_syscalls as f64
        }
    }

    /// Average frames per kernel datagram, both directions: how long
    /// the GSO/GRO trains are (1.0 with no offload). The kernel's
    /// per-datagram stack traversal is paid once per train, so this —
    /// not the syscall count — prices a frame on an offloaded socket.
    pub fn frames_per_train(&self) -> f64 {
        let trains = self.sent_trains + self.recv_trains;
        if trains == 0 {
            0.0
        } else {
            (self.sent_frames + self.recv_frames) as f64 / trains as f64
        }
    }
}

/// Everything needed to rebuild a channel's socket from scratch: the
/// bound local endpoint, the connected peer, and the builder knobs.
/// Captured at bind/connect time, consumed by
/// [`revive`](DatagramLink::revive) (in-place socket swap). The `mtu`
/// here is the *configured* MTU — EMSGSIZE clamps apply to the live
/// channel only, so a rebuilt socket re-probes the path from the
/// configured value.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    local: SocketAddr,
    peer: Option<SocketAddr>,
    mtu: usize,
    batch: usize,
    sndbuf: Option<usize>,
    rcvbuf: Option<usize>,
    force_fallback: bool,
}

/// Builder for [`UdpChannel`]: MTU, queue depth, mmsg batch size, kernel
/// socket buffer sizes, and the portable-fallback override.
#[derive(Debug, Clone)]
pub struct UdpChannelBuilder {
    mtu: usize,
    queue_cap: usize,
    batch: usize,
    sndbuf: Option<usize>,
    rcvbuf: Option<usize>,
    force_fallback: bool,
}

impl UdpChannelBuilder {
    /// Start from an MTU; everything else has serviceable defaults
    /// (queue 4096 frames, batch [`sys::DEFAULT_BATCH`], kernel buffer
    /// sizes left to the system).
    pub fn new(mtu: usize) -> Self {
        Self {
            mtu,
            queue_cap: 1 << 12,
            batch: sys::DEFAULT_BATCH,
            sndbuf: None,
            rcvbuf: None,
            force_fallback: false,
        }
    }

    /// Bounded local send-queue depth, in frames; at least 1, since
    /// every frame reaches the kernel through the queue.
    pub fn queue_cap(mut self, frames: usize) -> Self {
        self.queue_cap = frames.max(1);
        self
    }

    /// Frames per `mmsghdr` batch (send and receive).
    pub fn batch(mut self, frames: usize) -> Self {
        self.batch = frames.max(1);
        self
    }

    /// Request `SO_SNDBUF` bytes (the kernel may round; the effective
    /// value lands in the snapshot).
    pub fn sndbuf(mut self, bytes: usize) -> Self {
        self.sndbuf = Some(bytes);
        self
    }

    /// Request `SO_RCVBUF` bytes (see [`sndbuf`](Self::sndbuf)).
    pub fn rcvbuf(mut self, bytes: usize) -> Self {
        self.rcvbuf = Some(bytes);
        self
    }

    /// Pin this channel to the portable per-frame syscall path even
    /// where `sendmmsg`/`recvmmsg` are available (the process-wide
    /// `STRIPE_NET_FALLBACK=1` does the same for every channel).
    pub fn force_fallback(mut self, yes: bool) -> Self {
        self.force_fallback = yes;
        self
    }

    /// Bind an unconnected channel to an ephemeral loopback port.
    /// Connect it with [`UdpChannel::connect`] before use.
    pub fn bind_loopback(&self) -> io::Result<UdpChannel> {
        self.bind(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Bind an unconnected channel to `addr`.
    pub fn bind(&self, addr: SocketAddr) -> io::Result<UdpChannel> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        let spec = ChannelSpec {
            // The *effective* local endpoint, so a rebuild after an
            // ephemeral-port bind re-claims the same port.
            local: sock.local_addr()?,
            peer: None,
            mtu: self.mtu,
            batch: self.batch,
            sndbuf: self.sndbuf,
            rcvbuf: self.rcvbuf,
            force_fallback: self.force_fallback,
        };
        let (sndbuf, rcvbuf) = sys::configure_buffers(&sock, self.sndbuf, self.rcvbuf);
        let stats = UdpChannelSnapshot {
            sndbuf,
            rcvbuf,
            ..Default::default()
        };
        let mut io = BatchIo::new(self.batch, self.force_fallback);
        if io.batched() {
            // GRO makes the kernel deliver coalesced segment trains; the
            // BatchIo splitter must know to take receives apart again.
            io.set_gro(sys::configure_offload(&sock));
        }
        // Pre-stock one batch's worth of full-capacity queue buffers:
        // deferred sends and markers draw on this pool at rates that
        // drift with the marker phase, and lazily growing it mid-run
        // would show up as steady-state allocations.
        let recycle = (0..self.batch)
            .map(|_| Vec::with_capacity(self.mtu))
            .collect();
        Ok(UdpChannel {
            sock,
            spec,
            mtu: self.mtu,
            queue: VecDeque::new(),
            arena: Vec::with_capacity(
                ARENA_BYTES.min(self.queue_cap.saturating_mul(ARENA_FRAME_MAX)),
            ),
            recycle,
            queue_cap: self.queue_cap,
            io,
            stats,
            refused_score: 0,
            hard_streak: 0,
            backoff_flushes: 0,
            dead: false,
        })
    }

    /// A connected pair of loopback channels — one striped channel's two
    /// endpoints, for tests, examples and benches.
    pub fn pair(&self) -> io::Result<(UdpChannel, UdpChannel)> {
        let mut a = self.bind_loopback()?;
        let mut b = self.bind_loopback()?;
        a.connect(b.local_addr()?)?;
        b.connect(a.local_addr()?)?;
        Ok((a, b))
    }
}

/// One frame parked in the send queue.
#[derive(Debug)]
enum Queued {
    /// A short frame's bytes, copied to `arena[at..at + len]`.
    Arena { at: u32, len: u32 },
    /// A longer frame, in the storage it arrived in (or a recycled
    /// buffer it was copied to).
    Owned(Vec<u8>),
}

impl Queued {
    fn bytes<'a>(&'a self, arena: &'a [u8]) -> &'a [u8] {
        match *self {
            Queued::Arena { at, len } => &arena[at as usize..][..len as usize],
            Queued::Owned(ref buf) => buf,
        }
    }
}

/// One striped channel: a connected non-blocking UDP socket plus a
/// bounded, buffer-recycling send queue, batched through
/// [`BatchIo`](crate::sys::BatchIo).
#[derive(Debug)]
pub struct UdpChannel {
    sock: UdpSocket,
    /// How to rebuild the socket from scratch (see [`ChannelSpec`]).
    spec: ChannelSpec,
    mtu: usize,
    /// The one ordered send queue: per-channel FIFO holds across both
    /// kinds of entry.
    queue: VecDeque<Queued>,
    /// Where the queue's short frames lie, back to back in queue order
    /// (see [`ARENA_FRAME_MAX`]). Appended to while entries are
    /// outstanding, rewound only when the queue is empty, never grown.
    arena: Vec<u8>,
    /// Storage for [`Queued::Owned`] entries copied in, and what
    /// [`send_run_owned`](DatagramLink::send_run_owned) hands back for
    /// the storage it takes.
    recycle: Vec<Vec<u8>>,
    queue_cap: usize,
    io: BatchIo,
    stats: UdpChannelSnapshot,
    /// Decaying `ECONNREFUSED` score (see [`REFUSED_DEAD_SCORE`]).
    refused_score: u32,
    /// Consecutive unclassified hard errors (see [`HARD_DEAD_STREAK`]).
    hard_streak: u32,
    /// Flushes left to skip after `ENOBUFS` (see [`ENOBUFS_BACKOFF`]).
    backoff_flushes: u32,
    /// Permanently failed: every send is `LinkDown`, the reactor
    /// surfaces it to failover.
    dead: bool,
}

impl UdpChannel {
    /// Start building a channel with non-default batch, queue, or kernel
    /// buffer settings.
    pub fn builder(mtu: usize) -> UdpChannelBuilder {
        UdpChannelBuilder::new(mtu)
    }

    /// Bind an unconnected channel to an ephemeral loopback port with
    /// default batching. Connect it with [`connect`](Self::connect)
    /// before use.
    pub fn bind_loopback(mtu: usize, queue_cap: usize) -> io::Result<Self> {
        UdpChannelBuilder::new(mtu)
            .queue_cap(queue_cap)
            .bind_loopback()
    }

    /// Connect to the peer endpoint: from here on, `send`/`recv` use this
    /// single 5-tuple and stray datagrams from other sources are filtered
    /// by the kernel. The peer is remembered so a socket rebuild
    /// ([`revive`](DatagramLink::revive)) can reconnect.
    pub fn connect(&mut self, peer: SocketAddr) -> io::Result<()> {
        self.sock.connect(peer)?;
        self.spec.peer = Some(peer);
        Ok(())
    }

    /// The local socket address (to tell the peer).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// A connected pair of loopback channels with default batching.
    pub fn pair(mtu: usize, queue_cap: usize) -> io::Result<(Self, Self)> {
        UdpChannelBuilder::new(mtu).queue_cap(queue_cap).pair()
    }

    /// Counters.
    pub fn stats(&self) -> UdpChannelSnapshot {
        self.stats
    }

    /// Estimate of datagrams the kernel dropped on this socket's receive
    /// buffer (see [`sys::socket_drops_port`]).
    pub fn kernel_drops(&self) -> u64 {
        match self.sock.local_addr() {
            Ok(addr) => sys::socket_drops_port(addr.port()),
            Err(_) => 0,
        }
    }

    /// Bounded local queue depth, in frames.
    pub fn queue_capacity(&self) -> usize {
        self.queue_cap
    }

    /// Whether sends/receives go through the batched mmsg syscalls
    /// (false on the portable fallback).
    pub fn batched_syscalls(&self) -> bool {
        self.io.batched()
    }

    /// Whether equal-size frame runs go out as GSO super-datagrams
    /// (demoted at runtime if the kernel rejects `UDP_SEGMENT`).
    pub fn gso_offload(&self) -> bool {
        self.io.gso_active()
    }

    /// Whether this socket receives GRO-coalesced trains (split back
    /// into frames by the receive path).
    pub fn gro_offload(&self) -> bool {
        self.io.gro()
    }

    /// A recycled buffer, or a fresh one carrying full MTU capacity.
    /// Fresh buffers MUST be pre-sized: a zero-capacity vec entering the
    /// recycle cycle would grow under some later frame encode, breaking
    /// the zero-allocations-per-packet steady state.
    fn recycled_buf(&mut self) -> Vec<u8> {
        self.recycle
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.mtu))
    }

    /// Whether the bounded local queue has room for one more frame;
    /// counts the refusal when it has not.
    fn queue_has_room(&mut self) -> Result<(), TxError> {
        if self.queue.len() >= self.queue_cap {
            self.stats.dropped_queue += 1;
            return Err(TxError::QueueFull);
        }
        Ok(())
    }

    /// Queue a short frame by copying it to the arena's end, directly
    /// behind the short frame queued before it. `false`, nothing done,
    /// for a frame over [`ARENA_FRAME_MAX`] or one the arena has no room
    /// left for.
    fn enqueue_short(&mut self, frame: &[u8]) -> bool {
        let at = self.arena.len();
        if frame.len() > ARENA_FRAME_MAX || at + frame.len() > self.arena.capacity() {
            return false;
        }
        self.arena.extend_from_slice(frame);
        self.queue.push_back(Queued::Arena {
            at: at as u32,
            len: frame.len() as u32,
        });
        true
    }

    /// Park a frame in the bounded local queue by copying it: to the
    /// arena if short, else into recycled storage.
    fn enqueue(&mut self, frame: &[u8]) -> Result<(), TxError> {
        self.queue_has_room()?;
        if !self.enqueue_short(frame) {
            let mut buf = self.recycled_buf();
            buf.clear();
            buf.extend_from_slice(frame);
            self.queue.push_back(Queued::Owned(buf));
        }
        self.stats.queued += 1;
        Ok(())
    }

    /// Park a frame without copying more than a short one's bytes: a
    /// longer frame's storage is *taken*, a recycled buffer handed back
    /// in its place.
    fn enqueue_owned(&mut self, frame: &mut Vec<u8>) -> Result<(), TxError> {
        self.queue_has_room()?;
        if !self.enqueue_short(frame) {
            let replacement = self.recycled_buf();
            self.queue
                .push_back(Queued::Owned(std::mem::replace(frame, replacement)));
        }
        self.stats.queued += 1;
        Ok(())
    }

    /// Take the head frame off the queue, its storage back to the
    /// recycle pool; its length. The arena rewinds when that empties the
    /// queue — the only moment no entry points into it.
    fn pop_head(&mut self) -> usize {
        let len = match self.queue.pop_front().expect("head frame exists") {
            Queued::Arena { len, .. } => len as usize,
            Queued::Owned(buf) => {
                let len = buf.len();
                self.recycle.push(buf);
                len
            }
        };
        if self.queue.is_empty() {
            self.arena.clear();
        }
        len
    }

    /// Whether the channel has declared itself permanently failed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The kernel accepted a send: fatal streaks reset. The refusal
    /// score is *not* forgiven here — acceptance proves the local
    /// syscall path, not the peer (see [`note_alive`](Self::note_alive)).
    fn note_success(&mut self) {
        self.hard_streak = 0;
    }

    /// Inbound traffic arrived: the peer demonstrably lives, so refusal
    /// evidence decays — and a rebuilt socket that was still probing has
    /// now heard the path end to end, completing its revival.
    fn note_alive(&mut self) {
        self.refused_score = self.refused_score.saturating_sub(1);
        if self.stats.lifecycle == LifecycleState::Probing {
            self.stats.lifecycle = LifecycleState::Live;
            self.stats.rejoins += 1;
        }
    }

    /// One `ECONNREFUSED` echo. Returns `true` while still transient.
    fn note_refused(&mut self) -> bool {
        self.stats.transient_refused += 1;
        self.refused_score += 2;
        if self.refused_score >= REFUSED_DEAD_SCORE {
            self.declare_dead();
        }
        !self.dead
    }

    fn note_nobufs(&mut self) {
        self.stats.enobufs_backoffs += 1;
        self.backoff_flushes = ENOBUFS_BACKOFF;
    }

    /// `EMSGSIZE` for a datagram of `len` bytes: the path takes less
    /// than we believed, so believe the evidence.
    fn note_msgsize(&mut self, len: usize) {
        self.stats.mtu_clamps += 1;
        let clamped = len.saturating_sub(1).max(1);
        if clamped < self.mtu {
            self.mtu = clamped;
        }
        self.io.demote_gso();
    }

    /// One unclassified hard error; enough in a row kill the channel.
    fn note_fatal(&mut self) {
        self.stats.dropped_error += 1;
        self.hard_streak += 1;
        if self.hard_streak >= HARD_DEAD_STREAK {
            self.declare_dead();
        }
    }

    /// The socket has failed: fail sends fast and hand the queued
    /// frames' storage back to the recycle pool (counted, never
    /// silently). Not a point of no return since the lifecycle work:
    /// [`revive`](DatagramLink::revive) rebuilds the socket after the
    /// reactor's cooldown.
    fn declare_dead(&mut self) {
        if self.dead {
            return;
        }
        self.dead = true;
        self.stats.lifecycle = LifecycleState::Dead;
        while !self.queue.is_empty() {
            self.stats.dropped_error += 1;
            self.pop_head();
        }
    }

    /// Kill the socket from outside, exactly as a fatal-errno streak
    /// would from inside: sends fail fast, the queue drains into the
    /// recycle pool, [`DatagramLink::link_dead`] raises. The chaos/ops
    /// hook the flap soak uses to force real die→rejoin cycles (the
    /// in-crate tests use the same path via `force_dead`).
    pub fn inject_socket_death(&mut self) {
        self.declare_dead();
    }

    /// Swap in a fresh connected socket on the same local port and
    /// reset every generation-scoped penalty: refusal score, fatal
    /// streak, ENOBUFS backoff, the EMSGSIZE MTU clamp, and (via the
    /// fresh [`BatchIo`]) the GSO demotion. The channel comes back in
    /// [`LifecycleState::Probing`] — alive for I/O but unproven until
    /// the first inbound frame. Reviving a channel that never died is
    /// a no-op. On error the channel stays dead (the old socket is
    /// already gone; the lifecycle backs off and retries).
    pub fn revive_socket(&mut self) -> io::Result<()> {
        if !self.dead {
            return Ok(());
        }
        self.stats.revive_attempts += 1;
        // Free our local port *first*: as long as the old (broken)
        // socket lives, rebinding its port fails. Park a throwaway
        // unbound-equivalent socket in its place so `self.sock` stays
        // valid even if the rebind fails.
        let dummy = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        drop(std::mem::replace(&mut self.sock, dummy));
        let fresh = UdpSocket::bind(self.spec.local)?;
        fresh.set_nonblocking(true)?;
        let (sndbuf, rcvbuf) = sys::configure_buffers(&fresh, self.spec.sndbuf, self.spec.rcvbuf);
        self.stats.sndbuf = sndbuf;
        self.stats.rcvbuf = rcvbuf;
        // A fresh BatchIo starts with GSO enabled again: offload
        // demotion was evidence about the *old* path.
        let mut io = BatchIo::new(self.spec.batch, self.spec.force_fallback);
        if io.batched() {
            io.set_gro(sys::configure_offload(&fresh));
        }
        if let Some(peer) = self.spec.peer {
            fresh.connect(peer)?;
        }
        self.sock = fresh;
        self.io = io;
        self.mtu = self.spec.mtu;
        self.refused_score = 0;
        self.hard_streak = 0;
        self.backoff_flushes = 0;
        self.dead = false;
        self.stats.generation += 1;
        self.stats.lifecycle = LifecycleState::Probing;
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn force_dead(&mut self) {
        self.declare_dead();
    }

    #[cfg(test)]
    pub(crate) fn force_backoff(&mut self) {
        self.note_nobufs();
    }

    #[cfg(test)]
    pub(crate) fn force_refused(&mut self) {
        self.note_refused();
    }

    #[cfg(test)]
    pub(crate) fn refused_score(&self) -> u32 {
        self.refused_score
    }

    /// The kernel answered the queue's head frame with a hard error: the
    /// one place an errno decides a frame's fate. `None` leaves the head
    /// parked for a later flush; `Some(e)` means it has left the queue
    /// for good, counted `dropped_error` — dropped alone, or drained with
    /// the whole queue by the death of the channel — and `e` is what a
    /// [`send_frame`](DatagramLink::send_frame) caller is told. `datagram`
    /// is the refused datagram's length: the head frame's, or its
    /// escape's.
    fn head_refused(&mut self, errno: Option<i32>, datagram: usize) -> Option<TxError> {
        match classify_errno(errno) {
            SendFailure::Refused => (!self.note_refused()).then_some(TxError::LinkDown),
            SendFailure::NoBufs => {
                self.note_nobufs();
                None
            }
            SendFailure::MsgSize => {
                // The head frame outgrew the path: it will never leave.
                self.pop_head();
                self.note_msgsize(datagram);
                self.stats.dropped_error += 1;
                Some(TxError::TooBig)
            }
            SendFailure::Fatal => {
                // Dropped rather than left to wedge the queue.
                self.pop_head();
                self.note_fatal();
                Some(TxError::LinkDown)
            }
        }
    }

    /// Submit the queue to the kernel: how many frames it took, and why
    /// the last frame dropped from the head (if any) was dropped.
    fn submit(&mut self) -> (usize, Option<TxError>) {
        if self.dead {
            return (0, None);
        }
        if self.backoff_flushes > 0 {
            // ENOBUFS grace: give the kernel a few caller cycles to
            // drain transmit memory instead of re-hitting the syscall.
            self.backoff_flushes -= 1;
            return (0, None);
        }
        let mut drained = 0;
        let mut dropped = None;
        // The whole queue is one submission, wrapped ring or not: cut in
        // two it would cost a second syscall and split a GSO train.
        while !self.queue.is_empty() {
            let offered = self.queue.len();
            let (queue, arena) = (&self.queue, &self.arena);
            let rep = self
                .io
                .send_slices(&self.sock, offered, |i| queue[i].bytes(arena));
            self.stats.send_syscalls += rep.syscalls;
            self.stats.sent_trains += rep.messages;
            self.stats.sent_iovecs += rep.iovecs;
            for _ in 0..rep.sent {
                self.stats.sent_frames += 1;
                self.stats.sent_bytes += self.pop_head() as u64;
                drained += 1;
            }
            if rep.sent > 0 {
                self.note_success();
            }
            if rep.hard_error {
                match self.head_refused(rep.errno, rep.refused_len) {
                    None => break,
                    // Keep draining, the frames behind it may well fit
                    // (a dead channel's queue is empty by now).
                    gone => dropped = gone,
                }
            } else if rep.sent < offered {
                break; // kernel backpressure: retry on the next flush
            }
        }
        (drained, dropped)
    }
}

impl DatagramLink for UdpChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        if self.dead {
            return Err(TxError::LinkDown);
        }
        if frame.len() > self.mtu {
            return Err(TxError::TooBig);
        }
        if !self.queue.is_empty() {
            self.flush();
            if self.dead {
                // The flush's own errors may have crossed the threshold.
                return Err(TxError::LinkDown);
            }
        }
        self.enqueue(frame)?;
        if self.queue.len() > 1 {
            // Earlier frames are still parked: FIFO keeps it behind them.
            return Ok(());
        }
        // Alone in the queue, so whatever this submission drops is it.
        match self.submit().1 {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        // Deferred batch: every frame joins the local queue — a short
        // one's bytes, a longer one's storage — and the caller's
        // end-of-burst flush submits the whole accumulated queue as mmsg
        // batches. This is what keeps batch occupancy at burst size
        // rather than SRR run length.
        out.reserve(frames.len());
        for frame in frames.iter_mut() {
            let r = if self.dead {
                Err(TxError::LinkDown)
            } else if frame.len() > self.mtu {
                Err(TxError::TooBig)
            } else {
                self.enqueue_owned(frame)
            };
            out.push(r);
        }
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        // Must go through the GRO-aware splitter: on an offloaded socket
        // a raw recv would hand back a whole coalesced train as one blob.
        let (got, rep) = self.io.recv_one(&self.sock, buf);
        self.stats.recv_syscalls += rep.syscalls;
        self.stats.recv_trains += rep.trains;
        if let Some(n) = got {
            self.stats.recv_frames += 1;
            self.stats.recv_bytes += n as u64;
            self.note_alive();
        }
        got
    }

    fn recv_window(&self) -> usize {
        self.io.recv_window(self.mtu)
    }

    fn recv_trains(&mut self, windows: &mut [&mut [u8]], trains: &mut [Train]) -> usize {
        let (landed, rep) = self.io.recv_trains(&self.sock, windows, trains);
        self.stats.recv_syscalls += rep.syscalls;
        self.stats.recv_trains += rep.trains;
        self.stats.recv_frames += rep.received as u64;
        for t in &trains[..landed] {
            self.stats.recv_bytes += t.bytes as u64;
        }
        if landed > 0 {
            self.note_alive();
        }
        landed
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn coalesce_hint(&self) -> bool {
        self.gso_offload()
    }

    fn flush(&mut self) -> usize {
        self.submit().0
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn link_dead(&self) -> bool {
        self.dead
    }

    fn revive(&mut self) -> bool {
        self.revive_socket().is_ok()
    }

    fn tx_evidence(&self) -> Option<stripe_link::TxEvidence> {
        Some(stripe_link::TxEvidence {
            frames: self.stats.sent_frames,
            bytes: self.stats.sent_bytes,
            dropped: self.stats.dropped_queue + self.stats.dropped_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_moves_frames_both_ways() {
        let (mut a, mut b) = UdpChannel::pair(1500, 8).unwrap();
        a.send_frame(&[1, 2, 3]).unwrap();
        b.send_frame(&[9]).unwrap();
        let mut buf = [0u8; 1500];
        // Loopback delivery is immediate but poll to be safe.
        let n = recv_poll(&mut b, &mut buf).expect("frame a->b");
        assert_eq!(&buf[..n], &[1, 2, 3]);
        let n = recv_poll(&mut a, &mut buf).expect("frame b->a");
        assert_eq!(&buf[..n], &[9]);
        assert_eq!(a.stats().sent_frames, 1);
        assert_eq!(a.stats().recv_frames, 1);
    }

    #[test]
    fn frames_arrive_in_order_on_loopback() {
        let (mut a, mut b) = UdpChannel::pair(256, 8).unwrap();
        for i in 0..32u8 {
            a.send_frame(&[i]).unwrap();
        }
        let mut buf = [0u8; 256];
        for want in 0..32u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (1, want));
        }
    }

    #[test]
    fn oversized_frame_rejected_before_the_kernel() {
        let (mut a, _b) = UdpChannel::pair(16, 4).unwrap();
        assert_eq!(a.send_frame(&[0u8; 17]), Err(TxError::TooBig));
        assert_eq!(a.stats().sent_frames, 0);
    }

    #[test]
    fn send_run_owned_parks_until_flush() {
        let (mut a, mut b) = UdpChannel::pair(64, 8).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Ok(()), Ok(()), Ok(()), Ok(())]);
        assert_eq!(a.backlog(), 4, "owned sends defer to flush");
        assert_eq!(a.stats().sent_frames, 0);
        assert_eq!(a.flush(), 4);
        let s = a.stats();
        assert_eq!(s.sent_frames, 4);
        if a.batched_syscalls() {
            assert_eq!(s.send_syscalls, 1, "whole backlog in one sendmmsg");
        }
        let mut buf = [0u8; 64];
        for i in 0..4u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (8, i));
        }
    }

    #[test]
    fn send_run_owned_respects_queue_bound() {
        let (mut a, _b) = UdpChannel::pair(64, 2).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Ok(()), Ok(()), Err(TxError::QueueFull)]);
        assert_eq!(frames[2], vec![2; 8], "rejected frame left untouched");
        assert_eq!(a.stats().dropped_queue, 1);
    }

    /// Land on `ch`, four windows a call, until `want` frames arrived
    /// (polling briefly: loopback may lag the send); the frames, in
    /// order.
    fn land_frames(ch: &mut UdpChannel, want: usize) -> Vec<Vec<u8>> {
        let window = ch.recv_window();
        let mut room = vec![0u8; 4 * window];
        let mut trains = [Train::default(); 4];
        let mut got = Vec::new();
        for _ in 0..1000 {
            let landed = {
                let mut windows: Vec<&mut [u8]> = room.chunks_exact_mut(window).collect();
                ch.recv_trains(&mut windows, &mut trains)
            };
            for (w, &t) in room.chunks_exact(window).zip(&trains[..landed]) {
                got.extend(crate::bundle::frames_of(w, t).map(|(at, n)| w[at..at + n].to_vec()));
            }
            if got.len() >= want {
                break;
            }
            std::thread::yield_now();
        }
        got
    }

    #[test]
    fn recv_trains_lands_whole_runs() {
        let (mut a, mut b) = UdpChannel::builder(64).batch(4).pair().unwrap();
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames.clone(), &mut out);
        assert_eq!(a.flush(), 10);
        assert_eq!(land_frames(&mut b, 10), frames);
        let s = b.stats();
        assert_eq!((s.recv_frames, s.recv_bytes), (10, 40));
        assert!(s.recv_syscalls > 0);
        if b.gro_offload() && a.gso_offload() {
            assert!(s.recv_trains < 10, "equal lengths ride trains");
        }
    }

    #[test]
    fn builder_reports_effective_kernel_buffers() {
        let (a, _b) = UdpChannel::builder(1500)
            .sndbuf(1 << 16)
            .rcvbuf(1 << 16)
            .pair()
            .unwrap();
        let s = a.stats();
        if crate::sys::mmsg_compiled() {
            assert!(s.sndbuf >= 1 << 16);
            assert!(s.rcvbuf >= 1 << 16);
        } else {
            assert_eq!((s.sndbuf, s.rcvbuf), (0, 0));
        }
    }

    #[test]
    fn forced_fallback_channel_still_delivers() {
        let (mut a, mut b) = UdpChannel::builder(64).force_fallback(true).pair().unwrap();
        assert!(!a.batched_syscalls());
        let mut frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(a.flush(), 4);
        assert_eq!(a.stats().send_syscalls, 4, "per-frame syscalls");
        let mut buf = [0u8; 64];
        for i in 0..4u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (8, i));
        }
    }

    #[test]
    fn refused_peer_ends_in_link_dead_never_a_panic() {
        let (mut a, b) = UdpChannel::pair(256, 64).unwrap();
        drop(b); // peer gone: sends start echoing ICMP port-unreachable
        for i in 0..10_000u32 {
            let _ = a.send_frame(&[i as u8; 32]);
            let _ = a.flush();
            if a.is_dead() {
                break;
            }
        }
        let s = a.stats();
        if s.transient_refused > 0 {
            // The ICMP echo reached us (Linux loopback): the decaying
            // score must have crossed the line and retired the channel.
            assert!(a.is_dead(), "persistent refusal must kill: {s:?}");
            assert!(a.link_dead());
            assert_eq!(a.send_frame(&[1, 2, 3]), Err(TxError::LinkDown));
            assert_eq!(a.backlog(), 0, "death drains the queue");
        }
    }

    #[test]
    fn emsgsize_clamps_mtu_and_reports_too_big() {
        // Claim an MTU beyond the 65,507-byte UDP maximum: the kernel
        // answers EMSGSIZE and the channel must adapt, not die.
        let (mut a, _b) = UdpChannel::builder(70_000).queue_cap(8).pair().unwrap();
        let huge = vec![0u8; 66_000];
        let r = a.send_frame(&huge);
        let s = a.stats();
        if s.mtu_clamps > 0 {
            assert_eq!(r, Err(TxError::TooBig));
            assert!(a.mtu() < 66_000, "mtu clamped under the refused frame");
            assert!(!a.is_dead(), "EMSGSIZE is recoverable, not fatal");
            assert!(!a.gso_offload(), "GSO demoted with the clamp");
            // Frames within the clamped MTU still flow.
            a.send_frame(&[7u8; 64]).unwrap();
            assert_eq!(a.stats().sent_frames, 1);
        }
    }

    /// A frame the kernel refuses for good is counted `dropped_error`
    /// once, whichever entry offered it.
    #[test]
    fn emsgsize_drop_is_counted_once_on_both_entries() {
        let huge = vec![0u8; 66_000];
        let (mut a, _b) = UdpChannel::builder(70_000).queue_cap(8).pair().unwrap();
        let r = a.send_frame(&huge);
        let (mut c, _d) = UdpChannel::builder(70_000).queue_cap(8).pair().unwrap();
        park(&mut c, &huge).unwrap();
        c.flush();
        if a.stats().mtu_clamps == 0 || c.stats().mtu_clamps == 0 {
            return; // this kernel took it: nothing to count
        }
        assert_eq!(r, Err(TxError::TooBig));
        assert_eq!(a.stats().dropped_error, 1, "send_frame");
        assert_eq!(c.stats().dropped_error, 1, "send_run_owned + flush");
        assert_eq!(a.tx_evidence(), c.tx_evidence());
        assert_eq!(a.tx_evidence().unwrap().dropped, 1);
    }

    #[test]
    fn enobufs_backoff_skips_flushes_then_resumes() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        park(&mut a, &[9u8; 16]).unwrap();
        a.force_backoff();
        for _ in 0..ENOBUFS_BACKOFF {
            assert_eq!(a.flush(), 0, "backoff must skip the syscall");
            assert_eq!(a.backlog(), 1);
        }
        assert_eq!(a.flush(), 1, "backoff expired: the frame goes out");
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(16));
        assert_eq!(a.stats().enobufs_backoffs, 1);
    }

    /// `send_frame` has no way around the queue: offered during a
    /// backoff the frame is parked and reported `Ok`, its own submission
    /// being the first skipped flush, and leaves when the backoff ends.
    #[test]
    fn send_frame_during_enobufs_backoff_parks_then_leaves() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        a.force_backoff();
        assert_eq!(a.send_frame(&[9u8; 16]), Ok(()));
        assert_eq!((a.backlog(), a.stats().send_syscalls), (1, 0));
        for _ in 1..ENOBUFS_BACKOFF {
            assert_eq!(a.flush(), 0, "backoff must skip the syscall");
        }
        assert_eq!(a.flush(), 1, "backoff expired: the frame goes out");
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(16));
    }

    /// A caller that never calls `flush` still gets its frames out, in
    /// order: each `send_frame` flushes the backlog before it joins it.
    #[test]
    fn send_frame_alone_outlasts_an_enobufs_backoff() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        a.force_backoff();
        for i in 0..ENOBUFS_BACKOFF as u8 {
            assert_eq!(a.send_frame(&[i]), Ok(()));
            assert_eq!(a.backlog(), i as usize + 1, "parked behind the backoff");
        }
        assert_eq!(a.send_frame(&[ENOBUFS_BACKOFF as u8]), Ok(()));
        assert_eq!(a.backlog(), 0);
        let mut buf = [0u8; 256];
        for want in 0..=ENOBUFS_BACKOFF as u8 {
            assert_eq!(recv_poll(&mut b, &mut buf), Some(1));
            assert_eq!(buf[0], want);
        }
    }

    /// A queue of no frames would refuse every frame: the builder keeps
    /// one slot.
    #[test]
    fn queue_cap_is_at_least_one_frame() {
        let (mut a, mut b) = UdpChannel::pair(256, 0).unwrap();
        assert_eq!(a.queue_capacity(), 1);
        a.send_frame(&[5u8; 8]).unwrap();
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(8));
    }

    #[test]
    fn dead_channel_fails_fast_and_drains_its_queue() {
        let (mut a, _b) = UdpChannel::pair(256, 64).unwrap();
        park(&mut a, &[1u8; 8]).unwrap();
        park(&mut a, &[2u8; 8]).unwrap();
        assert_eq!(a.backlog(), 2);
        a.force_dead();
        assert!(a.is_dead() && a.link_dead());
        assert_eq!(a.backlog(), 0, "queued frames drained into recycle");
        assert_eq!(a.send_frame(&[3u8; 8]), Err(TxError::LinkDown));
        let mut frames = vec![vec![4u8; 8]];
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Err(TxError::LinkDown)]);
        assert_eq!(frames[0], vec![4u8; 8], "storage left untouched");
        assert_eq!(a.flush(), 0);
        let s = a.stats();
        assert_eq!(s.dropped_error, 2, "both drained frames counted");
    }

    #[test]
    fn refusal_score_decays_on_inbound_not_on_sends() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        a.force_refused();
        a.force_refused();
        assert_eq!(a.refused_score(), 4);
        // Kernel-accepted sends prove nothing about the peer: no decay.
        // (ICMP refusal echoes are rate-limited, so under sustained
        // refusal accepted sends vastly outnumber observed errors —
        // letting them forgive the score would keep a dead channel
        // alive forever.)
        for i in 0..8u8 {
            a.send_frame(&[i; 16]).unwrap();
        }
        assert_eq!(a.refused_score(), 4);
        assert!(!a.is_dead());
        // Inbound traffic is proof of life: the score decays.
        b.send_frame(&[9u8; 16]).unwrap();
        let mut buf = [0u8; 256];
        assert!(recv_poll(&mut a, &mut buf).is_some());
        assert_eq!(a.refused_score(), 3);
    }

    #[test]
    fn revive_rebuilds_the_socket_on_the_same_port() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        let port = a.local_addr().unwrap().port();
        park(&mut a, &[1u8; 8]).unwrap();
        a.force_dead();
        assert!(a.link_dead());
        assert_eq!(a.stats().lifecycle, LifecycleState::Dead);

        assert!(a.revive(), "loopback rebind must succeed");
        assert!(!a.link_dead());
        assert_eq!(a.local_addr().unwrap().port(), port, "same 5-tuple");
        let s = a.stats();
        assert_eq!(s.lifecycle, LifecycleState::Probing);
        assert_eq!(s.generation, 1);
        assert_eq!(s.revive_attempts, 1);
        assert_eq!(s.rejoins, 0, "unproven until the peer is heard");

        // Traffic flows both ways on the rebuilt socket, and the first
        // inbound frame completes the revival.
        a.send_frame(&[7u8; 8]).unwrap();
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(8));
        b.send_frame(&[9u8; 8]).unwrap();
        assert_eq!(recv_poll(&mut a, &mut buf), Some(8));
        let s = a.stats();
        assert_eq!(s.lifecycle, LifecycleState::Live);
        assert_eq!(s.rejoins, 1);
    }

    #[test]
    fn revive_resets_generation_scoped_penalties() {
        let (mut a, _b) = UdpChannel::pair(2048, 64).unwrap();
        let base_gso = a.gso_offload();
        // Acquire every penalty the old socket can carry.
        a.force_refused();
        a.force_backoff();
        a.note_msgsize(1000); // clamps mtu to 999, demotes GSO
        assert_eq!(a.mtu(), 999);
        assert!(!a.gso_offload());
        a.force_dead();

        assert!(a.revive());
        assert_eq!(a.refused_score(), 0, "refusal score is per generation");
        assert_eq!(a.mtu(), 2048, "EMSGSIZE clamp is per generation");
        assert_eq!(
            a.gso_offload(),
            base_gso,
            "GSO demotion is per generation: the fresh socket re-probes"
        );
        // The backoff reset is observable through flush not skipping.
        park(&mut a, &[3u8; 16]).unwrap();
        assert_eq!(a.flush(), 1, "no inherited ENOBUFS backoff");
    }

    #[test]
    fn reviving_a_live_channel_is_a_noop() {
        let (mut a, _b) = UdpChannel::pair(256, 8).unwrap();
        assert!(a.revive());
        let s = a.stats();
        assert_eq!((s.generation, s.revive_attempts), (0, 0));
        assert_eq!(s.lifecycle, LifecycleState::Live);
    }

    /// Park one frame in the channel's queue until the next flush.
    fn park(ch: &mut UdpChannel, frame: &[u8]) -> Result<(), TxError> {
        let mut out = Vec::new();
        ch.send_run_owned(&mut [frame.to_vec()], &mut out);
        out[0]
    }

    /// A wrapped deque must not split a burst: every flush of a queued
    /// burst is one contiguous submission, so one syscall on the batched
    /// path (and, equal lengths, one GSO train).
    #[test]
    fn flush_submits_a_wrapped_queue_in_one_syscall() {
        let (mut a, mut b) = UdpChannel::builder(256).batch(64).pair().unwrap();
        let mut out = Vec::new();
        for round in 0..50u8 {
            // 36 into a ring whose capacity settles at 64 slots: the head
            // wraps on most rounds.
            let mut frames: Vec<Vec<u8>> = (0..36).map(|_| vec![round; 100]).collect();
            out.clear();
            a.send_run_owned(&mut frames, &mut out);
            assert!(out.iter().all(|r| r.is_ok()));
            assert_eq!(a.flush(), 36);
            assert_eq!(
                land_frames(&mut b, 36).len(),
                36,
                "round {round} went missing"
            );
        }
        let s = a.stats();
        assert_eq!(s.sent_frames, 50 * 36);
        if a.batched_syscalls() {
            assert_eq!(s.send_syscalls, 50, "one sendmmsg per flush");
        }
        if a.gso_offload() {
            assert_eq!(s.sent_trains, 50, "one GSO train per flush");
            assert_eq!(s.frames_per_train(), 36.0);
        }
    }

    /// The arena over one burst: short frames land in it back to back,
    /// in queue order around a long frame that keeps its own storage,
    /// and it rewinds when the flush empties the queue.
    #[test]
    fn short_frames_queue_back_to_back_and_the_arena_rewinds() {
        let (mut a, mut b) = UdpChannel::pair(1500, 64).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 70]).collect();
        frames.insert(4, vec![0xaa; ARENA_FRAME_MAX + 1]);
        frames.push(vec![0xbb; ARENA_FRAME_MAX]);
        let mut offered = frames.clone();
        let mut out = Vec::new();
        a.send_run_owned(&mut offered, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(a.arena.len(), 8 * 70 + ARENA_FRAME_MAX);
        let at: Vec<Option<u32>> = a
            .queue
            .iter()
            .map(|q| match q {
                Queued::Arena { at, .. } => Some(*at),
                Queued::Owned(_) => None,
            })
            .collect();
        let want = [0, 70, 140, 210].map(Some);
        assert_eq!(at[..4], want);
        assert_eq!(at[4], None, "the long frame kept its storage");
        assert_eq!(at[5..], [280, 350, 420, 490, 560].map(Some));
        assert_eq!(offered[0], frames[0], "a copied frame keeps its storage");
        assert_eq!(a.flush(), 10);
        assert_eq!(a.arena.len(), 0, "an empty queue rewinds the arena");
        assert_eq!(land_frames(&mut b, 10), frames);
        let s = a.stats();
        if a.gso_offload() {
            // Four short in one piece; the long frame and the four short
            // behind it in a bundle, three pieces (its header between);
            // the 320-byte frame.
            assert_eq!((s.sent_trains, s.sent_iovecs), (3, 5), "{s:?}");
        } else {
            assert_eq!((s.sent_trains, s.sent_iovecs), (10, 10), "{s:?}");
        }
    }

    /// The arena is never compacted or grown under outstanding entries:
    /// behind a partial `sendmmsg` (a frame the kernel answers `EMSGSIZE`
    /// in mid-queue) the offsets of the frames still queued stay put,
    /// short frames arriving meanwhile fill it to its end, and the next
    /// ones take the long frames' path — all in one FIFO.
    #[test]
    fn a_full_arena_sends_short_frames_the_long_way() {
        let (mut a, mut b) = UdpChannel::builder(70_000).queue_cap(16).pair().unwrap();
        assert_eq!(a.arena.capacity(), 16 * ARENA_FRAME_MAX);
        let short = |i: u8| vec![i; ARENA_FRAME_MAX];
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut park_all = |a: &mut UdpChannel, frames: Vec<Vec<u8>>| {
            for f in frames {
                park(a, &f).unwrap();
                sent.push(f);
            }
        };
        park_all(&mut a, (0..8).map(short).collect());
        park(&mut a, &vec![0xdd; 66_000]).unwrap(); // no UDP datagram holds it
        park_all(&mut a, (8..12).map(short).collect());
        let flushed = a.flush();
        if !a.batched_syscalls() || a.stats().mtu_clamps > 0 || flushed != 8 {
            return; // per-frame path, or a kernel that does not stop there
        }
        assert_eq!(a.backlog(), 5, "cut short at the refused frame");
        assert_eq!(a.arena.len(), 12 * ARENA_FRAME_MAX, "nothing moved");
        park_all(&mut a, (12..16).map(short).collect());
        assert_eq!(a.arena.len(), a.arena.capacity(), "full");
        park_all(&mut a, (16..18).map(short).collect());
        assert_eq!(a.arena.len(), a.arena.capacity(), "never grown");
        assert!(matches!(a.queue.back(), Some(Queued::Owned(_))));
        while a.backlog() > 0 {
            a.flush();
        }
        assert_eq!(a.arena.len(), 0);
        let s = a.stats();
        assert_eq!((s.mtu_clamps, s.dropped_error, s.sent_frames), (1, 1, 18));
        assert_eq!(land_frames(&mut b, 18), sent);
    }

    /// Loopback UDP can reorder across *sockets* but a single connected
    /// socket pair is FIFO; receives may simply lag the send by a
    /// scheduling quantum, so tests poll briefly.
    fn recv_poll(ch: &mut UdpChannel, buf: &mut [u8]) -> Option<usize> {
        for _ in 0..1000 {
            if let Some(n) = ch.recv_frame(buf) {
                return Some(n);
            }
            std::thread::yield_now();
        }
        None
    }
}
