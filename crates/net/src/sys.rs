//! The kernel seam: batched datagram syscalls behind one portable API.
//!
//! [`BatchIo`] submits a whole run of frames to the kernel as a single
//! `sendmmsg(2)` / `recvmmsg(2)` call — the move that closes most of the
//! ~50x gap between the in-memory datapath and the PR-3 socket path,
//! where every packet paid one syscall each way. On top of that,
//! equal-size frame runs use **UDP GSO** (`UDP_SEGMENT`): up to 128
//! segments (64 before Linux 6.9) travel the kernel stack as *one*
//! datagram and are split at the very bottom — and with **UDP GRO**
//! (`UDP_GRO`) enabled on the receiving socket, a loopback peer gets
//! them re-coalesced and pays one traversal too. Syscall batching alone
//! caps out at the kernel's per-datagram processing cost (~1.6 µs on the
//! bench host, a ceiling sendmmsg cannot move); segmentation offload is
//! what actually lifts it. A kernel that rejects a train of more than 64
//! segments gets trains of 64 from then on, and one that rejects
//! `UDP_SEGMENT` itself demotes the instance to mmsg-only, both at
//! runtime (`gso_ceiling_after_rejection`, which counts segments).
//!
//! **The send planner** ([`SendPlanner`]) cuts the queue into messages.
//! A message's segment size is its first frame's length; frames of that
//! length follow it as segments. A *shorter* frame does not end the
//! train: it and the shorter frames queued directly behind it are packed,
//! in order, into one [bundle](crate::bundle) segment of at most the
//! segment size — padded to exactly that when a full-size frame follows
//! within the ceilings, so the train goes on, and otherwise the message's
//! shorter last segment. A lone shorter frame with nothing full-size
//! behind it is the plain shorter tail it always was, and so a queue of
//! one length plans exactly as it did before bundles. Bundles live only
//! inside GSO trains: with GSO off every message is one frame. A frame
//! that starts with the bundle magic leaves as a bundle of one whatever
//! the path. Bundle headers are written to a scratch reserved once
//! (16 KiB; a plan that fills it stops bundling), and no message is
//! handed over in more than [`MAX_PIECES`] pieces.
//!
//! A message's frames need not each be an iovec. The kernel's copy-in
//! walks a message piece by piece and pays ~20 ns a piece whatever its
//! length — 64 × 70 B as one GSO train costs 40 ns/pkt handed over as 64
//! iovecs and 21 ns/pkt as one — so the planner extends the previous
//! iovec of the same message whenever the next frame starts where that
//! one ends, and `iovlen` counts pieces, not frames. Who puts frames back
//! to back is the caller's business ([`UdpChannel`](crate::udp::UdpChannel)
//! does it for short frames in its send arena, so a bundle's frames are
//! one piece between its header and its padding); frames in buffers of
//! their own are one iovec each.
//!
//! Receives have one `recvmmsg` builder, and what it moves is the
//! *train* — whatever the kernel hands over as one datagram, a whole
//! coalesced run on a GRO socket — never the frame.
//! [`BatchIo::recv_trains`] lands several trains per call straight in
//! the caller's windows and reports `(bytes, segment size)` for each, so
//! the bytes are written once, by the kernel, where they will be read;
//! the caller opens the bundles among the segments
//! ([`bundle::frames_of`]). A call that comes back short of the windows
//! it offered has drained the socket; no empty call is needed to find
//! that out. The per-frame readers ([`BatchIo::recv_frames`],
//! [`BatchIo::recv_one`]) are the same lander pointed at one internal
//! staging window, followed by a splitter that copies each segment out —
//! each frame of a bundle segment in turn. What they leave staged, a
//! bundle half handed out included, is the first thing the next
//! `recv_trains` lands.
//!
//! The FFI surface is a handful of `extern "C"` declarations and four
//! `#[repr(C)]` structs, gated on `linux`/`gnu`; everywhere else (and
//! whenever the `STRIPE_NET_FALLBACK=1` environment variable forces it,
//! so CI can pin the portable path) the same API runs a per-frame
//! `send`/`recv` loop with byte-identical outcomes. Callers observe only
//! `(frames moved, syscalls spent)` — the mechanics are invisible, which
//! is what the differential proptests in `tests/mmsg_differential.rs`
//! check.
//!
//! This module also owns the other two pieces of kernel-adjacent glue
//! the datapath needs:
//!
//! - [`configure_buffers`]: `SO_SNDBUF`/`SO_RCVBUF` via `setsockopt`,
//!   with the *effective* sizes read back (Linux doubles the requested
//!   value for bookkeeping overhead).
//! - [`socket_drops_port`]: the estimate behind
//!   [`UdpChannel::kernel_drops`](crate::udp::UdpChannel::kernel_drops),
//!   read from the socket's `drops` column in `/proc/net/udp` — the
//!   kernel-overflow losses that are otherwise invisible and surface
//!   only as §5 marker recoveries.

use std::io;
use std::net::UdpSocket;
use std::os::raw::c_void;
use std::sync::OnceLock;

use stripe_link::Train;

use crate::bundle;

/// Default frames per `mmsghdr` batch — large enough to amortize the
/// syscall to noise, small enough to keep scratch arrays cache-resident.
pub const DEFAULT_BATCH: usize = 32;

/// The kernel's `UDP_MAX_SEGMENTS` since Linux 6.9: most segments one
/// GSO send carries, and where every batching [`BatchIo`] starts its
/// ceiling.
const GSO_MAX_SEGMENTS: usize = 128;
/// `UDP_MAX_SEGMENTS` before 6.9. A kernel that rejects a longer train
/// gets this ceiling before GSO as a whole is doubted (see
/// [`gso_ceiling_after_rejection`]).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const GSO_OLD_MAX_SEGMENTS: usize = 64;
/// Largest datagram, a GSO send's before segmentation included (max UDP
/// payload); `gso_size * segments` must stay under this.
pub const GSO_MAX_BYTES: usize = 65_507;
/// Shortest run of segments worth a GSO send: even two segments halve
/// the kernel traversals, which dominate once syscalls are batched.
const GSO_MIN_RUN: usize = 2;
/// Most scatter-gather pieces one message may have (`UIO_MAXIOV`).
pub const MAX_PIECES: usize = 1024;
/// Bytes of bundle headers one plan may write, reserved once.
const HEAD_SCRATCH: usize = 16 << 10;
/// What pads a bundle out to its train's segment size.
static PADDING: [u8; GSO_MAX_BYTES] = [0; GSO_MAX_BYTES];
/// A window any datagram fits — a coalesced train on a GRO socket — and
/// the per-frame readers' staging window.
const GRO_WINDOW: usize = 1 << 16;

/// True when `STRIPE_NET_FALLBACK=1` forces the portable per-frame path
/// even where the batched syscalls are compiled in. Read once.
fn fallback_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("STRIPE_NET_FALLBACK").is_ok_and(|v| v == "1"))
}

/// True when this build carries the `sendmmsg`/`recvmmsg` declarations.
pub const fn mmsg_compiled() -> bool {
    cfg!(all(target_os = "linux", target_env = "gnu"))
}

/// Outcome of one batched send: `sent` frames were handed to the kernel
/// in `syscalls` calls. `sent` short of the offered run means the kernel
/// refused the next frame — backpressure (`hard_error == false`, the
/// `WouldBlock` of the per-frame path) or a real socket failure on that
/// frame (`hard_error == true`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Frames accepted by the kernel.
    pub sent: usize,
    /// Syscalls spent (including the one that reported backpressure).
    pub syscalls: u64,
    /// Kernel datagrams those frames left as: a GSO train counts 1,
    /// however many frames ride it.
    pub messages: u64,
    /// Scatter-gather pieces those datagrams were handed over as: frames
    /// that lie back to back in memory share one, a bundle adds its
    /// header and its padding (the per-frame path counts one a frame).
    /// What the kernel's copy-in is priced by.
    pub iovecs: u64,
    /// The stop was a hard socket error, not backpressure.
    pub hard_error: bool,
    /// Raw OS errno of the hard error, when the OS supplied one — the
    /// channel's recovery logic tells `ECONNREFUSED` (transient ICMP
    /// echo) from `ENOBUFS` (back off) from `EMSGSIZE` (clamp MTU) from
    /// genuinely fatal failures by this value.
    pub errno: Option<i32>,
    /// Bytes of the datagram the hard error refused: the next frame's,
    /// or its escape's (see [`bundle`]).
    pub refused_len: usize,
}

/// Outcome of one batched receive: `received` frames reached the caller
/// over `syscalls` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvReport {
    /// Frames received, each of a bundle's counted.
    pub received: usize,
    /// Syscalls spent (including the one that found the queue empty).
    pub syscalls: u64,
    /// Kernel datagrams pulled off the socket: a GRO-coalesced train
    /// counts 1. A train left in the staging window by an earlier call
    /// was counted then.
    pub trains: u64,
}

/// One scatter-gather piece, laid out as the kernel's `struct iovec`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// One planned message: `frames` queue frames in `segs` segments of
/// `seg` bytes (the last one possibly shorter), handed over in `pieces`
/// iovecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    frames: usize,
    segs: usize,
    pieces: usize,
    seg: usize,
}

impl Run {
    /// The `UDP_SEGMENT` value the message carries when it is a train.
    fn gso_size(&self) -> Option<u16> {
        (self.segs >= GSO_MIN_RUN).then_some(self.seg as u16)
    }
}

/// The send planner: cuts a queue of frames into kernel messages, bundle
/// segments and all (see the module docs). It touches no socket, so what
/// it plans can be looked at ([`each_message`](Self::each_message));
/// [`BatchIo`] hands its plans to `sendmmsg`.
#[derive(Debug)]
pub struct SendPlanner {
    /// Most messages one plan holds.
    cap: usize,
    /// Most segments one message carries; 1 is "no GSO".
    gso_max: usize,
    iovs: Vec<IoVec>,
    runs: Vec<Run>,
    /// Bundle headers: [`HEAD_SCRATCH`] bytes reserved up front and never
    /// grown, because the iovecs point into it.
    heads: Vec<u8>,
}

/// One message of a plan, as [`SendPlanner::each_message`] shows it.
#[derive(Debug)]
pub struct PlannedMessage<'a> {
    /// Queue frames it carries.
    pub frames: usize,
    /// Segments the kernel cuts it into.
    pub segments: usize,
    /// Its `UDP_SEGMENT` value; `None` for a datagram sent whole.
    pub gso_size: Option<u16>,
    /// Its bytes, piece by piece, as the kernel is handed them.
    pub pieces: &'a [&'a [u8]],
}

/// Append `bytes` to the message whose pieces start at `iovs[first]`:
/// the last piece grows when they start where it ends.
fn push_piece(iovs: &mut Vec<IoVec>, first: usize, bytes: &[u8]) {
    match iovs[first..].last_mut() {
        Some(last) if last.base as usize + last.len == bytes.as_ptr() as usize => {
            last.len += bytes.len();
        }
        _ => iovs.push(IoVec {
            base: bytes.as_ptr() as *mut _,
            len: bytes.len(),
        }),
    }
}

impl SendPlanner {
    /// Plans of at most `cap` messages, trains of at most `gso_max`
    /// segments (1: no GSO, every message one frame).
    pub fn new(cap: usize, gso_max: usize) -> Self {
        Self {
            cap: cap.max(1),
            gso_max: gso_max.max(1),
            iovs: Vec::with_capacity(cap),
            runs: Vec::with_capacity(cap),
            heads: Vec::with_capacity(HEAD_SCRATCH),
        }
    }

    /// Plan all of `frames`, in as many plans as it takes, and show
    /// `visit` every message in order.
    pub fn each_message(&mut self, frames: &[&[u8]], mut visit: impl FnMut(&PlannedMessage<'_>)) {
        let mut pieces: Vec<&[u8]> = Vec::new();
        let mut from = 0;
        while from < frames.len() {
            self.plan(from, frames.len(), &|i| frames[i]);
            let mut iov = 0;
            for r in &self.runs {
                // SAFETY: every piece points into `frames`, `self.heads`
                // or `PADDING`, none of which changes before the next
                // plan, and `pieces` is emptied before that.
                pieces.extend(
                    self.iovs[iov..iov + r.pieces]
                        .iter()
                        .map(|v| unsafe { std::slice::from_raw_parts(v.base as *const u8, v.len) }),
                );
                iov += r.pieces;
                visit(&PlannedMessage {
                    frames: r.frames,
                    segments: r.segs,
                    gso_size: r.gso_size(),
                    pieces: &pieces,
                });
                pieces.clear();
                from += r.frames;
            }
        }
    }

    /// Plan up to `cap` messages over frames `from..n` into `runs` and
    /// `iovs` (see the module docs).
    fn plan<'a>(&mut self, from: usize, n: usize, frame: &impl Fn(usize) -> &'a [u8]) {
        self.iovs.clear();
        self.runs.clear();
        self.heads.clear();
        let mut at = from;
        while at < n && self.runs.len() < self.cap {
            let first = self.iovs.len();
            let f = frame(at);
            let (mut i, mut segs) = (at + 1, 1);
            // The segment size; 0 ends the message here.
            let seg = if bundle::needs_escape(f) {
                // Plain, it would read as a bundle: a bundle of one, alone.
                if self.heads.len() + bundle::ESCAPE_LEN > HEAD_SCRATCH {
                    break;
                }
                self.push_bundle(first, at, i, 0, frame);
                0
            } else {
                push_piece(&mut self.iovs, first, f);
                f.len()
            };
            let most = self.gso_max.min(GSO_MAX_BYTES / seg.max(1)).max(1);
            while seg > 0 && i < n && segs < most {
                let g = frame(i);
                let (pieces, plain) = (self.iovs.len() - first, !bundle::needs_escape(g));
                if g.len() > seg {
                    break;
                }
                if g.len() == seg && plain {
                    if pieces == MAX_PIECES {
                        break;
                    }
                    push_piece(&mut self.iovs, first, g);
                    (i, segs) = (i + 1, segs + 1);
                    continue;
                }
                // Shorter, or of this length but read as a bundle plain.
                let k = self.fit(i, n, seg, pieces, frame);
                let full =
                    |j: usize| j < n && frame(j).len() == seg && !bundle::needs_escape(frame(j));
                if k > 0 && full(i + k) && segs + 2 <= most && pieces + k + 3 <= MAX_PIECES {
                    self.push_bundle(first, i, i + k, seg, frame);
                    (i, segs) = (i + k, segs + 1);
                    continue;
                }
                if k > 1 || (k == 1 && !plain) {
                    self.push_bundle(first, i, i + k, 0, frame);
                    (i, segs) = (i + k, segs + 1);
                } else if plain && !g.is_empty() && pieces < MAX_PIECES {
                    push_piece(&mut self.iovs, first, g); // the plain shorter tail
                    (i, segs) = (i + 1, segs + 1);
                }
                break;
            }
            let pieces = self.iovs.len() - first;
            self.runs.push(Run {
                frames: i - at,
                segs,
                pieces,
                seg,
            });
            at = i;
        }
    }

    /// How many frames from `i` on one bundle of at most `seg` bytes
    /// takes, within the header scratch and beside the `pieces` its
    /// message has (a bundle adds a header and a padding piece).
    fn fit<'a>(
        &self,
        i: usize,
        n: usize,
        seg: usize,
        pieces: usize,
        frame: &impl Fn(usize) -> &'a [u8],
    ) -> usize {
        let (mut k, mut bytes) = (0, bundle::header_len(0));
        while i + k < n && k < bundle::MAX_FRAMES {
            let grown = bytes + 2 + frame(i + k).len();
            if grown > seg
                || self.heads.len() + bundle::header_len(k + 1) > HEAD_SCRATCH
                || pieces + k + 3 > MAX_PIECES
            {
                break;
            }
            (k, bytes) = (k + 1, grown);
        }
        k
    }

    /// Append frames `i..j` as one bundle segment to the message whose
    /// pieces start at `iovs[first]`, zero-padded to `pad_to` bytes.
    fn push_bundle<'a>(
        &mut self,
        first: usize,
        i: usize,
        j: usize,
        pad_to: usize,
        frame: &impl Fn(usize) -> &'a [u8],
    ) {
        let h = self.heads.len();
        bundle::push_header((i..j).map(|x| frame(x).len()), &mut self.heads);
        debug_assert!(self.heads.len() <= HEAD_SCRATCH, "never grown");
        push_piece(&mut self.iovs, first, &self.heads[h..]);
        let mut len = self.heads.len() - h;
        for g in (i..j).map(frame) {
            if !g.is_empty() {
                push_piece(&mut self.iovs, first, g);
            }
            len += g.len();
        }
        if pad_to > len {
            push_piece(&mut self.iovs, first, &PADDING[..pad_to - len]);
        }
    }
}

/// Reusable scratch for batched sends/receives on one socket.
///
/// On `linux`/`gnu` with the fallback not forced, runs go to the kernel
/// as `mmsghdr` arrays of the messages a [`SendPlanner`] cuts them into;
/// otherwise the same calls loop per frame. The scratch vectors are sized
/// once and recycled forever — zero allocations per batch.
#[derive(Debug)]
pub struct BatchIo {
    cap: usize,
    batched: bool,
    /// The socket this instance reads has `UDP_GRO` enabled, so receives
    /// must go through the coalescing-aware splitter.
    gro: bool,
    /// Its GSO ceiling starts at [`GSO_MAX_SEGMENTS`] when `batched` (1,
    /// "no GSO", otherwise) and is lowered at runtime by what the kernel
    /// rejects (see [`gso_ceiling_after_rejection`]).
    planner: SendPlanner,
    /// The per-frame send path's escape of a frame that starts with the
    /// bundle magic.
    escaped: Vec<u8>,
    /// The per-frame readers' window: the lander puts one train here,
    /// `staged` describes it, `left_off` is the offset of its next
    /// undelivered segment, and `unpacking` the bundle segment being
    /// handed out frame by frame — where it starts, what is left of it.
    staging: Vec<u8>,
    staged: Train,
    left_off: usize,
    unpacking: Option<(usize, bundle::Frames)>,
    /// One window per message of a landing call.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    windows: Vec<IoVec>,
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    hdrs: Vec<ffi::MMsgHdr>,
    /// One `UDP_SEGMENT` or `UDP_GRO` control block per message.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    cmsgs: Vec<ffi::SegmentCmsg>,
}

// SAFETY: the raw pointers inside the scratch arrays are dangling
// between calls — each call rebuilds them from the borrowed frames
// before the syscall and never reads them afterwards. Moving the
// scratch across threads is therefore sound.
unsafe impl Send for BatchIo {}

/// Copy `src` into `buf`, cut to fit; the bytes copied.
fn copy_out(src: &[u8], buf: &mut [u8]) -> usize {
    let k = src.len().min(buf.len());
    buf[..k].copy_from_slice(&src[..k]);
    k
}

impl BatchIo {
    /// Scratch for batches of up to `cap` frames. `force_fallback`
    /// pins the per-frame path for this instance regardless of platform
    /// (the process-wide `STRIPE_NET_FALLBACK=1` does the same).
    pub fn new(cap: usize, force_fallback: bool) -> Self {
        let cap = cap.max(1);
        let batched = mmsg_compiled() && !force_fallback && !fallback_forced();
        Self {
            cap,
            batched,
            gro: false,
            planner: SendPlanner::new(cap, if batched { GSO_MAX_SEGMENTS } else { 1 }),
            escaped: Vec::new(),
            staging: vec![0; GRO_WINDOW],
            staged: Train::default(),
            left_off: 0,
            unpacking: None,
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            windows: Vec::with_capacity(cap),
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            hdrs: Vec::with_capacity(cap),
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            cmsgs: Vec::with_capacity(cap),
        }
    }

    /// Whether this instance really batches (false on the portable path).
    pub fn batched(&self) -> bool {
        self.batched
    }

    /// Whether equal-size runs currently go out as GSO super-datagrams.
    pub fn gso_active(&self) -> bool {
        self.planner.gso_max > 1
    }

    /// Permanently stop offering GSO trains on this socket — the
    /// `EMSGSIZE` recovery: once the path MTU shrinks below what probing
    /// accepted, super-datagrams are the first thing to start bouncing.
    pub fn demote_gso(&mut self) {
        self.planner.gso_max = 1;
    }

    /// Mark the socket this instance reads as `UDP_GRO`-enabled (see
    /// [`configure_offload`]): every receive then asks the kernel for
    /// the segment size of what it hands over.
    pub fn set_gro(&mut self, on: bool) {
        self.gro = self.batched && on;
    }

    /// Whether receives treat the socket as GRO-coalescing.
    pub fn gro(&self) -> bool {
        self.gro
    }

    /// Largest single `mmsghdr` batch submitted at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Send `frames` in order, stopping at the first frame the kernel
    /// refuses. Chunks longer than [`capacity`](Self::capacity) take one
    /// syscall per chunk.
    pub fn send_frames(&mut self, sock: &UdpSocket, frames: &[Vec<u8>]) -> SendReport {
        self.send_slices(sock, frames.len(), |i| &frames[i])
    }

    /// [`send_frames`](Self::send_frames) over frames that live wherever
    /// the caller keeps them: frame `i` of `n` is `frame(i)`. Frames of
    /// one message that lie back to back in memory — each starting where
    /// the one before it ends — go to the kernel as a single iovec, which
    /// is what a caller that queues short frames in one buffer is after:
    /// the kernel's copy-in costs ~20 ns an iovec, whatever its length.
    pub fn send_slices<'a>(
        &mut self,
        sock: &UdpSocket,
        n: usize,
        frame: impl Fn(usize) -> &'a [u8],
    ) -> SendReport {
        if n == 0 {
            return SendReport::default();
        }
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        if self.batched {
            return self.send_mmsg(sock, n, frame);
        }
        let mut rep = SendReport::default();
        for i in 0..n {
            rep.syscalls += 1;
            let mut datagram = frame(i);
            if bundle::needs_escape(datagram) {
                bundle::escape_into(datagram, &mut self.escaped);
                datagram = &self.escaped;
            }
            match sock.send(datagram) {
                Ok(_) => {
                    rep.sent += 1;
                    rep.messages += 1;
                    rep.iovecs += 1;
                }
                Err(e) => {
                    rep.hard_error = e.kind() != io::ErrorKind::WouldBlock;
                    if rep.hard_error {
                        rep.errno = e.raw_os_error();
                        rep.refused_len = datagram.len();
                    }
                    break;
                }
            }
        }
        rep
    }

    /// Bytes one window of [`recv_trains`](Self::recv_trains) must hold
    /// on this socket: a whole coalesced train under GRO, else one frame
    /// of at most `mtu` bytes, escaped.
    pub fn recv_window(&self, mtu: usize) -> usize {
        if self.gro {
            GRO_WINDOW
        } else {
            mtu + bundle::ESCAPE_LEN
        }
    }

    /// Land ready trains, in order, one per window, describing train `i`
    /// in `trains[i]`; returns how many landed and what that cost. Fewer
    /// than `windows.len()` means the socket queue is drained. Windows
    /// must hold [`recv_window`](Self::recv_window) bytes each — a GRO
    /// socket would truncate a train into anything shorter. The bundles
    /// among the segments are left for the caller to open
    /// ([`bundle::frames_of`]); `received` counts their frames.
    pub fn recv_trains(
        &mut self,
        sock: &UdpSocket,
        windows: &mut [&mut [u8]],
        trains: &mut [Train],
    ) -> (usize, RecvReport) {
        let mut rep = RecvReport::default();
        if windows.is_empty() {
            return (0, rep);
        }
        debug_assert!(trains.len() >= windows.len(), "one report per window");
        let mut k = self.hand_over(windows, trains);
        // Nothing lands ahead of what was staged and did not fit.
        if self.unpacking.is_none() && self.left_off >= self.staged.bytes {
            k = self.land_trains(sock, windows, trains, k, &mut rep);
        }
        rep.received = windows
            .iter()
            .zip(&trains[..k])
            .map(|(w, &t)| bundle::count(w, t))
            .sum();
        (k, rep)
    }

    /// Land trains in `windows[k..]`, one per window, until the socket
    /// is drained; one past the last window filled.
    fn land_trains(
        &mut self,
        sock: &UdpSocket,
        windows: &mut [&mut [u8]],
        trains: &mut [Train],
        mut k: usize,
        rep: &mut RecvReport,
    ) -> usize {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        if self.batched {
            assert!(
                !self.gro || windows.iter().all(|w| w.len() >= GRO_WINDOW),
                "a GRO window must hold a whole train"
            );
            return self.land_in(sock, windows, k, rep, |i, t| trains[i] = t);
        }
        for (w, t) in windows[k..].iter_mut().zip(&mut trains[k..]) {
            rep.syscalls += 1;
            match sock.recv(w) {
                Ok(n) => *t = Train::frame(n),
                Err(_) => break,
            }
            rep.trains += 1;
            k += 1;
        }
        k
    }

    /// Move what the per-frame readers left staged to the front of
    /// `windows`, in order — the frames of a bundle half handed out,
    /// packed again as a bundle of their own, then the rest of the
    /// train — as far as the windows go. Returns the windows filled.
    fn hand_over(&mut self, windows: &mut [&mut [u8]], trains: &mut [Train]) -> usize {
        let mut k = 0;
        if let Some((at, mut frames)) = self.unpacking {
            let n = frames.pack_into(&self.staging[at..self.left_off], windows[0]);
            trains[0] = Train::frame(n);
            self.unpacking = (!frames.is_empty()).then_some((at, frames));
            k = 1;
        }
        if self.unpacking.is_none() && self.left_off < self.staged.bytes && k < windows.len() {
            let rest = &self.staging[self.left_off..self.staged.bytes];
            windows[k][..rest.len()].copy_from_slice(rest);
            trains[k] = Train {
                bytes: rest.len(),
                seg: self.staged.seg,
            };
            self.left_off = self.staged.bytes;
            k += 1;
        }
        k
    }

    /// Receive up to `bufs.len()` frames, writing frame `i` into
    /// `bufs[i]` and its length into `lens[i]`. Stops as soon as the
    /// socket queue is drained.
    pub fn recv_frames(
        &mut self,
        sock: &UdpSocket,
        bufs: &mut [Vec<u8>],
        lens: &mut [usize],
    ) -> RecvReport {
        debug_assert!(lens.len() >= bufs.len(), "one length slot per buffer");
        let mut rep = RecvReport::default();
        while rep.received < bufs.len() {
            match self.next_frame(sock, &mut bufs[rep.received], &mut rep) {
                Some(n) => {
                    lens[rep.received] = n;
                    rep.received += 1;
                }
                None => break,
            }
        }
        rep
    }

    /// Receive a single frame into `buf`, returning `(frame length if
    /// any, what it cost)`. A plain `recv` would hand back a whole
    /// coalesced train, or a whole bundle, as one blob, so single-frame
    /// readers must come through here: the splitter returns one frame and
    /// keeps the rest staged for the next call (zero syscalls).
    pub fn recv_one(&mut self, sock: &UdpSocket, buf: &mut [u8]) -> (Option<usize>, RecvReport) {
        let mut rep = RecvReport::default();
        let got = self.next_frame(sock, buf, &mut rep);
        rep.received = got.is_some() as usize;
        (got, rep)
    }

    /// The splitter: copy the next frame of what is staged into `buf` —
    /// the next segment, or the next frame of the bundle segment being
    /// handed out — landing a fresh train in the staging window first
    /// when the last one is used up. `None` when the socket has nothing.
    fn next_frame(
        &mut self,
        sock: &UdpSocket,
        buf: &mut [u8],
        rep: &mut RecvReport,
    ) -> Option<usize> {
        loop {
            if let Some((at, mut frames)) = self.unpacking {
                let seg = &self.staging[at..self.left_off];
                let (off, n) = frames
                    .next_in(seg)
                    .expect("an open bundle has a frame left");
                self.unpacking = (!frames.is_empty()).then_some((at, frames));
                return Some(copy_out(&seg[off..off + n], buf));
            }
            if self.left_off >= self.staged.bytes {
                // Nothing is staged while the kernel writes: a failed call
                // must not replay the old train.
                (self.staged, self.left_off) = (Train::default(), 0);
                self.staged = self.land_staged(sock, rep)?;
                if self.staged.bytes == 0 {
                    return Some(0); // an empty datagram: one empty frame
                }
            }
            let at = self.left_off;
            self.left_off = (at + self.staged.seg).min(self.staged.bytes);
            let seg = &self.staging[at..self.left_off];
            match bundle::Frames::open(seg) {
                Ok(frames) => self.unpacking = Some((at, frames)),
                Err(_) => return Some(copy_out(seg, buf)),
            }
        }
    }

    /// Land one train in the staging window: what it is, `None` when the
    /// socket has nothing.
    fn land_staged(&mut self, sock: &UdpSocket, rep: &mut RecvReport) -> Option<Train> {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        if self.batched {
            self.windows.clear();
            self.windows.push(IoVec {
                base: self.staging.as_mut_ptr() as *mut _,
                len: self.staging.len(),
            });
            return (self.land(sock, rep) > 0).then(|| self.landed(0));
        }
        rep.syscalls += 1;
        let n = sock.recv(&mut self.staging).ok()?;
        rep.trains += 1;
        Some(Train::frame(n))
    }

    /// Batched send: one `sendmmsg` per plan of [`cap`](Self::capacity)
    /// messages, each a GSO train (carrying its own `UDP_SEGMENT` cmsg)
    /// or a single datagram. Composing the two mechanisms is what keeps
    /// both costs amortized at once: the kernel's per-datagram stack
    /// traversal is paid per *train*, and the syscall is paid per *batch
    /// of trains*.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn send_mmsg<'a>(
        &mut self,
        sock: &UdpSocket,
        n: usize,
        frame: impl Fn(usize) -> &'a [u8],
    ) -> SendReport {
        use std::os::fd::AsRawFd;
        let mut rep = SendReport::default();
        while rep.sent < n {
            self.planner.plan(rep.sent, n, &frame);
            self.point_headers();
            rep.syscalls += 1;
            // SAFETY: hdrs/iovs/cmsgs point at this call's frames and
            // scratch, all outliving the syscall; vlen matches the
            // populated header count.
            let ret = unsafe {
                ffi::sendmmsg(
                    sock.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as u32,
                    0,
                )
            };
            let runs = &self.planner.runs;
            if ret < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::WouldBlock {
                    break;
                }
                // EINVAL / EMSGSIZE / ENOPROTOOPT / EOPNOTSUPP while GSO
                // trains were in the plan: this kernel (or this path)
                // won't take them as planned — lower the ceiling and
                // retry the same frames. Anything else is a hard error.
                let gso_rejected =
                    matches!(e.raw_os_error(), Some(22) | Some(90) | Some(92) | Some(95));
                let longest = runs.iter().map(|r| r.segs).max().unwrap_or(0);
                let lowered = if gso_rejected {
                    gso_ceiling_after_rejection(longest)
                } else {
                    None
                };
                if let Some(max) = lowered {
                    self.planner.gso_max = max;
                    continue;
                }
                rep.hard_error = true;
                rep.errno = e.raw_os_error();
                rep.refused_len = self.planner.iovs[..runs[0].pieces]
                    .iter()
                    .map(|v| v.len)
                    .sum();
                break;
            }
            let k = ret as usize;
            for r in &runs[..k] {
                rep.sent += r.frames;
                rep.iovecs += r.pieces as u64;
            }
            rep.messages += k as u64;
            if k < self.hdrs.len() {
                break; // kernel refused mid-batch: backpressure
            }
        }
        rep
    }

    /// Point one `mmsghdr` at each planned message, with a `UDP_SEGMENT`
    /// control block when it is a GSO train.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn point_headers(&mut self) {
        let runs = &self.planner.runs;
        self.cmsgs.clear();
        self.cmsgs
            .extend(runs.iter().map(|r| ffi::SegmentCmsg::new(r.seg as u16)));
        self.hdrs.clear();
        let iov_base = self.planner.iovs.as_mut_ptr();
        let cmsg_base = self.cmsgs.as_mut_ptr();
        let mut iov_off = 0;
        for (k, r) in runs.iter().enumerate() {
            let gso_train = r.gso_size().is_some();
            self.hdrs.push(ffi::MMsgHdr {
                hdr: ffi::MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    // SAFETY: in-bounds offsets into scratch vectors
                    // that are fully built and no longer growing.
                    iov: unsafe { iov_base.add(iov_off) },
                    iovlen: r.pieces,
                    control: if gso_train {
                        // SAFETY: as above.
                        unsafe { cmsg_base.add(k) as *mut _ }
                    } else {
                        std::ptr::null_mut()
                    },
                    controllen: if gso_train {
                        std::mem::size_of::<ffi::SegmentCmsg>()
                    } else {
                        0
                    },
                    flags: 0,
                },
                len: 0,
            });
            iov_off += r.pieces;
        }
    }

    /// Land in `windows[k..]`, at most `cap` to a call, until a call comes
    /// back short, handing `out` each filled window's index and train.
    /// Returns one past the last window filled.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn land_in<W: AsMut<[u8]>>(
        &mut self,
        sock: &UdpSocket,
        windows: &mut [W],
        mut k: usize,
        rep: &mut RecvReport,
        mut out: impl FnMut(usize, Train),
    ) -> usize {
        while k < windows.len() {
            let hi = (k + self.cap).min(windows.len());
            self.windows.clear();
            for w in &mut windows[k..hi] {
                let w = w.as_mut();
                self.windows.push(IoVec {
                    base: w.as_mut_ptr() as *mut _,
                    len: w.len(),
                });
            }
            let got = self.land(sock, rep);
            for m in 0..got {
                out(k + m, self.landed(m));
            }
            k += got;
            if k < hi {
                break; // queue drained mid-batch
            }
        }
        k
    }

    /// The one `recvmmsg` builder: one non-blocking call with one
    /// message per window already in `windows` (at most `cap`), each with
    /// its own `UDP_GRO` control block on a GRO socket. Returns how many
    /// messages the kernel filled — 0 when nothing is ready; read them
    /// back with [`landed`](Self::landed).
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn land(&mut self, sock: &UdpSocket, rep: &mut RecvReport) -> usize {
        use std::os::fd::AsRawFd;
        let n = self.windows.len();
        self.hdrs.clear();
        self.cmsgs.clear();
        if self.gro {
            self.cmsgs.resize(n, ffi::SegmentCmsg::new(0));
        }
        let cmsg_base = self.cmsgs.as_mut_ptr();
        for (m, iov) in self.windows.iter_mut().enumerate() {
            self.hdrs.push(ffi::MMsgHdr {
                hdr: ffi::MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov,
                    iovlen: 1,
                    control: if self.gro {
                        // SAFETY: in-bounds offset into a scratch vector
                        // that is fully built and no longer growing.
                        unsafe { cmsg_base.add(m) as *mut _ }
                    } else {
                        std::ptr::null_mut()
                    },
                    controllen: if self.gro {
                        std::mem::size_of::<ffi::SegmentCmsg>()
                    } else {
                        0
                    },
                    flags: 0,
                },
                len: 0,
            });
        }
        rep.syscalls += 1;
        // SAFETY: hdrs/windows/cmsgs point at the caller's windows and
        // this scratch, all alive across the call; the kernel writes at
        // most iov_len bytes per message and the per-message byte and
        // control lengths back.
        let ret = unsafe {
            ffi::recvmmsg(
                sock.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                n as u32,
                ffi::MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if ret <= 0 {
            return 0; // drained (EWOULDBLOCK) or transient error
        }
        rep.trains += ret as u64;
        ret as usize
    }

    /// What the last [`land`](Self::land) put in its window `m`: the
    /// byte count, and the segment size from the `UDP_GRO` annotation —
    /// absent (a lone datagram, or no GRO) the train is one whole frame.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn landed(&self, m: usize) -> Train {
        let bytes = self.hdrs[m].len as usize;
        let seg = if self.gro {
            // SAFETY: reading the control block the kernel just wrote,
            // within its fixed 24-byte footprint.
            let ctrl = unsafe {
                std::slice::from_raw_parts(
                    self.cmsgs.as_ptr().add(m) as *const u8,
                    std::mem::size_of::<ffi::SegmentCmsg>(),
                )
            };
            ffi::gro_segment_size(ctrl, self.hdrs[m].hdr.controllen)
                .map(|s| s as usize)
                .filter(|&s| s > 0)
        } else {
            None
        };
        Train {
            bytes,
            seg: seg.unwrap_or(bytes),
        }
    }
}

/// The GSO ceiling to retry with after the kernel rejected a plan whose
/// longest message carried `longest` frames, or `None` when no GSO train
/// was in the plan, so the rejection is about something else. A train
/// past the pre-6.9 `UDP_MAX_SEGMENTS` is the first suspect: an older
/// kernel answers it `EINVAL`, and takes the same frames in trains of 64.
/// Only a rejection at or under 64 says `UDP_SEGMENT` itself is unwelcome
/// on this kernel or path, and turns GSO off (ceiling 1).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn gso_ceiling_after_rejection(longest: usize) -> Option<usize> {
    if longest < GSO_MIN_RUN {
        None
    } else if longest > GSO_OLD_MAX_SEGMENTS {
        Some(GSO_OLD_MAX_SEGMENTS)
    } else {
        Some(1)
    }
}

/// Enable `UDP_GRO` on a socket so the kernel hands receives over as
/// coalesced segment trains (one traversal for a whole train). Returns
/// whether the option stuck; pass the result to [`BatchIo::set_gro`] so
/// the receive path splits the trains back apart. No-op `false` where
/// the shim isn't compiled.
pub fn configure_offload(sock: &UdpSocket) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::fd::AsRawFd;
        ffi::set_udp_gro(sock.as_raw_fd())
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = sock;
        false
    }
}

/// Apply `SO_SNDBUF`/`SO_RCVBUF` (when requested) and return the
/// effective `(sndbuf, rcvbuf)` the kernel settled on. On platforms
/// without the shim this is a no-op reporting `(0, 0)` — "unknown".
pub fn configure_buffers(
    sock: &UdpSocket,
    sndbuf: Option<usize>,
    rcvbuf: Option<usize>,
) -> (u64, u64) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::fd::AsRawFd;
        let fd = sock.as_raw_fd();
        if let Some(bytes) = sndbuf {
            ffi::set_buf(fd, ffi::SO_SNDBUF, bytes);
        }
        if let Some(bytes) = rcvbuf {
            ffi::set_buf(fd, ffi::SO_RCVBUF, bytes);
        }
        (
            ffi::get_buf(fd, ffi::SO_SNDBUF),
            ffi::get_buf(fd, ffi::SO_RCVBUF),
        )
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = (sock, sndbuf, rcvbuf);
        (0, 0)
    }
}

/// Estimate of datagrams the kernel dropped on this socket's receive
/// buffer (`sk_drops`), read from the `drops` column of `/proc/net/udp`
/// for the row bound to `port`. Returns 0 when the row (or the proc
/// filesystem) is unavailable — an *estimate*, never a hard counter.
pub fn socket_drops_port(port: u16) -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(table) = std::fs::read_to_string("/proc/net/udp") else {
            return 0;
        };
        let suffix = format!(":{port:04X}");
        for line in table.lines().skip(1) {
            let mut fields = line.split_whitespace();
            let Some(local) = fields.nth(1) else { continue };
            if !local.ends_with(&suffix) {
                continue;
            }
            if let Some(drops) = fields.last() {
                return drops.parse().unwrap_or(0);
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = port;
        0
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod ffi {
    //! Minimal glibc/x86-64 declarations for the two batched syscalls
    //! plus `setsockopt`/`getsockopt`. `#[repr(C)]` with these field
    //! types reproduces glibc's struct layout (including the implicit
    //! padding after `namelen` and `flags`) on every 64-bit gnu target.

    use std::os::raw::{c_int, c_uint, c_void};

    use super::IoVec;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct MsgHdr {
        pub name: *mut c_void,
        pub namelen: c_uint,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut c_void,
        pub controllen: usize,
        pub flags: c_int,
    }

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: c_uint,
    }

    pub const MSG_DONTWAIT: c_int = 0x40;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const SO_RCVBUF: c_int = 8;
    pub const SOL_UDP: c_int = 17;
    pub const UDP_SEGMENT: c_int = 103;
    pub const UDP_GRO: c_int = 104;

    /// `cmsghdr` on 64-bit gnu targets (`cmsg_len` is `size_t` there).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct CmsgHdr {
        pub len: usize,
        pub level: c_int,
        pub ty: c_int,
    }

    /// A complete control block carrying exactly one `UDP_SEGMENT`
    /// cmsg: header, u16 segment size, padding out to `CMSG_SPACE(2)`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct SegmentCmsg {
        hdr: CmsgHdr,
        data: [u8; 8],
    }

    impl SegmentCmsg {
        pub fn new(gso_size: u16) -> Self {
            let mut data = [0u8; 8];
            data[..2].copy_from_slice(&gso_size.to_ne_bytes());
            Self {
                hdr: CmsgHdr {
                    // CMSG_LEN(2): header plus payload, before padding.
                    len: std::mem::size_of::<CmsgHdr>() + 2,
                    level: SOL_UDP,
                    ty: UDP_SEGMENT,
                },
                data,
            }
        }
    }

    /// Segment size from the first cmsg of a receive, when it is the
    /// `UDP_GRO` annotation the kernel attaches to coalesced trains.
    pub fn gro_segment_size(ctrl: &[u8], controllen: usize) -> Option<u16> {
        if controllen < std::mem::size_of::<CmsgHdr>() + 2 || ctrl.len() < controllen {
            return None;
        }
        // SAFETY: bounds checked above; the buffer holds kernel-written
        // cmsg data starting with a CmsgHdr.
        unsafe {
            let cm = ctrl.as_ptr() as *const CmsgHdr;
            if (*cm).level == SOL_UDP && (*cm).ty == UDP_GRO {
                let data = ctrl.as_ptr().add(std::mem::size_of::<CmsgHdr>());
                Some((data as *const u16).read_unaligned())
            } else {
                None
            }
        }
    }

    pub fn set_udp_gro(fd: c_int) -> bool {
        let one: c_int = 1;
        // SAFETY: optval points at a live c_int of the stated length.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_UDP,
                UDP_GRO,
                &one as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        rc == 0
    }

    extern "C" {
        pub fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        pub fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
        fn getsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *mut c_void,
            optlen: *mut c_uint,
        ) -> c_int;
    }

    pub fn set_buf(fd: c_int, opt: c_int, bytes: usize) {
        let val = bytes.min(i32::MAX as usize) as c_int;
        // SAFETY: optval points at a live c_int of the stated length.
        unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                &val as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as c_uint,
            );
        }
    }

    pub fn get_buf(fd: c_int, opt: c_int) -> u64 {
        let mut val: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as c_uint;
        // SAFETY: optval points at a live c_int; len is in-out.
        let rc = unsafe {
            getsockopt(
                fd,
                SOL_SOCKET,
                opt,
                &mut val as *mut c_int as *mut c_void,
                &mut len,
            )
        };
        if rc == 0 {
            val.max(0) as u64
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let b = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn roundtrip(batched_tx: bool, batched_rx: bool) {
        let (a, b) = pair();
        let mut tx = BatchIo::new(4, !batched_tx);
        let mut rx = BatchIo::new(4, !batched_rx);
        // 10 frames through a cap-4 batcher: three chunks.
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 3 + i as usize]).collect();
        let rep = tx.send_frames(&a, &frames);
        assert_eq!(rep.sent, 10);
        assert!(!rep.hard_error);
        if tx.batched() {
            assert_eq!(rep.syscalls, 3);
        } else {
            assert_eq!(rep.syscalls, 10);
        }
        let mut bufs: Vec<Vec<u8>> = (0..10).map(|_| vec![0u8; 64]).collect();
        let mut lens = vec![0usize; 10];
        let mut got = 0;
        for _ in 0..1000 {
            let rep = rx.recv_frames(&b, &mut bufs[got..], &mut lens[got..]);
            got += rep.received;
            if got == 10 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got, 10, "all frames must cross loopback");
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!(&buf[..len], &frames[i][..], "frame {i}");
        }
    }

    #[test]
    fn batched_roundtrip_when_available() {
        roundtrip(true, true);
    }

    #[test]
    fn fallback_roundtrip() {
        roundtrip(false, false);
    }

    #[test]
    fn mixed_paths_interoperate() {
        roundtrip(true, false);
        roundtrip(false, true);
    }

    #[test]
    fn forced_fallback_never_batches() {
        let io = BatchIo::new(8, true);
        assert!(!io.batched());
    }

    #[test]
    fn empty_run_is_free() {
        let (a, _b) = pair();
        let mut io = BatchIo::new(4, false);
        let rep = io.send_frames(&a, &[]);
        assert_eq!(rep, SendReport::default());
    }

    #[test]
    fn effective_buffer_sizes_reported_on_linux() {
        let (a, _b) = pair();
        let (snd, rcv) = configure_buffers(&a, Some(1 << 16), Some(1 << 16));
        if mmsg_compiled() {
            // Linux doubles the request; either way it's at least as big.
            assert!(snd >= 1 << 16, "sndbuf {snd}");
            assert!(rcv >= 1 << 16, "rcvbuf {rcv}");
        } else {
            assert_eq!((snd, rcv), (0, 0));
        }
    }

    #[test]
    fn socket_drops_estimate_is_zero_for_quiet_socket() {
        let (a, _b) = pair();
        let port = a.local_addr().unwrap().port();
        assert_eq!(socket_drops_port(port), 0);
    }

    /// Receive `want` frames through `rx`, polling briefly for loopback
    /// scheduling lag; buffers are generously oversized so GRO/GSO
    /// length handling is what's under test.
    fn recv_all(rx: &mut BatchIo, sock: &UdpSocket, want: usize) -> (Vec<Vec<u8>>, Vec<usize>) {
        let mut bufs: Vec<Vec<u8>> = (0..want).map(|_| vec![0u8; 4096]).collect();
        let mut lens = vec![0usize; want];
        let mut got = 0;
        for _ in 0..1000 {
            let rep = rx.recv_frames(sock, &mut bufs[got..], &mut lens[got..]);
            got += rep.received;
            if got == want {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got, want, "all frames must cross loopback");
        (bufs, lens)
    }

    #[test]
    fn gso_run_roundtrips_through_gro() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(8, false);
        let mut rx = BatchIo::new(8, false);
        rx.set_gro(gro_on);
        let frames: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64]).collect();
        let rep = tx.send_frames(&a, &frames);
        assert_eq!(rep.sent, 32);
        assert!(!rep.hard_error);
        if tx.gso_active() {
            assert_eq!(rep.syscalls, 1, "one equal-size run, one GSO send");
        }
        let (bufs, lens) = recv_all(&mut rx, &b, 32);
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!(&buf[..len], &frames[i][..], "frame {i}");
        }
    }

    #[test]
    fn gro_preserves_order_across_mixed_sizes() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(8, false);
        let mut rx = BatchIo::new(8, false);
        rx.set_gro(gro_on);
        // Data runs closed by shorter marker-like tails, then a lone
        // larger frame — the §3.5 burst shape.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for round in 0..3u8 {
            for i in 0..5u8 {
                frames.push(vec![round * 16 + i; 600]);
            }
            frames.push(vec![0xee; 40 + round as usize]);
        }
        frames.push(vec![0x7f; 900]);
        let rep = tx.send_frames(&a, &frames);
        assert_eq!(rep.sent, frames.len());
        let (bufs, lens) = recv_all(&mut rx, &b, frames.len());
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!(&buf[..len], &frames[i][..], "frame {i}");
        }
    }

    #[test]
    fn recv_one_splits_coalesced_trains() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(8, false);
        let mut rx = BatchIo::new(8, false);
        rx.set_gro(gro_on);
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 100]).collect();
        let rep = tx.send_frames(&a, &frames);
        assert_eq!(rep.sent, 8);
        let mut buf = vec![0u8; 4096];
        let mut syscalls = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            let n = loop {
                let (got, rep) = rx.recv_one(&b, &mut buf);
                syscalls += rep.syscalls;
                if let Some(n) = got {
                    break n;
                }
                std::thread::yield_now();
            };
            assert_eq!(&buf[..n], &frame[..], "frame {i}");
        }
        if tx.gso_active() && rx.gro() {
            // The whole train crossed as one datagram: later frames came
            // from the stash, not the kernel.
            assert!(syscalls < 8, "stash served repeat reads ({syscalls})");
        }
    }

    #[test]
    fn empty_datagram_is_one_empty_frame() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(4, false);
        let mut rx = BatchIo::new(4, false);
        rx.set_gro(gro_on);
        let rep = tx.send_frames(&a, &[Vec::new()]);
        assert_eq!(rep.sent, 1);
        let (_bufs, lens) = recv_all(&mut rx, &b, 1);
        assert_eq!(lens[0], 0);
    }

    /// 64 frames of 70 bytes back to back in one buffer, and the reader
    /// over them the channel's send arena would give the planner.
    fn arena_of_64() -> Vec<u8> {
        (0..64u8).flat_map(|i| [i; 70]).collect()
    }

    /// `(frames, pieces)` of each message of the last plan.
    fn runs(p: &SendPlanner) -> Vec<(usize, usize)> {
        p.runs.iter().map(|r| (r.frames, r.pieces)).collect()
    }

    #[test]
    fn adjacent_frames_plan_as_one_iovec() {
        let arena = arena_of_64();
        let mut p = SendPlanner::new(8, GSO_MAX_SEGMENTS);
        p.plan(0, 64, &|i| &arena[i * 70..][..70]);
        assert_eq!(runs(&p), [(64, 1)], "one train, one piece");
        assert_eq!(p.iovs[0].len, 64 * 70);

        // The same frames as 64 separate allocations: a piece each.
        let frames: Vec<Vec<u8>> = arena.chunks(70).map(<[u8]>::to_vec).collect();
        p.plan(0, 64, &|i| &frames[i]);
        assert_eq!(runs(&p), [(64, 64)]);

        // One frame in the middle living elsewhere cuts the piece in
        // three, and nothing else changes.
        let stray = [32u8; 70];
        p.plan(0, 64, &|i| {
            if i == 32 {
                &stray[..]
            } else {
                &arena[i * 70..][..70]
            }
        });
        assert_eq!(runs(&p), [(64, 3)]);
        let lens: Vec<usize> = p.iovs.iter().map(|v| v.len).collect();
        assert_eq!(lens, [32 * 70, 70, 31 * 70]);

        // Adjacency never reaches across messages: with GSO off every
        // frame is a datagram of its own, so a piece of its own.
        p.gso_max = 1;
        p.plan(0, 64, &|i| &arena[i * 70..][..70]);
        assert_eq!(runs(&p), [(1, 1); 8], "cap 8 messages to a call");
    }

    /// A short frame in mid-train rides it in a bundle: header, its
    /// bytes and the padding are three pieces of a 70-byte segment, and
    /// the train's segment count is the queue's; the shorter frames of a
    /// queue's end are its unpadded last segment.
    #[test]
    fn a_short_frame_rides_the_train_in_a_padded_bundle() {
        let arena = arena_of_64();
        let short = [7u8; 20];
        let mut p = SendPlanner::new(8, GSO_MAX_SEGMENTS);
        let frame = |i: usize| {
            if i == 10 || i >= 64 {
                &short[..]
            } else {
                &arena[i * 70..][..70]
            }
        };
        p.plan(0, 66, &frame);
        let r = p.runs[0];
        assert_eq!((r.frames, r.segs, r.seg), (66, 65, 70));
        let lens: Vec<usize> = p.iovs.iter().map(|v| v.len).collect();
        let bundle_of_one = bundle::header_len(1);
        assert_eq!(
            lens,
            [
                10 * 70,
                bundle_of_one,
                20,
                70 - 20 - bundle_of_one,
                53 * 70,
                bundle::header_len(2),
                20,
                20
            ]
        );
        assert_eq!(p.heads.len(), bundle_of_one + bundle::header_len(2));
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn one_iovec_train_arrives_as_the_same_frames() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(8, false);
        let mut rx = BatchIo::new(8, false);
        rx.set_gro(gro_on);
        let arena = arena_of_64();
        let stray = [0xabu8; 70];
        let frame = |i: usize| {
            if i == 32 {
                &stray[..]
            } else {
                &arena[i * 70..][..70]
            }
        };
        let rep = tx.send_slices(&a, 64, frame);
        assert_eq!(rep.sent, 64);
        if tx.gso_active() {
            assert_eq!((rep.messages, rep.iovecs), (1, 3));
        } else if tx.batched() {
            assert_eq!((rep.messages, rep.iovecs), (64, 64));
        }
        let (bufs, lens) = recv_all(&mut rx, &b, 64);
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!(&buf[..len], frame(i), "frame {i}");
        }
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn a_rejected_long_train_lowers_the_ceiling_before_gso_goes() {
        // No train in the plan: the rejection is not about GSO.
        assert_eq!(gso_ceiling_after_rejection(0), None);
        assert_eq!(gso_ceiling_after_rejection(1), None);
        // Past the old UDP_MAX_SEGMENTS: an older kernel, not a path
        // that refuses UDP_SEGMENT.
        assert_eq!(gso_ceiling_after_rejection(128), Some(64));
        assert_eq!(gso_ceiling_after_rejection(65), Some(64));
        // Within it: GSO itself is unwelcome.
        assert_eq!(gso_ceiling_after_rejection(64), Some(1));
        assert_eq!(gso_ceiling_after_rejection(2), Some(1));
        // Two rejections in a row walk 128 -> 64 -> off and stop there.
        let mut max = GSO_MAX_SEGMENTS;
        let mut seen = vec![max];
        while let Some(next) = gso_ceiling_after_rejection(max) {
            max = next;
            seen.push(max);
        }
        assert_eq!(seen, [128, 64, 1]);
    }

    /// Whatever ceiling this kernel settles on, 128 equal frames all
    /// arrive, in order, in trains no longer than it.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn long_train_survives_whichever_ceiling_the_kernel_has() {
        let (a, b) = pair();
        let gro_on = configure_offload(&b);
        let mut tx = BatchIo::new(8, false);
        let mut rx = BatchIo::new(8, false);
        rx.set_gro(gro_on);
        let frames: Vec<Vec<u8>> = (0..128u8).map(|i| vec![i; 70]).collect();
        let rep = tx.send_frames(&a, &frames);
        assert_eq!(rep.sent, 128);
        assert!(!rep.hard_error);
        if tx.gso_active() {
            assert!(
                [(128, 1), (64, 2)].contains(&(tx.planner.gso_max, rep.messages)),
                "ceiling {} took {} trains",
                tx.planner.gso_max,
                rep.messages
            );
        }
        let (bufs, lens) = recv_all(&mut rx, &b, 128);
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!(&buf[..len], &frames[i][..], "frame {i}");
        }
    }
}
