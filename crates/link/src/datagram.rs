//! The real-network channel contract: a datagram link that moves actual
//! frame bytes *now*, as opposed to [`FifoLink`](crate::FifoLink), which
//! analytically computes when a packet of a given length *would* arrive.
//!
//! The striping protocol never needed packet contents in the simulator —
//! only wire lengths touch the deficit counters — but a kernel socket
//! obviously does. [`DatagramLink`] is therefore the minimal byte-moving
//! surface the `stripe-net` subsystem stripes over: offer one encoded
//! frame, receive one encoded frame, both non-blocking. Everything above
//! (codec, scheduler, logical reception, failover) is shared with the
//! simulated path.
//!
//! Batch receivers do not read frame by frame: the unit of reception is
//! the [`Train`] — what one kernel receive hands over, which on a
//! coalescing (GRO) socket is a run of equal-size frames back to back.
//! [`DatagramLink::recv_trains`] *lands* ready trains in windows the
//! caller owns and says how to cut each one, so the bytes stay where the
//! link put them; a link with no notion of trains lands one frame per
//! window through the trait default.
//!
//! Send errors reuse [`TxError`]: a full bounded send queue is
//! [`TxError::QueueFull`] (backpressure, exactly like a full simulated
//! transmit queue), an oversized frame is [`TxError::TooBig`], and a
//! socket-level failure is [`TxError::LinkDown`]. Loss in flight is the
//! network's business — a real channel reports nothing, which is the
//! point of the whole protocol.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::TxError;

/// Cumulative transmit-side evidence a link can surface for online
/// rate estimation: how much it has actually *carried* toward the
/// network, and how much it destroyed itself (queue overflow, policer,
/// socket errors). Monotone counters — estimators difference
/// successive samples, so absolute origins don't matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxEvidence {
    /// Frames the link carried (handed to or queued for the network).
    pub frames: u64,
    /// Wire bytes of those frames.
    pub bytes: u64,
    /// Frames the link itself destroyed and knows about — local queue
    /// overflow, rate policing, hard socket errors. Loss *in flight*
    /// is invisible here by definition.
    pub dropped: u64,
}

/// One landed train: `bytes` received bytes holding frames of `seg`
/// bytes each, back to back, the last one possibly shorter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Train {
    /// Bytes landed in the window.
    pub bytes: usize,
    /// Length of every frame but the last.
    pub seg: usize,
}

impl Train {
    /// A train of one whole frame of `n` bytes.
    pub fn frame(n: usize) -> Self {
        Self { bytes: n, seg: n }
    }

    /// `(offset, length)` of each frame, in order. An empty datagram
    /// coalesces with nothing, so a train of no bytes is one empty frame.
    pub fn frames(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.bytes.max(1))
            .step_by(self.seg.max(1))
            .map(move |at| (at, self.seg.min(self.bytes - at)))
    }
}

/// A non-blocking datagram channel carrying real frame bytes.
///
/// One `DatagramLink` is one striped channel: data frames, markers, and
/// control messages for channel `c` all traverse the same link, preserving
/// the per-channel FIFO the §5 synchronization protocol relies on (UDP
/// over one socket pair is FIFO on loopback and quasi-FIFO in the wild —
/// per-flow reordering is treated as loss by the marker recovery).
pub trait DatagramLink {
    /// Offer one encoded frame. Non-blocking: the frame is either handed
    /// to the network, queued locally for a later [`flush`](Self::flush),
    /// or rejected with backpressure ([`TxError::QueueFull`]).
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError>;

    /// Receive one frame into `buf`, returning its length, or `None` when
    /// nothing is ready (the readiness sweep moves to the next channel).
    /// A frame longer than `buf` is truncated by the transport, which the
    /// codec then rejects — size `buf` to [`mtu`](Self::mtu).
    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize>;

    /// Largest frame the link accepts.
    fn mtu(&self) -> usize;

    /// Offer a run of frames back to back, appending one result per frame
    /// to `out` (not cleared — batch callers compose runs). Outcomes are
    /// those of per-frame [`send_frame`](Self::send_frame) calls — the
    /// default is that loop; implementations may only amortize mechanics
    /// across the run (park the frames and submit them in one
    /// [`flush`](Self::flush) — the `sendmmsg` seam), never change them.
    ///
    /// The link may keep each accepted frame whichever way is cheaper for
    /// it: an accepted frame's storage is *taken* (some valid, possibly
    /// recycled `Vec` left in its place) *or* its bytes are copied, and
    /// its contents are unspecified afterwards either way — the seam
    /// batch senders feed from their recycled frame buffers, which they
    /// re-encode into before the next use. A frame whose result is an
    /// error is left untouched.
    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        out.reserve(frames.len());
        for f in frames.iter() {
            out.push(self.send_frame(f));
        }
    }

    /// Bytes one window of [`recv_trains`](Self::recv_trains) must hold:
    /// the longest train the link lands at once. Default: one frame.
    fn recv_window(&self) -> usize {
        self.mtu()
    }

    /// Land ready trains, in arrival order, one per window: train `i`
    /// fills the front of `windows[i]` and is described by `trains[i]`.
    /// Every window must hold [`recv_window`](Self::recv_window) bytes.
    /// Returns how many trains landed; fewer than `windows.len()` means
    /// the link is **drained** for now — there is no point asking again
    /// in this pass. This is the batch receive seam (`recvmmsg` under a
    /// kernel link); the default lands one
    /// [`recv_frame`](Self::recv_frame) per window.
    fn recv_trains(&mut self, windows: &mut [&mut [u8]], trains: &mut [Train]) -> usize {
        debug_assert!(trains.len() >= windows.len(), "one report per window");
        let mut k = 0;
        while k < windows.len() {
            match self.recv_frame(windows[k]) {
                Some(n) => {
                    trains[k] = Train::frame(n);
                    k += 1;
                }
                None => break,
            }
        }
        k
    }

    /// Try to drain locally queued frames (after earlier backpressure).
    /// Returns how many left the queue. Default: nothing is ever queued.
    fn flush(&mut self) -> usize {
        0
    }

    /// Frames waiting in the local send queue.
    fn backlog(&self) -> usize {
        0
    }

    /// Whether the link has declared itself permanently failed — a
    /// refused socket past its grace, a fatal-errno streak. Dead links
    /// fail sends fast with [`TxError::LinkDown`]; pollers (the sender
    /// reactor) surface the flag to the failover driver so the channel
    /// is retired through the same liveness path a silent channel takes,
    /// instead of an `io::Error` bubbling out of the datapath. Default:
    /// never — in-memory links and wrappers without a failure mode
    /// simply inherit it.
    fn link_dead(&self) -> bool {
        false
    }

    /// Attempt to restore a dead link with a fresh transport: a new
    /// connected socket on the same local endpoint, or whatever the
    /// implementation's failure mode calls for. Returns
    /// `true` when the link came back ready to be *re-probed* (the
    /// lifecycle treats success as "worth probing", never "healthy");
    /// `false` when the rebuild failed and the caller should back off
    /// and retry later. Implementations should treat reviving a link
    /// that never died as a cheap success. Default: links without a
    /// failure mode have nothing to rebuild — `false`, so the
    /// lifecycle keeps them parked in cooldown rather than spinning.
    fn revive(&mut self) -> bool {
        false
    }

    /// Cumulative carried-traffic counters for rate estimation, when
    /// the link keeps them. The adaptive tuner samples this each poll
    /// and differences successive snapshots into goodput/loss
    /// estimates; `None` (the default) means the link offers no
    /// evidence and estimation falls back to protocol-level signals.
    fn tx_evidence(&self) -> Option<TxEvidence> {
        None
    }
}

/// One direction of an in-memory datagram pipe (see [`datagram_pair`]):
/// frames sent here pop out of the peer's [`recv_frame`], in order, with a
/// bounded capacity. Deterministic and socket-free, for unit-testing
/// everything that stripes over a [`DatagramLink`].
#[derive(Debug)]
pub struct TestDatagramLink {
    /// Frames we transmit (the peer's receive queue).
    out: Rc<RefCell<VecDeque<Vec<u8>>>>,
    /// Frames the peer transmitted to us.
    inn: Rc<RefCell<VecDeque<Vec<u8>>>>,
    mtu: usize,
    cap: usize,
}

/// A connected pair of [`TestDatagramLink`]s with the given MTU and
/// per-direction queue capacity (in frames).
pub fn datagram_pair(mtu: usize, cap: usize) -> (TestDatagramLink, TestDatagramLink) {
    let ab = Rc::new(RefCell::new(VecDeque::new()));
    let ba = Rc::new(RefCell::new(VecDeque::new()));
    (
        TestDatagramLink {
            out: Rc::clone(&ab),
            inn: Rc::clone(&ba),
            mtu,
            cap,
        },
        TestDatagramLink {
            out: ba,
            inn: ab,
            mtu,
            cap,
        },
    )
}

impl DatagramLink for TestDatagramLink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        if frame.len() > self.mtu {
            return Err(TxError::TooBig);
        }
        let mut q = self.out.borrow_mut();
        if q.len() >= self.cap {
            return Err(TxError::QueueFull);
        }
        q.push_back(frame.to_vec());
        Ok(())
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        // The twin of the kernel links' zero-copy seam: accepted frames
        // move their storage into the queue instead of being copied.
        out.reserve(frames.len());
        for frame in frames.iter_mut() {
            if frame.len() > self.mtu {
                out.push(Err(TxError::TooBig));
                continue;
            }
            let mut q = self.out.borrow_mut();
            if q.len() >= self.cap {
                out.push(Err(TxError::QueueFull));
                continue;
            }
            q.push_back(std::mem::take(frame));
            out.push(Ok(()));
        }
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        let frame = self.inn.borrow_mut().pop_front()?;
        let n = frame.len().min(buf.len());
        buf[..n].copy_from_slice(&frame[..n]);
        Some(n)
    }

    fn mtu(&self) -> usize {
        self.mtu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_moves_frames_in_order() {
        let (mut a, mut b) = datagram_pair(1500, 8);
        a.send_frame(&[1, 2, 3]).unwrap();
        a.send_frame(&[4]).unwrap();
        let mut buf = [0u8; 1500];
        assert_eq!(b.recv_frame(&mut buf), Some(3));
        assert_eq!(&buf[..3], &[1, 2, 3]);
        assert_eq!(b.recv_frame(&mut buf), Some(1));
        assert_eq!(buf[0], 4);
        assert_eq!(b.recv_frame(&mut buf), None);
    }

    #[test]
    fn pair_is_full_duplex() {
        let (mut a, mut b) = datagram_pair(100, 8);
        a.send_frame(&[9]).unwrap();
        b.send_frame(&[7]).unwrap();
        let mut buf = [0u8; 100];
        assert_eq!(a.recv_frame(&mut buf), Some(1));
        assert_eq!(buf[0], 7);
        assert_eq!(b.recv_frame(&mut buf), Some(1));
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn bounded_queue_backpressures() {
        let (mut a, _b) = datagram_pair(100, 2);
        a.send_frame(&[0]).unwrap();
        a.send_frame(&[1]).unwrap();
        assert_eq!(a.send_frame(&[2]), Err(TxError::QueueFull));
    }

    #[test]
    fn oversized_frame_rejected() {
        let (mut a, _b) = datagram_pair(4, 2);
        assert_eq!(a.send_frame(&[0; 5]), Err(TxError::TooBig));
    }

    #[test]
    fn send_run_owned_matches_per_frame_outcomes() {
        let (mut a, mut a_peer) = datagram_pair(8, 3);
        let (mut b, mut b_peer) = datagram_pair(8, 3);
        // Oversized frame mid-run, then enough to overflow the queue.
        let frames: Vec<Vec<u8>> = vec![vec![1], vec![0; 9], vec![2], vec![3], vec![4]];
        let mut owned = frames.clone();
        let out_ref: Vec<_> = frames.iter().map(|f| a.send_frame(f)).collect();
        let mut out_owned = Vec::new();
        b.send_run_owned(&mut owned, &mut out_owned);
        assert_eq!(out_ref, out_owned);
        assert_eq!(out_ref[1], Err(TxError::TooBig));
        assert_eq!(out_ref[4], Err(TxError::QueueFull), "the bounded queue");
        // Rejected frames are left untouched by the owning variant.
        assert_eq!(owned[1], vec![0; 9]);
        assert_eq!(owned[4], vec![4]);
        let mut buf = [0u8; 8];
        for want in [1u8, 2, 3] {
            assert_eq!(a_peer.recv_frame(&mut buf), Some(1));
            assert_eq!(buf[0], want);
            assert_eq!(b_peer.recv_frame(&mut buf), Some(1));
            assert_eq!(buf[0], want);
        }
    }

    #[test]
    fn recv_trains_lands_one_frame_per_window_in_order() {
        let (mut a, mut b) = datagram_pair(16, 8);
        for i in 0..5u8 {
            a.send_frame(&[i, i]).unwrap();
        }
        let mut room = [0u8; 48];
        let mut trains = [Train::default(); 3];
        {
            let mut windows: Vec<&mut [u8]> = room.chunks_mut(16).collect();
            assert_eq!(b.recv_trains(&mut windows, &mut trains), 3);
        }
        for (i, (w, t)) in room.chunks(16).zip(&trains).enumerate() {
            assert_eq!((*t, w[0]), (Train::frame(2), i as u8));
        }
        let mut windows: Vec<&mut [u8]> = room.chunks_mut(16).collect();
        assert_eq!(
            b.recv_trains(&mut windows, &mut trains),
            2,
            "short of the windows offered: drained"
        );
        assert_eq!((windows[0][0], windows[1][0]), (3, 4));
    }

    #[test]
    fn train_cuts_into_frames() {
        let cut = |bytes, seg| Train { bytes, seg }.frames().collect::<Vec<_>>();
        assert_eq!(cut(10, 4), [(0, 4), (4, 4), (8, 2)]);
        assert_eq!(cut(8, 4), [(0, 4), (4, 4)]);
        assert_eq!(cut(3, 3), [(0, 3)]);
        assert_eq!(cut(0, 0), [(0, 0)], "an empty datagram is one frame");
    }
}
