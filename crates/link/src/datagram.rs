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
    /// to `out` (not cleared — batch callers compose runs). Semantically
    /// identical to per-frame [`send_frame`](Self::send_frame) calls;
    /// implementations may only amortize mechanics across the run (one
    /// backlog flush instead of one per frame — the `sendmmsg` seam),
    /// never change outcomes.
    fn send_run(&mut self, frames: &[Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        out.reserve(frames.len());
        for f in frames {
            out.push(self.send_frame(f));
        }
    }

    /// Like [`send_run`](Self::send_run), but the link may *take* each
    /// accepted frame's storage (leaving behind some valid, possibly
    /// recycled `Vec`) instead of copying the bytes — the zero-copy seam
    /// batch senders feed from their recycled frame buffers. A frame
    /// whose result is an error is left untouched. Outcomes are identical
    /// to [`send_run`](Self::send_run).
    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        self.send_run(frames, out)
    }

    /// Receive up to `bufs.len()` frames in one pass — the `recvmmsg`
    /// seam. Frame `i` lands in `bufs[i]` (each buffer must hold at least
    /// [`mtu`](Self::mtu) bytes of storage; links may also *swap* the
    /// storage for an equivalent buffer) with its length in `lens[i]`.
    /// Returns how many frames arrived; fewer than `bufs.len()` means the
    /// link is drained for now.
    fn recv_run(&mut self, bufs: &mut [Vec<u8>], lens: &mut [usize]) -> usize {
        debug_assert!(lens.len() >= bufs.len(), "one length slot per buffer");
        let mut k = 0;
        while k < bufs.len() {
            match self.recv_frame(&mut bufs[k]) {
                Some(n) => {
                    lens[k] = n;
                    k += 1;
                }
                None => break,
            }
        }
        k
    }

    /// Segmentation-offload hint: `true` when the link coalesces runs of
    /// *equal-length* frames into single kernel submissions (GSO), so
    /// callers that can afford to pad short control frames up to the
    /// surrounding data-frame length keep long trains unbroken. Purely a
    /// transmit-cost hint — implementations must deliver padded and
    /// unpadded frames identically. Default: no offload.
    fn coalesce_hint(&self) -> bool {
        false
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

    fn recv_run(&mut self, bufs: &mut [Vec<u8>], lens: &mut [usize]) -> usize {
        debug_assert!(lens.len() >= bufs.len(), "one length slot per buffer");
        let mut q = self.inn.borrow_mut();
        let mut k = 0;
        while k < bufs.len() {
            let Some(frame) = q.pop_front() else { break };
            let n = frame.len().min(bufs[k].len());
            bufs[k][..n].copy_from_slice(&frame[..n]);
            lens[k] = n;
            k += 1;
        }
        k
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
    fn send_run_owned_matches_send_run_outcomes() {
        let (mut a, mut a_peer) = datagram_pair(8, 3);
        let (mut b, mut b_peer) = datagram_pair(8, 3);
        // Oversized frame mid-run, then enough to overflow the queue.
        let frames: Vec<Vec<u8>> = vec![vec![1], vec![0; 9], vec![2], vec![3], vec![4]];
        let mut owned = frames.clone();
        let (mut out_ref, mut out_owned) = (Vec::new(), Vec::new());
        a.send_run(&frames, &mut out_ref);
        b.send_run_owned(&mut owned, &mut out_owned);
        assert_eq!(out_ref, out_owned);
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
    fn recv_run_drains_in_order() {
        let (mut a, mut b) = datagram_pair(16, 8);
        for i in 0..5u8 {
            a.send_frame(&[i, i]).unwrap();
        }
        let mut bufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 16]).collect();
        let mut lens = [0usize; 3];
        assert_eq!(b.recv_run(&mut bufs, &mut lens), 3);
        for (i, (buf, &len)) in bufs.iter().zip(&lens).enumerate() {
            assert_eq!((len, buf[0]), (2, i as u8));
        }
        assert_eq!(b.recv_run(&mut bufs, &mut lens), 2, "tail then drained");
        assert_eq!(bufs[0][0], 3);
        assert_eq!(bufs[1][0], 4);
    }

    #[test]
    fn send_run_matches_per_frame_sends() {
        let (mut a, mut b) = datagram_pair(100, 3);
        let frames: Vec<Vec<u8>> = vec![vec![1], vec![2], vec![3], vec![4]];
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert_eq!(
            out,
            vec![Ok(()), Ok(()), Ok(()), Err(TxError::QueueFull)],
            "fourth frame hits the bounded queue"
        );
        let mut buf = [0u8; 100];
        for want in 1u8..=3 {
            assert_eq!(b.recv_frame(&mut buf), Some(1));
            assert_eq!(buf[0], want);
        }
    }
}
