//! Receive buffers: where the kernel lands trains, and the views the
//! rest of the stack holds into them.
//!
//! A socket must land bytes somewhere, and the receive path is built so
//! that *somewhere* is also where the application reads them: a
//! [`TrainPool`] buffer is handed to the link as landing windows, the
//! demux decodes the frames in place, and each payload travels through
//! the [`LogicalReceiver`] and out to the consumer as a [`PooledBuf`] —
//! a reference-counted view `(buffer, offset, len)`. No byte moves in
//! user space, and nothing is allocated: steady state, the same few
//! buffers cycle forever.
//!
//! **Who may write when.** Every buffer is an `Rc<[u8]>` and the pool
//! keeps one handle on each for good. A buffer is *free* exactly when
//! that handle is the only one. Only a free buffer is ever written —
//! handed to the kernel as windows, or filled by re-homing — and the
//! write goes through `Rc::get_mut`, which yields a `&mut` only while
//! the handle is unique: the type system, not a convention, guarantees
//! that no live view is ever written under. Once a frame's view clones
//! the handle the buffer is shared and read-only until the last view is
//! dropped, at which point it is free again without anyone telling the
//! pool: giving a buffer back *is* dropping the view, so no path —
//! resequencer overflow, a closed flow, a §5 flush — can leak one.
//!
//! **The budget.** One small payload parked in a resequencer keeps its
//! whole buffer shared. The pool therefore has a byte budget; when it
//! would have to grow past it, [`FlowDemux`](crate::demux::FlowDemux)
//! first *re-homes* parked payloads — copies them out of the sparse
//! buffers they pin into one compact buffer — and only what cannot be
//! freed that way (payloads the application still holds, or more parked
//! bytes than the budget) makes the pool grow. Growth is permanent, so
//! a working set above the budget is paid for once.
//!
//! [`BufPool`] is the previous generation — owned `Vec` buffers taken
//! and put back by hand. The datapath no longer uses it.
//!
//! [`LogicalReceiver`]: stripe_core::receiver::LogicalReceiver

use std::rc::Rc;

use stripe_core::sched::ChannelMark;
use stripe_core::types::WireLen;

use crate::frame::{self, MARK_FIELD_LEN};

/// A view of one packet's payload inside a shared receive buffer.
/// Dropping it is what returns the storage: the buffer is reused once
/// its last view is gone.
///
/// Its [`WireLen`] is the *payload* length — the same number the sender
/// charged against its deficit counter for this packet — so the
/// receiver's scheduler simulation advances exactly in step with the
/// sender's (condition C2 needs both ends to agree on every length).
///
/// A payload that arrived behind a filled mark field keeps the field:
/// the view is *numbered*, the [`MARK_FIELD_LEN`] bytes directly ahead of
/// the payload are the packet's [number](WireLen::number), and they stay
/// ahead of it wherever the payload is re-homed. One flag bit in a field
/// that was there, so a numbered arrival is one ring entry and every
/// view is built and moved by the stores and loads it always was.
#[derive(Debug, Clone)]
pub struct PooledBuf {
    data: Rc<[u8]>,
    /// The buffer's index in its pool; [`NUMBERED`] set: the view is
    /// numbered.
    slot: u32,
    offset: u32,
    len: u32,
}

/// The flag bit of [`PooledBuf::slot`]. A pool never has 2^31 buffers:
/// each is at least 64 KiB.
const NUMBERED: u32 = 1 << 31;

impl PooledBuf {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset as usize..(self.offset + self.len) as usize]
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index, in its pool, of the buffer this view keeps alive.
    pub(crate) fn slot(&self) -> usize {
        (self.slot & !NUMBERED) as usize
    }

    fn numbered(&self) -> bool {
        self.slot & NUMBERED != 0
    }

    /// Bytes of mark field the view owns ahead of its payload.
    fn lead(&self) -> usize {
        if self.numbered() {
            MARK_FIELD_LEN
        } else {
            0
        }
    }

    /// Everything the view stands for, as it lies in the buffer: the
    /// number's field, if it has one, then the payload.
    pub(crate) fn stored(&self) -> &[u8] {
        &self.data[self.offset as usize - self.lead()..(self.offset + self.len) as usize]
    }

    /// The same view over a copy of [`stored`](Self::stored) that starts
    /// at `at` in `data`, the pool's buffer `slot`.
    pub(crate) fn moved_to(&self, data: &Rc<[u8]>, slot: usize, at: usize) -> PooledBuf {
        TrainPool::view_of(data, slot, at + self.lead(), self.len(), self.numbered())
    }
}

impl WireLen for PooledBuf {
    fn wire_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn number(&self) -> Option<ChannelMark> {
        let at = self.offset as usize;
        self.numbered()
            .then(|| frame::read_mark(&self.data[at - MARK_FIELD_LEN..at]))
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Length of a train buffer: a coalesced UDP train is at most 65507
/// bytes, so one always fits.
const TRAIN_BUF: usize = 1 << 16;

/// The receive buffers of one demux. See the module docs for the life
/// cycle; in short, a buffer is writable only while the pool's handle on
/// it is the only one.
#[derive(Debug)]
pub struct TrainPool {
    /// Every buffer ever allocated, for good: a buffer is free when this
    /// handle is the only one left.
    bufs: Vec<Rc<[u8]>>,
    /// Per buffer: re-homing filled it past half, so the payloads in it
    /// are packed and the next re-homing leaves them where they are.
    packed: Vec<bool>,
    buf_len: usize,
    budget: usize,
}

impl TrainPool {
    /// A pool whose buffers hold a `window`-byte landing window (and
    /// never less than a full UDP train), pre-allocated up to `budget`
    /// bytes. The budget is raised to `min_bufs` buffers if it is less.
    pub fn new(window: usize, budget: usize, min_bufs: usize) -> Self {
        let buf_len = window.max(TRAIN_BUF);
        assert!(buf_len <= u32::MAX as usize, "views hold 32-bit offsets");
        let budget = budget.max(min_bufs * buf_len);
        let mut pool = Self {
            bufs: Vec::new(),
            packed: Vec::new(),
            buf_len,
            budget,
        };
        while pool.grow_within_budget() {}
        pool
    }

    /// Bytes per buffer.
    pub fn buf_len(&self) -> usize {
        self.buf_len
    }

    /// Buffers ever allocated (the high-water mark; a steady-state
    /// datapath stops growing this). They are never given back.
    pub fn allocated(&self) -> u64 {
        self.bufs.len() as u64
    }

    /// Buffers no view points into right now.
    pub fn free_count(&self) -> usize {
        self.free_upto(usize::MAX)
    }

    /// Like [`free_count`](Self::free_count), but stops counting at
    /// `limit`.
    pub(crate) fn free_upto(&self, limit: usize) -> usize {
        self.bufs
            .iter()
            .filter(|b| Rc::strong_count(b) == 1)
            .take(limit)
            .count()
    }

    /// Allocate one more buffer if the budget has room for it.
    pub(crate) fn grow_within_budget(&mut self) -> bool {
        let fits = (self.bufs.len() + 1) * self.buf_len <= self.budget;
        if fits {
            self.grow();
        }
        fits
    }

    /// Allocate one more buffer, budget or not.
    pub(crate) fn grow(&mut self) {
        self.bufs.push(vec![0u8; self.buf_len].into());
        self.packed.push(false);
    }

    /// Carve up to `windows.len()` landing windows of `window` bytes out
    /// of free buffers, lowest index first (so a quiet pool keeps
    /// reusing the same, cache-warm, few), and record each window's
    /// `(buffer, offset)` in `homes`. Returns how many were found.
    pub(crate) fn claim<'a>(
        &'a mut self,
        window: usize,
        windows: &mut [&'a mut [u8]],
        homes: &mut [(u32, u32)],
    ) -> usize {
        let mut n = 0;
        for (slot, buf) in self.bufs.iter_mut().enumerate() {
            if n == windows.len() {
                break;
            }
            // Unique means free: nothing can be reading what the link is
            // about to overwrite.
            let Some(bytes) = Rc::get_mut(buf) else {
                continue;
            };
            self.packed[slot] = false;
            for (i, w) in bytes
                .chunks_exact_mut(window)
                .take(windows.len() - n)
                .enumerate()
            {
                windows[n] = w;
                homes[n] = (slot as u32, (i * window) as u32);
                n += 1;
            }
        }
        n
    }

    /// A view of `len` bytes at `offset` in `data`, the pool's buffer
    /// `slot`, which stays shared — unwritable — until the view and all
    /// its clones are gone. `numbered`: the [`MARK_FIELD_LEN`] bytes
    /// ahead of `offset` are a filled mark field and belong to the view.
    ///
    /// # Panics
    /// Panics if the window exceeds the buffer.
    pub(crate) fn view_of(
        data: &Rc<[u8]>,
        slot: usize,
        offset: usize,
        len: usize,
        numbered: bool,
    ) -> PooledBuf {
        assert!(offset + len <= data.len(), "payload window out of bounds");
        debug_assert!(!numbered || offset >= MARK_FIELD_LEN, "no field ahead");
        debug_assert!(slot < NUMBERED as usize);
        PooledBuf {
            data: Rc::clone(data),
            slot: slot as u32 | if numbered { NUMBERED } else { 0 },
            offset: offset as u32,
            len: len as u32,
        }
    }

    /// The pool's own handle on buffer `slot`.
    pub(crate) fn handle(&self, slot: usize) -> &Rc<[u8]> {
        &self.bufs[slot]
    }

    /// For re-homing: the lowest free buffer, writable, beside the
    /// packed flags of all of them.
    pub(crate) fn packing_target(&mut self) -> Option<(usize, &mut [u8], &[bool])> {
        let (slot, bytes) = self
            .bufs
            .iter_mut()
            .enumerate()
            .find_map(|(slot, b)| Some((slot, Rc::get_mut(b)?)))?;
        Some((slot, bytes, &self.packed))
    }

    /// Whether the payloads in buffer `slot` were packed there by
    /// re-homing.
    pub(crate) fn packed(&self, slot: usize) -> bool {
        self.packed[slot]
    }

    /// Record that re-homing left `fill` bytes of payload in `slot`.
    pub(crate) fn set_packed(&mut self, slot: usize, fill: usize) {
        self.packed[slot] = fill * 2 >= self.buf_len;
    }
}

/// A pool of fixed-size receive buffers.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    buf_len: usize,
    allocated: u64,
}

impl BufPool {
    /// A pool of `initial` pre-allocated buffers of `buf_len` bytes each.
    /// `buf_len` should be the channel MTU: every frame must fit.
    pub fn new(buf_len: usize, initial: usize) -> Self {
        assert!(buf_len > 0, "buffers must have room for a frame");
        Self {
            free: (0..initial).map(|_| vec![0u8; buf_len]).collect(),
            buf_len,
            allocated: initial as u64,
        }
    }

    /// Take a buffer of exactly [`buf_len`](Self::buf_len) bytes,
    /// recycling a free one when available and allocating only when the
    /// pool is dry (a high-water-mark growth, like every scratch buffer
    /// in the batched datapath).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => buf,
            None => {
                self.allocated += 1;
                vec![0u8; self.buf_len]
            }
        }
    }

    /// Return a buffer to the pool. Buffers of the wrong size (e.g. from
    /// a reconfigured pool) are resized back to `buf_len`.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.resize(self.buf_len, 0);
        self.free.push(buf);
    }

    /// Buffer size this pool hands out.
    pub fn buf_len(&self) -> usize {
        self.buf_len
    }

    /// Buffers currently free.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Total buffers ever allocated (the high-water mark; a steady-state
    /// datapath stops growing this).
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_before_allocating() {
        let mut pool = BufPool::new(64, 2);
        assert_eq!(pool.allocated(), 2);
        let a = pool.take();
        let b = pool.take();
        assert_eq!(pool.allocated(), 2, "both served from the pool");
        assert_eq!(pool.free_count(), 0);
        let c = pool.take();
        assert_eq!(pool.allocated(), 3, "dry pool grows");
        pool.put(a);
        pool.put(b);
        pool.put(c);
        for _ in 0..100 {
            let buf = pool.take();
            pool.put(buf);
        }
        assert_eq!(pool.allocated(), 3, "steady state never grows");
    }

    #[test]
    fn put_restores_full_size() {
        let mut pool = BufPool::new(16, 1);
        let mut buf = pool.take();
        buf.truncate(3);
        pool.put(buf);
        assert_eq!(pool.take().len(), 16);
    }

    /// Claim one window per free buffer, write `fill` into each, and
    /// return where they live.
    fn land(pool: &mut TrainPool, want: usize, fill: u8) -> Vec<(u32, u32)> {
        let window = pool.buf_len();
        let mut homes = vec![(0, 0); want];
        let mut windows: Vec<&mut [u8]> = (0..want).map(|_| &mut [][..]).collect();
        let n = pool.claim(window, &mut windows, &mut homes);
        for w in &mut windows[..n] {
            w[..4].fill(fill);
        }
        homes.truncate(n);
        homes
    }

    #[test]
    fn a_viewed_buffer_is_never_claimed() {
        let mut pool = TrainPool::new(64, 0, 2);
        assert_eq!((pool.allocated(), pool.free_count()), (2, 2));
        assert_eq!(land(&mut pool, 2, 7), [(0, 0), (1, 0)]);
        let held = TrainPool::view_of(pool.handle(0), 0, 1, 3, false);
        assert_eq!(held.as_slice(), &[7, 7, 7]);
        assert_eq!(
            (held.wire_len(), held.len(), held.is_empty()),
            (3, 3, false)
        );
        // Buffer 0 is shared now: landing passes it over, whatever is
        // asked for, and never writes under the view.
        assert_eq!(pool.free_count(), 1);
        assert_eq!(land(&mut pool, 2, 9), [(1, 0)]);
        assert_eq!(held.as_slice(), &[7, 7, 7]);
        // A clone keeps it shared after the original is gone; dropping
        // the last view is the whole of giving it back.
        let twin = held.clone();
        drop(held);
        assert_eq!(pool.free_count(), 1);
        drop(twin);
        assert_eq!(pool.free_count(), 2);
        assert_eq!(land(&mut pool, 2, 9), [(0, 0), (1, 0)]);
        assert_eq!(pool.allocated(), 2, "cycling never allocates");
    }

    #[test]
    fn windows_are_carved_from_one_buffer_before_the_next() {
        let mut pool = TrainPool::new(64, 0, 2);
        let window = pool.buf_len() / 4;
        let mut homes = [(0, 0); 6];
        let mut windows: Vec<&mut [u8]> = (0..6).map(|_| &mut [][..]).collect();
        assert_eq!(pool.claim(window, &mut windows, &mut homes), 6);
        let w = window as u32;
        assert_eq!(
            homes,
            [(0, 0), (0, w), (0, 2 * w), (0, 3 * w), (1, 0), (1, w)]
        );
        assert!(windows.iter().all(|win| win.len() == window));
    }

    #[test]
    fn the_budget_bounds_pre_allocation_and_polite_growth() {
        let mut pool = TrainPool::new(64, 3 * TRAIN_BUF + 5, 2);
        assert_eq!(pool.allocated(), 3, "whole buffers within the budget");
        assert!(!pool.grow_within_budget());
        pool.grow();
        assert_eq!(pool.allocated(), 4, "forced growth ignores it");
        // A window wider than a UDP train widens the buffers.
        assert_eq!(TrainPool::new(TRAIN_BUF + 1, 0, 1).buf_len(), TRAIN_BUF + 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_view_panics() {
        let pool = TrainPool::new(64, 0, 1);
        let _ = TrainPool::view_of(pool.handle(0), 0, TRAIN_BUF - 2, 3, false);
    }
}
