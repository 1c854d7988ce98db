//! Seeded, deterministic chaos injection for real links: the net-path
//! analogue of the simulator's [`stripe_link::FaultPlan`], widened from
//! a single impairment (send-side loss) to the full menagerie a striping
//! system must survive — loss, reordering, duplication, payload
//! corruption, latency jitter, and partitions.
//!
//! [`ImpairedLink`] wraps any [`DatagramLink`] and applies a
//! [`ChaosPlan`] on the send side, driven by a [`DetRng`] so the same
//! seed replays the same impairment sequence bit-for-bit — runs are
//! reproducible, failures are debuggable, and a soak harness can sweep
//! seeds. Every injected event is counted in a [`ChaosSnapshot`], which
//! makes conservation accounting possible: frames offered equal frames
//! forwarded plus counted drops plus frames still held in the reorder
//! queue.
//!
//! Impairment fates are **exclusive** per data frame, resolved in
//! priority order: partition > deterministic loss policy > Bernoulli
//! loss > corruption > duplication > reordering > jitter. One frame,
//! one fate — so the snapshot's counters partition the offered frames
//! and the accounting closes exactly.
//!
//! Corruption flips a single bit in the frame *body*, modelling the
//! in-flight bit errors of §5. A corrupted frame is still forwarded —
//! catching it is the receiver's job, via the checksummed data kind
//! ([`crate::frame::KIND_DATA_SUMMED`]). Plans with a nonzero
//! corruption rate should only be pointed at paths built with integrity
//! mode on; plain [`crate::frame::KIND_DATA`] frames carry no checksum
//! and a body flip would be delivered as wrong bytes.
//!
//! Partitions are "timed" in the link's own deterministic clock — the
//! data-frame send index — because a [`DatagramLink`] has no wall
//! clock. While a partition window is active **everything** is dropped,
//! control frames included, which is exactly what starves the liveness
//! tracker and drives failover.
//!
//! Rate shaping ([`ChaosPlan::shape`]) is a token-bucket *policer* in
//! the same deterministic clock family: the bucket refills once per
//! [`DatagramLink::flush`] (the once-per-pump cadence of both the
//! server and the reactor), data frames spend wire bytes, and a frame
//! the bucket cannot cover is dropped and counted (`dropped_shaped`) —
//! exactly like congestive loss at a capacity bottleneck. Control
//! frames are exempt, so liveness survives a saturated link. Scripting
//! asymmetric rates (e.g. 4:2:1 across three channels) gives the
//! adaptive estimator reproducible heterogeneous goodput ground truth.

use std::collections::VecDeque;

use stripe_link::{DatagramLink, Train, TxError};
use stripe_netsim::DetRng;

use crate::frame::{is_data_frame, FRAME_HEADER_LEN};

/// Scale of all probability knobs: parts per million. `1_000_000` means
/// "always", `0` means "never".
pub const PPM_SCALE: u32 = 1_000_000;

/// Ceiling on spare buffers the link keeps for reorder/corruption
/// copies, so a pathological plan cannot hoard memory.
const SPARE_POOL_CAP: usize = 64;

/// Rounds [`ImpairedLink::drain_held`] will retry a backpressured inner
/// link before declaring the remaining held frames lost.
const DRAIN_RETRIES: usize = 64;

/// Which data frames (counted per link, in send order, starting at 0)
/// are dropped by the *deterministic* loss component of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Drop nothing.
    None,
    /// Drop data frames with index in `from..to` — one loss burst, then
    /// a clean tail (the Theorem 5.1 test shape).
    Window {
        /// First data-frame index dropped.
        from: u64,
        /// First data-frame index *not* dropped again.
        to: u64,
    },
    /// Drop every `period`-th data frame, forever (steady background
    /// loss for demos and benches).
    Periodic {
        /// Drop one frame out of every `period` (must be ≥ 2).
        period: u64,
    },
}

impl DropPolicy {
    /// Whether the data frame with this send `index` is dropped.
    pub fn drops(&self, index: u64) -> bool {
        match *self {
            DropPolicy::None => false,
            DropPolicy::Window { from, to } => (from..to).contains(&index),
            DropPolicy::Periodic { period } => index % period == period - 1,
        }
    }
}

/// A deterministic schedule of impairments for one channel.
///
/// Built fluently, mirroring the simulator's `FaultPlan`:
///
/// ```
/// use stripe_net::chaos::{ChaosPlan, DropPolicy};
/// let plan = ChaosPlan::none()
///     .loss(DropPolicy::Window { from: 50, to: 55 })
///     .loss_bernoulli(20_000)      // plus 2% random loss
///     .reorder(10_000, 4)          // 1% held back up to 4 frames
///     .duplicate(5_000)
///     .corrupt(5_000)
///     .jitter(10_000, 2)
///     .partition(400, 450)         // everything dark for 50 frames
///     .active(0, 1_000);           // probabilistic chaos quiesces at 1k
/// # let _ = plan;
/// ```
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    loss: DropPolicy,
    loss_ppm: u32,
    corrupt_ppm: u32,
    duplicate_ppm: u32,
    reorder_ppm: u32,
    reorder_depth: u32,
    jitter_ppm: u32,
    jitter_hold: u32,
    partitions: Vec<(u64, u64)>,
    active_from: u64,
    active_to: u64,
    shape_rate: u64,
    shape_burst: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            loss: DropPolicy::None,
            loss_ppm: 0,
            corrupt_ppm: 0,
            duplicate_ppm: 0,
            reorder_ppm: 0,
            reorder_depth: 0,
            jitter_ppm: 0,
            jitter_hold: 0,
            partitions: Vec::new(),
            active_from: 0,
            active_to: u64::MAX,
            shape_rate: 0,
            shape_burst: 0,
        }
    }
}

fn check_ppm(ppm: u32, what: &str) {
    assert!(
        ppm <= PPM_SCALE,
        "{what} rate {ppm} exceeds {PPM_SCALE} ppm"
    );
}

impl ChaosPlan {
    /// A plan with no impairments at all (the wrapper becomes
    /// transparent).
    pub fn none() -> Self {
        Self::default()
    }

    /// Deterministic loss by send index (the [`DropPolicy`] shapes).
    ///
    /// # Panics
    /// Panics if the policy is `Periodic` with `period < 2`.
    pub fn loss(mut self, policy: DropPolicy) -> Self {
        if let DropPolicy::Periodic { period } = policy {
            assert!(period >= 2, "periodic drop needs period >= 2");
        }
        self.loss = policy;
        self
    }

    /// Bernoulli loss: each data frame independently dropped with
    /// probability `ppm` / 1 000 000.
    pub fn loss_bernoulli(mut self, ppm: u32) -> Self {
        check_ppm(ppm, "loss");
        self.loss_ppm = ppm;
        self
    }

    /// Single-bit body corruption with probability `ppm` / 1 000 000.
    /// The damaged frame is *forwarded* — the receiver must catch it.
    pub fn corrupt(mut self, ppm: u32) -> Self {
        check_ppm(ppm, "corruption");
        self.corrupt_ppm = ppm;
        self
    }

    /// Duplication: the frame is sent twice, back to back, with
    /// probability `ppm` / 1 000 000.
    pub fn duplicate(mut self, ppm: u32) -> Self {
        check_ppm(ppm, "duplication");
        self.duplicate_ppm = ppm;
        self
    }

    /// Reordering: with probability `ppm` / 1 000 000 a data frame is
    /// held back while 1..=`depth` later sends overtake it, then
    /// released.
    ///
    /// # Panics
    /// Panics if `ppm > 0` and `depth == 0`.
    pub fn reorder(mut self, ppm: u32, depth: u32) -> Self {
        check_ppm(ppm, "reorder");
        assert!(ppm == 0 || depth >= 1, "reorder depth must be >= 1");
        self.reorder_ppm = ppm;
        self.reorder_depth = depth;
        self
    }

    /// Latency jitter: with probability `ppm` / 1 000 000 a data frame
    /// is delayed by exactly `hold` subsequent sends before release —
    /// a spike, where [`ChaosPlan::reorder`] is a fuzz.
    ///
    /// # Panics
    /// Panics if `ppm > 0` and `hold == 0`.
    pub fn jitter(mut self, ppm: u32, hold: u32) -> Self {
        check_ppm(ppm, "jitter");
        assert!(ppm == 0 || hold >= 1, "jitter hold must be >= 1");
        self.jitter_ppm = ppm;
        self.jitter_hold = hold;
        self
    }

    /// Total partition while the data-frame send index is in
    /// `from..to`: *all* frames dropped, control included, so liveness
    /// starves and failover engages.
    ///
    /// # Panics
    /// Panics if `to <= from`.
    pub fn partition(mut self, from: u64, to: u64) -> Self {
        assert!(to > from, "empty partition window");
        self.partitions.push((from, to));
        self
    }

    /// Gate the *probabilistic* impairments (Bernoulli loss,
    /// corruption, duplication, reorder, jitter) to data-frame indices
    /// in `from..to`. Deterministic loss and partitions keep their own
    /// windows. Lets a soak run quiesce chaos and assert the Theorem
    /// 5.1 clean-tail recovery.
    ///
    /// # Panics
    /// Panics if `to <= from`.
    pub fn active(mut self, from: u64, to: u64) -> Self {
        assert!(to > from, "empty active window");
        self.active_from = from;
        self.active_to = to;
        self
    }

    /// Token-bucket rate shaping (a policer, not a queue): the bucket
    /// starts full at `burst` bytes, refills `rate` bytes once per
    /// [`DatagramLink::flush`], and every *data* frame spends its wire
    /// length. A frame the bucket cannot cover is dropped and counted
    /// as `dropped_shaped` — the deterministic analogue of congestive
    /// loss at a capacity bottleneck, and the scriptable ground truth
    /// for heterogeneous-goodput estimation (e.g. rates 4R/2R/R across
    /// three channels). Control frames are exempt so liveness probes
    /// survive saturation.
    ///
    /// # Panics
    /// Panics if `rate == 0` or `burst < rate` (credit above the cap
    /// would be wasted every refill).
    pub fn shape(mut self, rate: u64, burst: u64) -> Self {
        assert!(rate > 0, "shaping rate must be positive");
        assert!(burst >= rate, "shaping burst below rate wastes refill");
        self.shape_rate = rate;
        self.shape_burst = burst;
        self
    }

    /// Whether token-bucket shaping is in force.
    pub fn shaped(&self) -> bool {
        self.shape_rate > 0
    }

    /// The shaping refill rate in bytes per flush (`0` when off).
    pub fn shape_rate(&self) -> u64 {
        self.shape_rate
    }

    fn in_partition(&self, index: u64) -> bool {
        self.partitions
            .iter()
            .any(|&(from, to)| (from..to).contains(&index))
    }

    fn in_active(&self, index: u64) -> bool {
        (self.active_from..self.active_to).contains(&index)
    }

    /// Whether the plan is *only* a deterministic drop policy — the
    /// Theorem 5.1 test shape — enabling the run-preserving fast path
    /// in `send_run_owned`.
    fn pure_drop(&self) -> bool {
        self.loss_ppm == 0
            && self.corrupt_ppm == 0
            && self.duplicate_ppm == 0
            && self.reorder_ppm == 0
            && self.jitter_ppm == 0
            && self.partitions.is_empty()
            && self.shape_rate == 0
    }
}

/// Counters for every event the chaos layer injected.
///
/// The data-frame drop counters partition the offered data frames
/// (fates are exclusive), so for a quiesced link with an empty hold
/// queue: `seen_data == forwarded + dropped_loss +
/// dropped_partition_data + dropped_shaped + dropped_release`, where
/// `forwarded` frames all reached the inner link (corrupted and
/// duplicated ones included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// Data frames offered to the wrapper.
    pub seen_data: u64,
    /// Control frames offered to the wrapper.
    pub seen_control: u64,
    /// Data frames swallowed by the loss models (policy + Bernoulli).
    pub dropped_loss: u64,
    /// Frames (data *and* control) swallowed by partition windows.
    pub dropped_partition: u64,
    /// The data frames among
    /// [`dropped_partition`](Self::dropped_partition).
    pub dropped_partition_data: u64,
    /// Data frames the token-bucket policer could not cover.
    pub dropped_shaped: u64,
    /// Data-frame wire bytes the policer let through (carried load —
    /// the shaping ground truth the estimator should converge to).
    pub shaped_bytes: u64,
    /// Data frames forwarded with one body bit flipped.
    pub corrupted: u64,
    /// Data frames forwarded twice.
    pub duplicated: u64,
    /// Data frames held back for reordering.
    pub reordered: u64,
    /// Data frames held back by a jitter spike.
    pub jittered: u64,
    /// Held frames since released to the inner link.
    pub released: u64,
    /// Held frames the inner link refused at release time (lost).
    pub dropped_release: u64,
}

impl ChaosSnapshot {
    /// All frames the chaos layer destroyed (never reached the wire).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_shaped + self.dropped_release
    }
}

/// A frame held back by reorder/jitter: released once `hold` more
/// send/flush ticks have elapsed.
#[derive(Debug)]
struct Held {
    buf: Vec<u8>,
    hold: u32,
}

/// The fate the plan assigns one data frame.
enum Fate {
    Forward,
    DropLoss,
    DropPartition,
    DropShaped,
    Corrupt,
    Duplicate,
    Hold { ticks: u32, jitter: bool },
}

/// A [`DatagramLink`] wrapper injecting the impairments of a
/// [`ChaosPlan`] on the send side, deterministically from a seed.
///
/// Receive-side calls pass straight through: impairing one direction is
/// enough when each test owns both ends, and it keeps cause and effect
/// legible — every injected event happened at a known send index.
#[derive(Debug)]
pub struct ImpairedLink<L: DatagramLink> {
    inner: L,
    plan: ChaosPlan,
    rng: DetRng,
    held: VecDeque<Held>,
    spare: Vec<Vec<u8>>,
    /// Result slot of the one-frame owned runs (see `send_inner`).
    run_out: Vec<Result<(), TxError>>,
    stats: ChaosSnapshot,
    /// Token-bucket credit in bytes (shaping only; starts at burst).
    tokens: u64,
    /// Scripted total partition, control included (see
    /// [`ImpairedLink::partition_now`]). Orthogonal to the plan's
    /// frame-indexed windows so a harness can flip it mid-run without
    /// knowing the current send index.
    blackout: bool,
}

impl<L: DatagramLink> ImpairedLink<L> {
    /// Wrap `inner` under `plan`; `seed` drives every probabilistic
    /// draw, so equal seeds replay equal impairment sequences.
    pub fn new(inner: L, plan: ChaosPlan, seed: u64) -> Self {
        let tokens = plan.shape_burst;
        Self {
            inner,
            plan,
            rng: DetRng::new(seed),
            held: VecDeque::new(),
            spare: Vec::new(),
            run_out: Vec::new(),
            stats: ChaosSnapshot::default(),
            tokens,
            blackout: false,
        }
    }

    /// Start a total partition *now*: every subsequent frame — control
    /// included — is swallowed (counted as `dropped_partition`) until
    /// [`ImpairedLink::heal`]. Unlike [`ChaosPlan::partition`] this is
    /// keyed on wall-clock script order rather than the data-frame send
    /// index, which freezes the moment the membership mask drops the
    /// channel — exactly when a correlated-blackout script needs to
    /// keep the dark window open.
    pub fn partition_now(&mut self) {
        self.blackout = true;
    }

    /// Lift a scripted partition started by
    /// [`ImpairedLink::partition_now`].
    pub fn heal(&mut self) {
        self.blackout = false;
    }

    /// Whether a scripted total partition is in force.
    pub fn blacked_out(&self) -> bool {
        self.blackout
    }

    /// Everything injected so far.
    pub fn snapshot(&self) -> ChaosSnapshot {
        self.stats
    }

    /// The plan in force.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Swap the plan in force, keeping counters, RNG state, and the
    /// hold queue. This is how a harness scripts *timed* impairments
    /// the frame-indexed windows can't express — e.g. a flap soak
    /// partitioning a channel whose data-frame index froze when the
    /// membership mask dropped it, then lifting the partition to let
    /// the lifecycle machine probe its way back.
    pub fn set_plan(&mut self, plan: ChaosPlan) {
        // A plan swap refills the bucket to the new burst: scripted
        // rate changes start from a deterministic, full-credit state.
        self.tokens = plan.shape_burst;
        self.plan = plan;
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Mutable access to the wrapped link.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }

    /// Frames currently parked in the reorder/jitter hold queue.
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }

    /// Force-release every held frame in queue order, retrying inner
    /// backpressure a bounded number of times; stragglers are counted
    /// as `dropped_release`. Call at end of test so the conservation
    /// accounting closes with an empty hold queue.
    pub fn drain_held(&mut self) {
        for _ in 0..DRAIN_RETRIES {
            if self.held.is_empty() {
                break;
            }
            for h in &mut self.held {
                h.hold = 1;
            }
            self.tick_held();
            self.inner.flush();
        }
        while let Some(h) = self.held.pop_front() {
            self.stats.dropped_release += 1;
            self.recycle(h.buf);
        }
    }

    fn take_spare(&mut self, cap: usize) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.reserve(cap);
        buf
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.spare.len() < SPARE_POOL_CAP {
            self.spare.push(buf);
        }
    }

    /// Bernoulli draw at `ppm` parts per million.
    fn chance_ppm(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.range_u64(0, PPM_SCALE as u64) < ppm as u64
    }

    fn fate_for_data(&mut self, index: u64, wire_len: usize) -> Fate {
        if self.plan.in_partition(index) {
            return Fate::DropPartition;
        }
        if self.plan.loss.drops(index) {
            return Fate::DropLoss;
        }
        if self.plan.shaped() {
            // Policer: a frame the bucket cannot cover is congestive
            // loss; a covered frame spends its wire bytes even if a
            // later fate corrupts or holds it — it transits the link
            // either way.
            if self.tokens < wire_len as u64 {
                return Fate::DropShaped;
            }
            self.tokens -= wire_len as u64;
            self.stats.shaped_bytes += wire_len as u64;
        }
        if !self.plan.in_active(index) {
            return Fate::Forward;
        }
        if self.chance_ppm(self.plan.loss_ppm) {
            return Fate::DropLoss;
        }
        if self.chance_ppm(self.plan.corrupt_ppm) {
            return Fate::Corrupt;
        }
        if self.chance_ppm(self.plan.duplicate_ppm) {
            return Fate::Duplicate;
        }
        if self.chance_ppm(self.plan.reorder_ppm) {
            let depth = self.plan.reorder_depth as u64;
            let ticks = self.rng.range_u64(1, depth + 1) as u32;
            return Fate::Hold {
                ticks,
                jitter: false,
            };
        }
        if self.chance_ppm(self.plan.jitter_ppm) {
            return Fate::Hold {
                ticks: self.plan.jitter_hold,
                jitter: true,
            };
        }
        Fate::Forward
    }

    /// Hand one frame to the inner link: now, or (`deferred`) parked
    /// behind its queued burst as a one-frame owned run of a spare copy.
    fn send_inner(&mut self, frame: &[u8], deferred: bool) -> Result<(), TxError> {
        if !deferred {
            return self.inner.send_frame(frame);
        }
        let mut buf = self.take_spare(frame.len());
        buf.extend_from_slice(frame);
        self.run_out.clear();
        self.inner
            .send_run_owned(std::slice::from_mut(&mut buf), &mut self.run_out);
        self.recycle(buf);
        self.run_out[0]
    }

    /// Age the hold queue by one tick and release everything due, in
    /// queue order. Inner backpressure re-holds the frame for one more
    /// tick; any other refusal loses it (counted).
    fn tick_held(&mut self) {
        if self.held.is_empty() {
            return;
        }
        for h in &mut self.held {
            h.hold = h.hold.saturating_sub(1);
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].hold > 0 {
                i += 1;
                continue;
            }
            let h = self.held.remove(i).expect("index in bounds");
            match self.inner.send_frame(&h.buf) {
                Ok(()) => {
                    self.stats.released += 1;
                    self.recycle(h.buf);
                }
                Err(TxError::QueueFull) => {
                    self.held.insert(i, Held { hold: 1, ..h });
                    i += 1;
                }
                Err(_) => {
                    self.stats.dropped_release += 1;
                    self.recycle(h.buf);
                }
            }
        }
    }

    /// Apply the plan to one frame. Does *not* tick the hold queue —
    /// the public entry points do that exactly once per call.
    fn offer(&mut self, frame: &[u8], deferred: bool) -> Result<(), TxError> {
        if !is_data_frame(frame) {
            self.stats.seen_control += 1;
            if self.blackout || self.plan.in_partition(self.stats.seen_data) {
                self.stats.dropped_partition += 1;
                return Ok(());
            }
            return self.send_inner(frame, deferred);
        }
        let index = self.stats.seen_data;
        self.stats.seen_data += 1;
        if self.blackout {
            self.stats.dropped_partition += 1;
            self.stats.dropped_partition_data += 1;
            return Ok(());
        }
        match self.fate_for_data(index, frame.len()) {
            Fate::Forward => self.send_inner(frame, deferred),
            Fate::DropLoss => {
                // Swallowed in flight: the sender sees success, nothing
                // arrives — indistinguishable from network loss.
                self.stats.dropped_loss += 1;
                Ok(())
            }
            Fate::DropPartition => {
                self.stats.dropped_partition += 1;
                self.stats.dropped_partition_data += 1;
                Ok(())
            }
            Fate::DropShaped => {
                self.stats.dropped_shaped += 1;
                Ok(())
            }
            Fate::Corrupt => {
                let mut buf = self.take_spare(frame.len());
                buf.extend_from_slice(frame);
                // Flip one body bit; if the body is empty, hit the
                // magic byte instead — still caught, as malformed.
                if buf.len() > FRAME_HEADER_LEN {
                    let span = buf.len() - FRAME_HEADER_LEN;
                    let bit = self.rng.range_u64(0, (span * 8) as u64) as usize;
                    buf[FRAME_HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
                } else {
                    buf[0] ^= 1;
                }
                self.stats.corrupted += 1;
                let res = self.send_inner(&buf, deferred);
                self.recycle(buf);
                res
            }
            Fate::Duplicate => {
                self.stats.duplicated += 1;
                let res = self.send_inner(frame, deferred);
                if res.is_ok() {
                    // Second copy is best-effort: if the inner queue is
                    // full the duplicate just doesn't happen.
                    let _ = self.send_inner(frame, deferred);
                }
                res
            }
            Fate::Hold { ticks, jitter } => {
                if frame.len() > self.inner.mtu() {
                    // Let the inner link report TooBig now rather than
                    // at release, when the caller is gone.
                    return self.send_inner(frame, deferred);
                }
                let mut buf = self.take_spare(frame.len());
                buf.extend_from_slice(frame);
                self.held.push_back(Held { buf, hold: ticks });
                if jitter {
                    self.stats.jittered += 1;
                } else {
                    self.stats.reordered += 1;
                }
                Ok(())
            }
        }
    }
}

impl<L: DatagramLink> DatagramLink for ImpairedLink<L> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        self.tick_held();
        self.offer(frame, false)
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        self.tick_held();
        out.reserve(frames.len());
        if self.blackout || !self.plan.pure_drop() {
            // General plans resolve a fate per frame; storage is never
            // taken (the contract allows taking none) — held and
            // corrupted frames are copied into recycled spares.
            for frame in frames.iter() {
                let res = self.offer(frame, true);
                out.push(res);
            }
            return;
        }
        // Pure-drop fast path: apply the policy
        // per frame, but forward maximal *kept* sub-runs to the inner
        // link in single calls so the zero-copy deferred batching
        // survives the wrapper. Dropped frames report Ok(()) in place
        // and leave their storage untouched — indistinguishable from
        // network loss, exactly like send_frame.
        let n = frames.len();
        let mut i = 0;
        while i < n {
            if is_data_frame(&frames[i]) && self.plan.loss.drops(self.stats.seen_data) {
                self.stats.seen_data += 1;
                self.stats.dropped_loss += 1;
                out.push(Ok(()));
                i += 1;
                continue;
            }
            // Extend the kept sub-run, consuming data indices as we go,
            // up to (not including) the next dropped data frame.
            let mut j = i;
            loop {
                if is_data_frame(&frames[j]) {
                    self.stats.seen_data += 1;
                } else {
                    self.stats.seen_control += 1;
                }
                j += 1;
                if j >= n
                    || (is_data_frame(&frames[j]) && self.plan.loss.drops(self.stats.seen_data))
                {
                    break;
                }
            }
            self.inner.send_run_owned(&mut frames[i..j], out);
            i = j;
        }
    }

    fn recv_window(&self) -> usize {
        self.inner.recv_window()
    }

    fn recv_trains(&mut self, windows: &mut [&mut [u8]], trains: &mut [Train]) -> usize {
        self.inner.recv_trains(windows, trains)
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        self.inner.recv_frame(buf)
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn coalesce_hint(&self) -> bool {
        self.inner.coalesce_hint()
    }

    fn flush(&mut self) -> usize {
        self.tick_held();
        // Refill the shaping bucket: flush is the wrapper's pump-cadence
        // clock (once per server pump / reactor poll), so `rate` is
        // "bytes of capacity per pump" — deterministic, no wall clock.
        if self.plan.shaped() {
            self.tokens = (self.tokens + self.plan.shape_rate).min(self.plan.shape_burst);
        }
        self.inner.flush()
    }

    fn backlog(&self) -> usize {
        self.inner.backlog() + self.held.len()
    }

    fn link_dead(&self) -> bool {
        self.inner.link_dead()
    }

    fn revive(&mut self) -> bool {
        // Revival is the inner link's problem — the impairment plan
        // (and its deterministic RNG state) survives the socket swap,
        // so a rejoined channel flows straight back into the same
        // chaos schedule.
        self.inner.revive()
    }

    fn tx_evidence(&self) -> Option<stripe_link::TxEvidence> {
        if !self.plan.shaped() {
            // Transparent for capacity purposes: the inner link's
            // counters (if any) are the best evidence, but the chaos
            // layer's own drops are real carried-traffic loss.
            return self.inner.tx_evidence().map(|mut ev| {
                ev.dropped += self.stats.dropped_total();
                ev
            });
        }
        // Shaped: the policer knows the carried load exactly — this is
        // the ground truth the estimator must converge to. Only *data*
        // frames come off `seen_data`: a partition swallows control
        // frames too, and those were never counted in.
        let s = &self.stats;
        Some(stripe_link::TxEvidence {
            frames: s.seen_data - s.dropped_loss - s.dropped_partition_data - s.dropped_shaped,
            bytes: s.shaped_bytes,
            dropped: s.dropped_total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_control_into, encode_data_into, encode_data_summed_into};
    use stripe_core::control::Control;
    use stripe_link::datagram_pair;

    fn data_frame(byte: u8) -> Vec<u8> {
        let mut f = Vec::new();
        encode_data_into(&[byte, byte, byte, byte], &mut f);
        f
    }

    fn drain<L: DatagramLink>(rx: &mut L) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 512];
        let mut got = Vec::new();
        while let Some(n) = rx.recv_frame(&mut buf) {
            got.push(buf[..n].to_vec());
        }
        got
    }

    #[test]
    fn none_plan_is_transparent() {
        let (a, mut b) = datagram_pair(256, 64);
        let mut link = ImpairedLink::new(a, ChaosPlan::none(), 1);
        for i in 0..10u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        assert_eq!(drain(&mut b).len(), 10);
        let s = link.snapshot();
        assert_eq!(s.seen_data, 10);
        assert_eq!(s.dropped_total(), 0);
        assert_eq!(s.corrupted + s.duplicated + s.reordered + s.jittered, 0);
    }

    fn last_bytes<L: DatagramLink>(rx: &mut L) -> Vec<u8> {
        drain(rx).iter().map(|f| *f.last().unwrap()).collect()
    }

    #[test]
    fn window_policy_drops_exactly_the_window() {
        let (a, mut b) = datagram_pair(256, 64);
        let plan = ChaosPlan::none().loss(DropPolicy::Window { from: 2, to: 4 });
        let mut link = ImpairedLink::new(a, plan, 0);
        for i in 0..6u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        assert_eq!(link.snapshot().dropped_loss, 2);
        assert_eq!(last_bytes(&mut b), vec![0, 1, 4, 5]);
    }

    #[test]
    fn control_frames_pass_through_the_window() {
        let (a, mut b) = datagram_pair(256, 64);
        let plan = ChaosPlan::none().loss(DropPolicy::Window { from: 0, to: 100 });
        let mut link = ImpairedLink::new(a, plan, 0);
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 5 }, &mut ctl);
        link.send_frame(&ctl).unwrap();
        link.send_frame(&data_frame(1)).unwrap();
        assert_eq!(drain(&mut b), vec![ctl], "control arrives, data does not");
        let s = link.snapshot();
        assert_eq!((s.dropped_loss, s.seen_data, s.seen_control), (1, 1, 1));
    }

    /// A mark riding inside a data frame changes nothing the loss models
    /// see: frames of the mark-field kinds are data, so a stream whose
    /// marks ride their data loses exactly the data frames a stream with
    /// the same marks as marker frames loses — same indices, same seed.
    #[test]
    fn loss_falls_on_the_same_data_frames_wherever_the_marks_ride() {
        use crate::frame::{
            encode_control_flow_into, encode_data_flow_into, encode_data_markable_flow_into,
            write_mark,
        };
        use stripe_core::sched::ChannelMark;
        use stripe_core::Marker;
        let plans = [
            ChaosPlan::none().loss(DropPolicy::Periodic { period: 3 }),
            ChaosPlan::none().loss_bernoulli(300_000),
        ];
        for plan in plans {
            let mut survivors = Vec::new();
            for carried in [false, true] {
                let (a, mut b) = datagram_pair(512, 256);
                let mut link = ImpairedLink::new(a, plan.clone(), 42);
                let mut run = Vec::new();
                for i in 0..60u8 {
                    let mark = ChannelMark {
                        round: i as u64,
                        dc: 1,
                    };
                    let mut f = Vec::new();
                    match (i % 4 == 0, carried) {
                        (true, true) => {
                            encode_data_markable_flow_into(1, &[i; 300], &mut f);
                            assert!(write_mark(&mut f, mark));
                        }
                        (true, false) => {
                            let ctl = Control::Marker(Marker::sync(0, mark));
                            encode_control_flow_into(1, &ctl, &mut f);
                            run.push(std::mem::take(&mut f));
                            encode_data_flow_into(1, &[i; 300], &mut f);
                        }
                        (false, true) => encode_data_markable_flow_into(1, &[i; 300], &mut f),
                        (false, false) => encode_data_flow_into(1, &[i; 300], &mut f),
                    }
                    run.push(f);
                }
                // Half per frame, half as one run: both entry points.
                let half = run.len() / 2;
                let (head, tail) = run.split_at_mut(half);
                for f in head.iter() {
                    link.send_frame(f).unwrap();
                }
                link.send_run_owned(tail, &mut Vec::new());
                let s = link.snapshot();
                assert_eq!(s.seen_data, 60);
                assert_eq!(s.seen_control, if carried { 0 } else { 15 });
                let data: Vec<u8> = drain(&mut b)
                    .iter()
                    .filter(|f| is_data_frame(f))
                    .map(|f| *f.last().unwrap())
                    .collect();
                assert_eq!(data.len() as u64, 60 - s.dropped_loss);
                survivors.push(data);
            }
            assert!(survivors[0].len() < 60, "the plan must lose something");
            assert_eq!(survivors[0], survivors[1]);
        }
    }

    #[test]
    fn periodic_policy_drops_every_nth() {
        let (a, mut b) = datagram_pair(256, 64);
        let plan = ChaosPlan::none().loss(DropPolicy::Periodic { period: 3 });
        let mut link = ImpairedLink::new(a, plan, 0);
        for i in 0..9u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        assert_eq!(link.snapshot().dropped_loss, 3);
        assert_eq!(last_bytes(&mut b), vec![0, 1, 3, 4, 6, 7]);
    }

    /// The pure-drop fast path in `send_run_owned` applies the same
    /// policy, frame for frame, as the per-frame entry point.
    #[test]
    fn send_run_owned_pure_drop_matches_per_frame() {
        let make_frames = || {
            let mut frames: Vec<Vec<u8>> = (0..9u8).map(data_frame).collect();
            let mut ctl = Vec::new();
            encode_control_into(&Control::Probe { nonce: 5 }, &mut ctl);
            frames.insert(4, ctl);
            frames
        };
        let plan = || ChaosPlan::none().loss(DropPolicy::Periodic { period: 3 });
        let (a1, mut b1) = datagram_pair(256, 64);
        let (a2, mut b2) = datagram_pair(256, 64);
        let mut per_frame = ImpairedLink::new(a1, plan(), 0);
        let mut batched = ImpairedLink::new(a2, plan(), 0);
        let out_ref: Vec<_> = make_frames()
            .iter()
            .map(|f| per_frame.send_frame(f))
            .collect();
        let mut owned = make_frames();
        let mut out = Vec::new();
        batched.send_run_owned(&mut owned, &mut out);
        assert_eq!(out, out_ref);
        assert_eq!(batched.snapshot(), per_frame.snapshot());
        assert_eq!(batched.snapshot().dropped_loss, 3);
        // Byte-identical survivor streams, in order.
        assert_eq!(drain(&mut b1), drain(&mut b2));
    }

    #[test]
    fn same_seed_replays_the_same_impairments() {
        let plan = || {
            ChaosPlan::none()
                .loss_bernoulli(200_000)
                .corrupt(100_000)
                .duplicate(100_000)
                .reorder(100_000, 3)
        };
        let run = |seed: u64| {
            let (a, mut b) = datagram_pair(256, 4096);
            let mut link = ImpairedLink::new(a, plan(), seed);
            for i in 0..200u8 {
                link.send_frame(&data_frame(i)).unwrap();
            }
            link.drain_held();
            (link.snapshot(), drain(&mut b))
        };
        let (s1, got1) = run(42);
        let (s2, got2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(got1, got2);
        let (s3, _) = run(43);
        assert_ne!(s1, s3, "different seed should impair differently");
    }

    #[test]
    fn bernoulli_loss_rate_is_roughly_right() {
        let (a, _b) = datagram_pair(2048, 1 << 15);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().loss_bernoulli(300_000), 7);
        for i in 0..10_000u32 {
            link.send_frame(&data_frame(i as u8)).unwrap();
        }
        let lost = link.snapshot().dropped_loss;
        assert!((2_600..=3_400).contains(&lost), "lost {lost}");
    }

    #[test]
    fn reorder_holds_then_releases_everything() {
        let (a, mut b) = datagram_pair(256, 4096);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().reorder(500_000, 4), 3);
        const N: usize = 100;
        for i in 0..N {
            link.send_frame(&data_frame(i as u8)).unwrap();
        }
        link.drain_held();
        assert_eq!(link.held_frames(), 0);
        let got = drain(&mut b);
        assert_eq!(got.len(), N, "reorder must never lose frames");
        let s = link.snapshot();
        assert!(s.reordered > 0, "plan at 50% must reorder something");
        assert_eq!(s.released, s.reordered);
        // The arrival order is a permutation of the send order.
        let mut seen: Vec<u8> = got.iter().map(|f| f[FRAME_HEADER_LEN]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..N as u8).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_actually_reorders() {
        let (a, mut b) = datagram_pair(256, 4096);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().reorder(300_000, 4), 11);
        for i in 0..100u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        link.drain_held();
        let order: Vec<u8> = drain(&mut b).iter().map(|f| f[FRAME_HEADER_LEN]).collect();
        let sorted = {
            let mut s = order.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(order, sorted, "expected at least one inversion");
    }

    #[test]
    fn duplicates_arrive_twice() {
        let (a, mut b) = datagram_pair(256, 4096);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().duplicate(500_000), 5);
        for i in 0..100u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        let s = link.snapshot();
        assert!(s.duplicated > 0);
        assert_eq!(drain(&mut b).len() as u64, 100 + s.duplicated);
    }

    #[test]
    fn corruption_flips_exactly_one_body_bit() {
        let (a, mut b) = datagram_pair(256, 4096);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().corrupt(PPM_SCALE), 9);
        let mut sent = Vec::new();
        encode_data_summed_into(&[0xAA; 32], &mut sent);
        link.send_frame(&sent).unwrap();
        assert_eq!(link.snapshot().corrupted, 1);
        let got = drain(&mut b);
        assert_eq!(got.len(), 1, "corrupted frames are forwarded, not dropped");
        let diff: u32 = sent
            .iter()
            .zip(&got[0])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(&got[0][..FRAME_HEADER_LEN], &sent[..FRAME_HEADER_LEN]);
        use crate::frame::{try_decode, DecodeError};
        assert_eq!(
            try_decode(&got[0]),
            Err(DecodeError::Corrupt),
            "checksummed decode must catch the flip"
        );
    }

    #[test]
    fn partition_drops_control_too() {
        let (a, mut b) = datagram_pair(256, 4096);
        let mut link = ImpairedLink::new(a, ChaosPlan::none().partition(2, 4), 1);
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 1 }, &mut ctl);
        link.send_frame(&data_frame(0)).unwrap(); // index 0: passes
        link.send_frame(&data_frame(1)).unwrap(); // index 1: passes
        link.send_frame(&data_frame(2)).unwrap(); // index 2: dark
        link.send_frame(&ctl).unwrap(); // control during partition: dark
        link.send_frame(&data_frame(3)).unwrap(); // index 3: dark
        link.send_frame(&ctl).unwrap(); // control after: passes
        link.send_frame(&data_frame(4)).unwrap(); // index 4: passes
        let s = link.snapshot();
        assert_eq!(s.dropped_partition, 3);
        assert_eq!(drain(&mut b).len(), 4);
    }

    #[test]
    fn active_window_quiesces_probabilistic_chaos() {
        let (a, mut b) = datagram_pair(2048, 1 << 15);
        let plan = ChaosPlan::none().loss_bernoulli(PPM_SCALE).active(0, 50);
        let mut link = ImpairedLink::new(a, plan, 2);
        for i in 0..100u8 {
            link.send_frame(&data_frame(i)).unwrap();
        }
        assert_eq!(link.snapshot().dropped_loss, 50);
        let got = drain(&mut b);
        assert_eq!(got.len(), 50, "everything after the window survives");
        assert!(got.iter().all(|f| f[FRAME_HEADER_LEN] >= 50));
    }

    #[test]
    fn send_run_owned_matches_per_frame_for_general_plans() {
        let plan = || {
            ChaosPlan::none()
                .loss_bernoulli(150_000)
                .corrupt(100_000)
                .duplicate(100_000)
        };
        let make = || (0..50u8).map(data_frame).collect::<Vec<_>>();
        let (a1, mut b1) = datagram_pair(256, 4096);
        let (a2, mut b2) = datagram_pair(256, 4096);
        let mut per_frame = ImpairedLink::new(a1, plan(), 77);
        let mut batched = ImpairedLink::new(a2, plan(), 77);
        for f in &make() {
            per_frame.send_frame(f).unwrap();
        }
        let mut owned = make();
        let mut out = Vec::new();
        batched.send_run_owned(&mut owned, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(per_frame.snapshot(), batched.snapshot());
        assert_eq!(drain(&mut b1), drain(&mut b2));
        // Storage untouched for the general path.
        assert!(owned.iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn shaping_polices_to_the_bucket() {
        let (a, mut b) = datagram_pair(256, 4096);
        let frame = data_frame(0);
        let wire = frame.len() as u64;
        // Bucket of exactly 3 frames, refill of 2 frames per flush.
        let plan = ChaosPlan::none().shape(2 * wire, 3 * wire);
        let mut link = ImpairedLink::new(a, plan, 1);
        for _ in 0..10 {
            link.send_frame(&frame).unwrap();
        }
        let s = link.snapshot();
        assert_eq!(s.dropped_shaped, 7, "burst of 3 passes, rest policed");
        assert_eq!(s.shaped_bytes, 3 * wire);
        assert_eq!(drain(&mut b).len(), 3);
        // One flush refills 2 frames of credit; the next burst carries
        // exactly 2 more.
        link.flush();
        for _ in 0..10 {
            link.send_frame(&frame).unwrap();
        }
        let s = link.snapshot();
        assert_eq!(s.dropped_shaped, 7 + 8);
        assert_eq!(s.shaped_bytes, 5 * wire);
        assert_eq!(drain(&mut b).len(), 2);
        assert_eq!(s.seen_data, 20);
        assert_eq!(s.dropped_total(), 15);
    }

    #[test]
    fn shaping_exempts_control_frames() {
        let (a, mut b) = datagram_pair(256, 4096);
        let frame = data_frame(0);
        let plan = ChaosPlan::none().shape(1, frame.len() as u64);
        let mut link = ImpairedLink::new(a, plan, 1);
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 7 }, &mut ctl);
        link.send_frame(&frame).unwrap(); // spends the whole bucket
        link.send_frame(&frame).unwrap(); // policed
        for _ in 0..5 {
            link.send_frame(&ctl).unwrap(); // control rides free
        }
        let s = link.snapshot();
        assert_eq!(s.dropped_shaped, 1);
        assert_eq!(s.seen_control, 5);
        assert_eq!(drain(&mut b).len(), 6, "1 data + 5 control arrive");
    }

    /// A partition swallows control frames too, but only the data frames
    /// it swallowed come off the carried-frame count — probes sent into
    /// a blacked-out shaped link must not push the evidence below zero.
    #[test]
    fn shaped_evidence_survives_control_frames_lost_to_a_partition() {
        let (a, mut b) = datagram_pair(256, 4096);
        let frame = data_frame(0);
        let wire = frame.len() as u64;
        let plan = ChaosPlan::none().shape(4 * wire, 4 * wire);
        let mut link = ImpairedLink::new(a, plan, 1);
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 7 }, &mut ctl);
        link.send_frame(&frame).unwrap(); // carried
        link.partition_now();
        link.send_frame(&frame).unwrap(); // swallowed
        for _ in 0..3 {
            link.send_frame(&ctl).unwrap(); // swallowed too
        }
        link.heal();
        let s = link.snapshot();
        assert_eq!((s.dropped_partition, s.dropped_partition_data), (4, 1));
        assert_eq!(
            link.tx_evidence(),
            Some(stripe_link::TxEvidence {
                frames: 1,
                bytes: wire,
                dropped: 4,
            })
        );
        assert_eq!(drain(&mut b).len(), 1);
    }

    #[test]
    fn asymmetric_shaping_reproduces_capacity_split() {
        // Two links, 2:1 rates, identical offered load and flush
        // cadence: carried bytes must split exactly 2:1 once past the
        // initial burst transient.
        let frame = data_frame(0);
        let wire = frame.len() as u64;
        let carried = |rate_frames: u64| {
            let (a, _b) = datagram_pair(256, 1 << 14);
            let plan = ChaosPlan::none().shape(rate_frames * wire, rate_frames * wire);
            let mut link = ImpairedLink::new(a, plan, 1);
            for _ in 0..100 {
                for _ in 0..8 {
                    link.send_frame(&frame).unwrap();
                }
                link.flush();
            }
            link.snapshot().shaped_bytes
        };
        let fast = carried(4);
        let slow = carried(2);
        assert_eq!(fast, slow * 2, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn send_run_owned_shapes_like_per_frame() {
        let frame_len = data_frame(0).len() as u64;
        let plan = || ChaosPlan::none().shape(2 * frame_len, 3 * frame_len);
        let make = || (0..20u8).map(data_frame).collect::<Vec<_>>();
        let (a1, mut b1) = datagram_pair(256, 4096);
        let (a2, mut b2) = datagram_pair(256, 4096);
        let mut per_frame = ImpairedLink::new(a1, plan(), 3);
        let mut batched = ImpairedLink::new(a2, plan(), 3);
        for f in &make() {
            per_frame.send_frame(f).unwrap();
        }
        let mut owned = make();
        let mut out = Vec::new();
        batched.send_run_owned(&mut owned, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(per_frame.snapshot(), batched.snapshot());
        assert!(per_frame.snapshot().dropped_shaped > 0);
        assert_eq!(drain(&mut b1), drain(&mut b2));
    }

    #[test]
    fn conservation_accounting_closes() {
        let (a, mut b) = datagram_pair(2048, 1 << 15);
        let plan = ChaosPlan::none()
            .loss_bernoulli(100_000)
            .duplicate(50_000)
            .reorder(100_000, 5)
            .partition(200, 240)
            .shape(32, 64);
        let mut link = ImpairedLink::new(a, plan, 13);
        const N: u64 = 1_000;
        for i in 0..N {
            link.send_frame(&data_frame(i as u8)).unwrap();
            if i % 8 == 0 {
                link.flush();
            }
        }
        link.drain_held();
        let s = link.snapshot();
        let arrived = drain(&mut b).len() as u64;
        assert_eq!(s.seen_data, N);
        assert!(
            s.dropped_shaped > 0,
            "plan must exercise the policer: {s:?}"
        );
        assert_eq!(
            arrived,
            N - s.dropped_total() + s.duplicated,
            "sent = delivered - duplicates + counted drops: {s:?}"
        );
    }
}
