//! Unified fault injection: scheduled outages, corruption, duplication.
//!
//! [`crate::loss::LossModel`] covers the *statistical* error processes of
//! §2; the robustness experiments need more: a channel that goes down
//! entirely for a window of time (so liveness detection and membership
//! shrink can be exercised), payloads corrupted in flight, and duplicated
//! deliveries. [`FaultyLink`] wraps any [`FifoLink`] and layers a
//! deterministic [`FaultPlan`] on top of whatever loss the inner link
//! already models — same seed, same faults, every run.
//!
//! Outage semantics: while the plan says the link is down, transmissions
//! consume *no* wire time and nothing arrives ([`TxError::LinkDown`]) —
//! the cable is unplugged, not congested. Packets already accepted before
//! the outage began still arrive (they were in flight). Corruption
//! delivers the packet damaged ([`Delivery::corrupted`]); duplication
//! delivers it twice, back to back, each copy paying its own wire time.

use stripe_netsim::{DetRng, SimTime};

use crate::{Delivery, FifoLink, TxError, TxFate, TxResult};

/// A deterministic schedule of faults for one link.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Outage windows `[from, until)`: transmissions offered inside any
    /// window fail with [`TxError::LinkDown`].
    down: Vec<(SimTime, SimTime)>,
    /// Per-packet probability of corrupting a delivered payload.
    corrupt_p: f64,
    /// Per-packet probability of duplicating a delivered payload.
    dup_p: f64,
}

impl FaultPlan {
    /// A plan with no faults at all (the wrapper becomes transparent).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add an outage window: the link is down from `from` (inclusive) to
    /// `until` (exclusive).
    ///
    /// # Panics
    /// Panics if `until <= from`.
    pub fn down_window(mut self, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "empty outage window");
        self.down.push((from, until));
        self
    }

    /// Corrupt delivered payloads with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.corrupt_p = p;
        self
    }

    /// Duplicate delivered payloads with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.dup_p = p;
        self
    }

    /// Whether the link is inside an outage window at `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.down
            .iter()
            .any(|&(from, until)| t >= from && t < until)
    }
}

/// Counters for what the fault layer actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Transmissions refused because the link was down.
    pub dropped_down: u64,
    /// Deliveries corrupted.
    pub corrupted: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
}

/// A [`FifoLink`] wrapper injecting the faults of a [`FaultPlan`].
///
/// Composes with the inner link's own loss model: the plan's faults apply
/// only to packets the inner link would have delivered.
#[derive(Debug, Clone)]
pub struct FaultyLink<L: FifoLink> {
    inner: L,
    plan: FaultPlan,
    rng: DetRng,
    stats: FaultSnapshot,
}

impl<L: FifoLink> FaultyLink<L> {
    /// Wrap `inner` with `plan`; `seed` drives the corruption/duplication
    /// draws deterministically.
    pub fn new(inner: L, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            plan,
            rng: DetRng::new(seed),
            stats: FaultSnapshot::default(),
        }
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the fault layer has done so far.
    pub fn stats(&self) -> FaultSnapshot {
        self.stats
    }
}

impl<L: FifoLink> FifoLink for FaultyLink<L> {
    fn transmit(&mut self, now: SimTime, wire_len: usize) -> TxResult {
        // The plain interface cannot express corruption or duplication:
        // corrupted packets are reported lost (the far end's checksum will
        // discard them), duplicates are silently dropped.
        match self.transmit_detailed(now, wire_len) {
            TxFate::Lost(e) => Err(e),
            TxFate::Delivered { first, .. } => {
                if first.corrupted {
                    Err(TxError::LostInFlight)
                } else {
                    Ok(first.arrival)
                }
            }
        }
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn busy_until(&self) -> SimTime {
        self.inner.busy_until()
    }

    fn transmit_detailed(&mut self, now: SimTime, wire_len: usize) -> TxFate {
        if self.plan.is_down(now) {
            self.stats.dropped_down += 1;
            return TxFate::Lost(TxError::LinkDown);
        }
        let arrival = match self.inner.transmit(now, wire_len) {
            Ok(t) => t,
            Err(e) => return TxFate::Lost(e),
        };
        let corrupted = self.plan.corrupt_p > 0.0 && self.rng.chance(self.plan.corrupt_p);
        if corrupted {
            self.stats.corrupted += 1;
        }
        let first = Delivery { arrival, corrupted };
        let duplicate = if self.plan.dup_p > 0.0 && self.rng.chance(self.plan.dup_p) {
            // The copy is a real transmission: it pays its own wire time
            // and keeps the link's FIFO arrival order.
            match self.inner.transmit(now, wire_len) {
                Ok(t) => {
                    self.stats.duplicated += 1;
                    Some(Delivery {
                        arrival: t,
                        corrupted: false,
                    })
                }
                Err(_) => None,
            }
        } else {
            None
        };
        TxFate::Delivered { first, duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eth::EthLink;
    use crate::loss::LossModel;
    use stripe_netsim::{Bandwidth, SimDuration};

    fn eth() -> EthLink {
        EthLink::new(
            Bandwidth::mbps(10),
            SimDuration::from_micros(100),
            SimDuration::from_micros(0),
            LossModel::None,
            1,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn no_plan_is_transparent() {
        let mut plain = eth();
        let mut faulty = FaultyLink::new(eth(), FaultPlan::none(), 7);
        for i in 0..50u64 {
            let now = t(i);
            assert_eq!(plain.transmit(now, 500), faulty.transmit(now, 500));
        }
        assert_eq!(faulty.stats(), FaultSnapshot::default());
    }

    #[test]
    fn outage_window_drops_without_wire_time() {
        let plan = FaultPlan::none().down_window(t(10), t(20));
        let mut l = FaultyLink::new(eth(), plan, 7);
        assert!(l.transmit(t(5), 500).is_ok());
        let busy_before = l.busy_until();
        assert_eq!(l.transmit(t(10), 500), Err(TxError::LinkDown));
        assert_eq!(l.transmit(t(15), 500), Err(TxError::LinkDown));
        // Nothing entered the wire during the outage.
        assert_eq!(l.busy_until(), busy_before);
        // The boundary is exclusive: back up at t=20.
        assert!(l.transmit(t(20), 500).is_ok());
        assert_eq!(l.stats().dropped_down, 2);
    }

    #[test]
    fn corruption_is_deterministic_and_flagged() {
        let plan = FaultPlan::none().with_corruption(0.3);
        let mut a = FaultyLink::new(eth(), plan.clone(), 42);
        let mut b = FaultyLink::new(eth(), plan, 42);
        let mut corrupt = 0;
        for i in 0..1000u64 {
            let fa = a.transmit_detailed(t(i), 500);
            let fb = b.transmit_detailed(t(i), 500);
            assert_eq!(fa, fb, "same seed, same fate");
            if let TxFate::Delivered { first, .. } = fa {
                if first.corrupted {
                    corrupt += 1;
                }
            }
        }
        assert!((200..400).contains(&corrupt), "corrupted {corrupt}/1000");
        assert_eq!(a.stats().corrupted, corrupt);
    }

    #[test]
    fn duplicates_arrive_later_and_in_order() {
        let plan = FaultPlan::none().with_duplication(1.0);
        let mut l = FaultyLink::new(eth(), plan, 3);
        let TxFate::Delivered {
            first,
            duplicate: Some(dup),
        } = l.transmit_detailed(t(1), 500)
        else {
            panic!("p=1 must duplicate");
        };
        assert!(dup.arrival > first.arrival, "copy pays its own wire time");
        assert_eq!(l.stats().duplicated, 1);
        // A later packet still arrives after both copies (FIFO holds).
        let next = l.transmit_detailed(t(1), 500).arrival().unwrap();
        assert!(next > dup.arrival);
    }

    #[test]
    fn plain_transmit_hides_corruption_as_loss() {
        let plan = FaultPlan::none().with_corruption(1.0);
        let mut l = FaultyLink::new(eth(), plan, 9);
        assert_eq!(l.transmit(t(0), 500), Err(TxError::LostInFlight));
    }

    #[test]
    fn composes_with_inner_loss_model() {
        let lossy = EthLink::new(
            Bandwidth::mbps(10),
            SimDuration::from_micros(100),
            SimDuration::from_micros(0),
            LossModel::bernoulli(1.0),
            1,
        );
        let mut l = FaultyLink::new(lossy, FaultPlan::none().with_duplication(1.0), 5);
        // Inner loss wins: nothing to corrupt or duplicate.
        assert_eq!(l.transmit(t(0), 500), Err(TxError::LostInFlight));
        assert_eq!(l.stats().duplicated, 0);
    }
}
