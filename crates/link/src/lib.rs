//! # stripe-link
//!
//! Link-layer channel models for the striping testbed.
//!
//! The paper's channel definition (§2) is deliberately broad: *any* logical
//! FIFO path that can lose or corrupt packets and whose end-to-end skew
//! varies per packet. This crate provides concrete instances matching the
//! paper's own testbed and application domains:
//!
//! - [`eth::EthLink`] — a 10 Mbps-class Ethernet: 1500-byte MTU, 18 bytes of
//!   framing + preamble/IFG overhead, a distinct *type field* codepoint for
//!   markers (exactly the paper's suggestion for marker demultiplexing).
//! - [`atm::AtmPvc`] — a rate-settable ATM permanent virtual circuit with
//!   real AAL5 segmentation: 53-byte cells, 48-byte payloads, 8-byte
//!   trailer; one lost cell kills the whole packet; markers travel as
//!   OAM-style single cells, leaving data cells untouched.
//! - [`serial::SerialLink`] — a low-rate synchronous serial line with HDLC
//!   flag/escape byte stuffing, the natural habitat of BONDING-style
//!   inverse multiplexers.
//! - [`loss::LossModel`] — Bernoulli, Gilbert–Elliott burst, and periodic
//!   deterministic loss processes.
//! - [`host::HostModel`] — per-packet + per-interrupt receive CPU costs with
//!   interrupt coalescing, reproducing the Figure 15 observation that the
//!   upper bound rolls off when "the CPU cannot keep up", and that striping
//!   pays extra interrupt overhead relative to a single hot interface.
//!
//! All links share one contract, [`FifoLink`]: `transmit(now, wire_len)`
//! returns when (and whether) the packet arrives, with FIFO delivery
//! enforced even under per-packet jitter — the jitter reorders *spacing*,
//! never packets, exactly the paper's channel model.
//!
//! Real channels (kernel sockets) cannot be analytic — they move bytes,
//! not arrival predictions — so they implement the sibling contract
//! [`datagram::DatagramLink`] instead; the `stripe-net` crate provides the
//! UDP instance and the event loop that drives it.

#![warn(missing_docs)]

pub mod atm;
pub mod cellstripe;
pub mod datagram;
pub mod eth;
pub mod fault;
pub mod host;
pub mod loss;
pub mod serial;
pub mod wire;

pub use atm::AtmPvc;
pub use cellstripe::CellStripedGroup;
pub use datagram::{datagram_pair, DatagramLink, TestDatagramLink, Train, TxEvidence};
pub use eth::{EthLink, EtherType, ETH_MTU, ETH_OVERHEAD};
pub use fault::{FaultPlan, FaultyLink};
pub use host::HostModel;
pub use loss::LossModel;
pub use serial::SerialLink;

use stripe_netsim::SimTime;

/// Why a transmission did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The transmit queue had no room — the packet never entered the wire.
    QueueFull,
    /// The packet exceeded the link MTU.
    TooBig,
    /// The packet (or one of its cells) was lost or corrupted in flight —
    /// it consumed wire time but never arrives.
    LostInFlight,
    /// The link is administratively or physically down: nothing enters the
    /// wire and nothing arrives (see [`fault::FaultPlan`]).
    LinkDown,
}

/// Result of offering one packet to a link.
pub type TxResult = Result<SimTime, TxError>;

/// One arrival at the far end, as reported by
/// [`FifoLink::transmit_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the packet arrives.
    pub arrival: SimTime,
    /// Whether the payload was corrupted in flight. A corrupted packet
    /// still consumes wire time and still arrives — whether the far end
    /// can detect and discard it is the *receiver's* problem (checksums),
    /// which is exactly why the striping protocol must tolerate it.
    pub corrupted: bool,
}

/// Full fate of one transmission, distinguishing outcomes the plain
/// [`TxResult`] collapses: corruption (arrives damaged) and duplication
/// (arrives twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxFate {
    /// Nothing arrives.
    Lost(TxError),
    /// The packet arrives — possibly damaged, possibly twice.
    Delivered {
        /// The (first) arrival.
        first: Delivery,
        /// A duplicate arrival, when the fault layer duplicates the packet
        /// (e.g. a retransmitting bridge). Always at or after `first`.
        duplicate: Option<Delivery>,
    },
}

impl TxFate {
    /// The first arrival time, if anything arrives at all (damaged or not).
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            TxFate::Lost(_) => None,
            TxFate::Delivered { first, .. } => Some(first.arrival),
        }
    }
}

/// The channel contract of §2: a FIFO path with loss and per-packet skew.
///
/// `transmit` is an *analytic* model: it immediately computes the arrival
/// instant from queue state, serialization time, propagation and jitter,
/// enforcing that arrivals on one link are non-decreasing in time. The
/// experiment's event queue then schedules the arrival event.
pub trait FifoLink {
    /// Offer `wire_len` payload bytes at time `now`. On success returns the
    /// arrival time at the far end.
    fn transmit(&mut self, now: SimTime, wire_len: usize) -> TxResult;

    /// Largest payload the link accepts.
    fn mtu(&self) -> usize;

    /// The instant the transmitter becomes idle (for pacing senders).
    fn busy_until(&self) -> SimTime;

    /// Like [`FifoLink::transmit`], but reporting the full fate of the
    /// packet: corruption and duplication in addition to loss. The default
    /// maps the plain result (clean single delivery or loss); only fault
    /// layers (see [`fault::FaultyLink`]) report the richer outcomes.
    fn transmit_detailed(&mut self, now: SimTime, wire_len: usize) -> TxFate {
        match self.transmit(now, wire_len) {
            Ok(arrival) => TxFate::Delivered {
                first: Delivery {
                    arrival,
                    corrupted: false,
                },
                duplicate: None,
            },
            Err(e) => TxFate::Lost(e),
        }
    }

    /// Offer a run of packets at time `now`, appending one [`TxFate`] per
    /// length to `out` (not cleared — batch callers compose runs). All the
    /// link models are analytic, so a batch is exactly a sequence of
    /// [`transmit_detailed`](FifoLink::transmit_detailed) calls at the same
    /// instant: the queue model serializes them back to back. The default
    /// does precisely that; implementations may only specialize the
    /// mechanics, never the outcomes.
    fn transmit_batch(&mut self, now: SimTime, wire_lens: &[usize], out: &mut Vec<TxFate>) {
        out.reserve(wire_lens.len());
        for &len in wire_lens {
            out.push(self.transmit_detailed(now, len));
        }
    }
}
