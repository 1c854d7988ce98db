//! # stripe-transport
//!
//! Transport substrates for the striping experiments.
//!
//! The paper's Figure 15 measurements ran application traffic "over a TCP
//! connection", and its §6.3 experiments striped packets across UDP
//! sockets with a credit-based flow-control scheme. Neither is incidental:
//!
//! - TCP's congestion control is what *punishes reordering* — out-of-order
//!   arrivals generate duplicate ACKs, three of which trigger a spurious
//!   fast retransmit and a congestion-window collapse. That mechanism is
//!   the entire reason the "no logical reception" curves in Figure 15 fall
//!   below the resequenced ones. [`tcp`] implements a Reno-style TCP-lite
//!   with exactly those mechanisms (slow start, congestion avoidance,
//!   3-dup-ACK fast retransmit/recovery, RTO with Karn's rule) as a
//!   sans-IO state machine drivable from the deterministic simulator.
//! - The credit scheme (Kung & Chapman's FCVC, piggybacked on markers) is
//!   what lets an unreliable datagram channel run loss-free under
//!   overload. [`credit`] implements it.
//! - [`stripe_conn`] glues a `stripe-core` sender/receiver pair onto any
//!   set of [`stripe_link::FifoLink`]s, producing the quasi-FIFO striped
//!   datagram path the §6.3 experiments and the examples use.
//! - [`failover`] drives channel liveness and dynamic membership over that
//!   path: keepalive probes detect a dead member link, the striping set
//!   shrinks to the survivors within one detection timeout, and the
//!   recovered link is reintegrated by the same handshake.

#![warn(missing_docs)]

pub mod credit;
pub mod duplex;
pub mod failover;
pub mod stripe_conn;
pub mod tcp;

pub use credit::{CreditReceiver, CreditSender};
pub use duplex::{DuplexEndpoint, DuplexSend};
pub use failover::{
    flood_announcement, FailoverConfig, FailoverDriver, StripedSink, StripedSinkBuilder,
};
pub use stripe_conn::{
    ControlPath, ControlTransmission, PathSnapshot, StripedPath, StripedPathBuilder, Transmission,
    TxBatch,
};
pub use tcp::{Segment, SegmentSizer, TcpReceiver, TcpSender};
