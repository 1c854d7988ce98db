//! # stripe-core
//!
//! Core algorithms from *"A Reliable and Scalable Striping Protocol"*
//! (Adiseshu, Parulkar, Varghese — SIGCOMM 1996).
//!
//! The paper solves two problems that plague naive link striping:
//!
//! 1. **Load sharing with variable-length packets.** Round-robin striping
//!    assigns *packets*, not *bytes*, so an adversarial size pattern can pile
//!    all the large packets onto one channel. The paper's fix is a
//!    transformation: any *Causal Fair Queuing* (CFQ) algorithm — one whose
//!    queue-selection decision depends only on previously transmitted packets
//!    — can be run "in reverse" as a fair *load-sharing* algorithm with the
//!    same fairness bounds (Theorem 3.1). The flagship instance is
//!    [Surplus Round Robin](sched::Srr) (§3.5).
//!
//! 2. **FIFO delivery without touching packets.** Because the sender's
//!    algorithm is causal, the receiver can *simulate* it: it knows which
//!    channel the next packet logically arrives on, buffers the channels
//!    independently, and blocks on the expected channel
//!    ([logical reception](receiver::LogicalReceiver), §4). Packet loss can
//!    desynchronize the simulation; periodic [marker packets](marker::Marker)
//!    carrying the sender's per-channel state restore synchronization within
//!    roughly one one-way delay (§5), giving *quasi-FIFO* delivery.
//!
//! The crate is organised as:
//!
//! - [`sched`] — the [`sched::CausalScheduler`] trait
//!   (the `(s0, f, g)` characterization of CFQ algorithms) and its
//!   implementations: [`sched::Srr`] (which also subsumes plain
//!   round-robin and the paper's "generalized round robin" GRR) and the
//!   randomized [`Rfq`](sched::Rfq).
//! - [`fq`] — running a causal scheduler in its *original* direction, as a
//!   fair-queuing server over multiple queues. Used to demonstrate the
//!   FQ ⇄ load-sharing duality of §3.
//! - [`sender`] — the striping sender engine: channel selection plus
//!   periodic marker emission.
//! - [`receiver`] — the logical-reception resequencing engine with the
//!   marker-driven skip rule (condition C1 of §5).
//! - [`marker`] — marker packet contents and wire encoding.
//! - [`seqno`] — the "headers allowed" mode of §4: explicit sequence
//!   numbers giving guaranteed FIFO delivery.
//! - [`baselines`] — the competing schemes of §2.1 (shortest-queue-first,
//!   random selection, address hashing, MPPP-style sequence striping,
//!   BONDING-style synchronous inverse multiplexing) used by the Table 1
//!   and Figure 15 comparisons.
//! - [`fairness`] — byte accounting and the Theorem 3.2 / Lemma 3.3 bound.
//! - [`handshake`] — the one epoch'd announce/ack machine (sender,
//!   responder, receiver-side dispatcher) that carries live-mask changes,
//!   quantum retunes and the §5 reset; [`liveness`] decides when a mask
//!   changes, [`membership`] is the mask's wire codec, [`reset`] decides
//!   when to reset, [`control`] frames all of it.
//!
//! ## Quick example
//!
//! ```
//! use stripe_core::sched::Srr;
//! use stripe_core::sender::{StripingSender, MarkerConfig};
//! use stripe_core::receiver::{LogicalReceiver, Arrival};
//! use stripe_core::types::TestPacket;
//!
//! // Three equal channels, 1500-byte quantum each.
//! let sched = Srr::equal(3, 1500);
//! let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(8));
//! let mut rx = LogicalReceiver::new(sched, 1024);
//!
//! let mut delivered = Vec::new();
//! for id in 0..100u64 {
//!     let pkt = TestPacket::new(id, 700 + (id as usize * 131) % 800);
//!     let d = tx.send(pkt.len);
//!     rx.push(d.channel, Arrival::Data(pkt));
//!     for (ch, mk) in d.markers {
//!         rx.push(ch, Arrival::Marker(mk));
//!     }
//!     while let Some(p) = rx.poll() {
//!         delivered.push(p.id);
//!     }
//! }
//! // No loss: logical reception restores exact FIFO order (Theorem 4.1).
//! assert_eq!(delivered, (0..100).collect::<Vec<_>>());
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod control;
pub mod fairness;
pub mod fq;
pub mod handshake;
pub mod hybrid;
pub mod liveness;
pub mod marker;
pub mod membership;
pub mod receiver;
pub mod reset;
pub mod sched;
pub mod sender;
pub mod seqno;
pub mod types;

pub use marker::Marker;
pub use receiver::{Arrival, LogicalReceiver, ReceiverSnapshot, RxBatch};
pub use sched::{CausalScheduler, ChannelMark, QuantumTuner, Sprinkler, Srr};
pub use sender::{MarkerConfig, MarkerPosition, SendDecision, StripingSender};
pub use types::{ChannelId, TestPacket, WireLen};
