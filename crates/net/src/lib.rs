//! Real-socket striping: the simulated SRR datapath running over N
//! kernel UDP sockets.
//!
//! Everything the simulation proved — causal scheduling, logical
//! reception, marker resynchronization, liveness-driven failover — runs
//! here unchanged over real non-blocking sockets. The crate adds only
//! what a real network demands and the simulator abstracted away:
//!
//! - [`frame`] — the canonical on-wire format: a 3-byte header
//!   (magic, version, kind) in front of either a raw payload or a
//!   [`Control`](stripe_core::control::Control) body encoded by the one
//!   shared codec. The simulator's control messages and the wire's are
//!   byte-identical by construction. Version 2 adds a varint flow ID
//!   (a flow's markers; control stays untagged), and version 3 is a
//!   flow's data frame stating its own §5 number; one shared entry point
//!   decodes all three, landing version-1 frames on flow 0.
//! - [`udp`] — [`UdpChannel`], one connected non-blocking UDP socket
//!   per striped channel. One send route: every frame joins a bounded,
//!   buffer-recycling local queue and `flush` submits the queue in
//!   `sendmmsg` batches, absorbing kernel backpressure and recovering
//!   from hard socket errors in one place.
//! - [`server`] — [`StripeServer`], the one send path: thousands of
//!   logical flows (or just one) over one shared channel set, per-flow
//!   state in a slab behind generation-checked [`FlowHandle`]s, DRR
//!   across flows feeding each flow's own causal
//!   [`StripingSender`](stripe_core::sender::StripingSender), frames
//!   encoded once into recycled buffers and handed to the links as
//!   channel-runs in single calls, bounded admission.
//! - [`demux`] — [`FlowDemux`], the one receive path: whole trains
//!   landed by the sockets in pool buffers, flow-tagged frames decoded
//!   in place and routed to per-flow resequencers (each simulating its
//!   own flow's SRR), payload views into those same buffers delivered
//!   FIFO per flow, storage reused once the last view is dropped.
//! - [`reactor`] — [`ServerReactor`], the poll loop around a
//!   [`StripeServer`]: flushes backlogs, sweeps the reverse path, ticks
//!   the failover driver, and revives dead links on a doubling
//!   backoff. No async runtime, no threads, no new dependencies.
//! - [`est`] / [`adapt`] — [`ChannelEstimator`] and [`AdaptiveTuner`]:
//!   per-channel goodput/RTT estimation from transmit evidence and the
//!   control loop that turns it into quanta proposals, which the failover
//!   driver announces as epoch'd live retunes.
//! - [`clock`] — [`WallClock`], mapping `std::time::Instant` onto
//!   [`SimTime`](stripe_netsim::SimTime) nanoseconds so every
//!   timer-driven component runs on either clock.
//! - [`chaos`] — [`ImpairedLink`]/[`ChaosPlan`], the seeded
//!   impairment suite (deterministic [`DropPolicy`] loss for proving
//!   marker recovery, Theorem 5.1, plus Bernoulli loss, reorder,
//!   duplication, corruption, jitter, partitions) with a
//!   [`ChaosSnapshot`] counting every injected event.
//! - [`pool`] — [`TrainPool`]/[`PooledBuf`], the zero-copy,
//!   zero-allocation receive story: reference-counted buffers that are
//!   writable only while no view points into them.
//! - [`sys`] — the linux-gated `sendmmsg`/`recvmmsg` FFI shim (std-only,
//!   two `extern "C"` declarations) with a portable per-frame fallback
//!   behind the same [`BatchIo`](sys::BatchIo) API, and the send planner
//!   that cuts a queue into GSO trains; also `SO_SNDBUF`/`SO_RCVBUF`
//!   configuration and the `/proc/net/udp` kernel-drop estimate.
//! - [`bundle`] — the link-level container that lets short frames ride
//!   a long GSO train, and its one decoder.
//!
//! Steady state, neither direction allocates: the send side reuses its
//! scratch and frame buffers, the receive side lands trains in the same
//! few pool buffers over and over and hands out views into them. The
//! `alloc_counting_net` integration test pins this.

#![warn(missing_docs)]

pub mod adapt;
pub mod bundle;
pub mod chaos;
pub mod clock;
pub mod demux;
pub mod est;
pub mod frame;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod sys;
pub mod udp;

pub use adapt::{AdaptiveConfig, AdaptiveSnapshot, AdaptiveTuner};
pub use chaos::{ChaosPlan, ChaosSnapshot, DropPolicy, ImpairedLink};
pub use clock::WallClock;
pub use demux::{FlowDemux, FlowDemuxBuilder, FlowDemuxSnapshot};
pub use est::{rate_shares, ChannelEstimator, Ewma};
pub use frame::{Frame, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
pub use pool::{BufPool, PooledBuf, TrainPool};
pub use reactor::{membership_announced, Periodic, ReactorSnapshot, ServerReactor};
pub use server::{
    FlowError, FlowHandle, FlowId, FlowSnapshot, PumpEvent, StripeServer, StripeServerBuilder,
    StripeServerSnapshot,
};
pub use sys::BatchIo;
pub use udp::{UdpChannel, UdpChannelBuilder, UdpChannelSnapshot};
