//! One set of send buffers: a server's frames go round one loop —
//! server → link → kernel → back to the same server — so every burst is
//! encoded into the storage the burst before it left.
//!
//! A recording link over a real `UdpChannel` notes where the storage of
//! every frame it is handed lies. Bursts shaped as `paced_frames_4flows`
//! sends them — 256 frames of 1200 B over four flows, every frame long
//! enough for the channel to take its storage rather than copy it — go
//! through a `StripeServer`, on the batched and on the per-frame syscall
//! path. After a warm-up, the storage of sixteen bursts lies at no more
//! distinct addresses than one burst has frames. A link that swapped each
//! taken frame for a buffer recycled from the flush before would make the
//! server's frames alternate between two sets: twice as many.

use std::collections::HashSet;

use stripe_core::sched::Srr;
use stripe_link::{DatagramLink, Train, TxError};
use stripe_net::{bundle, PumpEvent, StripeServer, UdpChannel};
use stripe_netsim::SimTime;

const CHANNELS: usize = 4;
const FLOWS: usize = 4;
const BURST: usize = 256;
const PAYLOAD: usize = 1200;
/// Bursts before the measured ones, and the measured ones.
const WARM: usize = 4;
const MEASURED: usize = 16;

/// A channel that records the storage address of every frame a run
/// hands it.
struct Recording {
    inner: UdpChannel,
    seen: Vec<usize>,
}

impl DatagramLink for Recording {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        self.inner.send_frame(frame)
    }
    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        self.seen.extend(frames.iter().map(|f| f.as_ptr() as usize));
        self.inner.send_run_owned(frames, out);
    }
    fn reclaim(&mut self, into: &mut Vec<Vec<u8>>) {
        self.inner.reclaim(into);
    }
    fn flush(&mut self) -> usize {
        self.inner.flush()
    }
    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        self.inner.recv_frame(buf)
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
}

/// Distinct storage addresses of the frames of the measured bursts,
/// with every channel on the per-frame path or not.
fn distinct_storage(fallback: bool) -> usize {
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::builder(1500)
            .rcvbuf(1 << 20)
            .force_fallback(fallback)
            .pair()
            .expect("loopback pair");
        let seen = Vec::new();
        tx.push(Recording { inner: a, seen });
        rx.push(b);
    }
    let mut server: StripeServer<Srr, Recording> = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(tx)
        .build();
    let flows: Vec<_> = (0..FLOWS).map(|_| server.open_flow().unwrap()).collect();
    let payload = [0x5au8; PAYLOAD];
    let mut events: Vec<PumpEvent> = Vec::new();
    let window = rx[0].recv_window();
    let mut room = vec![0u8; 4 * window];
    let mut trains = [Train::default(); 4];
    let mut seen = HashSet::new();
    for burst in 0..WARM + MEASURED {
        for i in 0..BURST {
            server.enqueue(flows[i % FLOWS], &payload).unwrap();
        }
        assert_eq!(
            server.pump_into(SimTime::ZERO, usize::MAX, &mut events),
            BURST
        );
        assert!(events.iter().all(|e| match e {
            PumpEvent::Data { error, .. } => error.is_none(),
            PumpEvent::Marker { .. } => false,
        }));
        assert_eq!(server.backlog(), 0, "a loopback socket takes the burst");
        // Read the burst back before the next one is encoded.
        let (mut got, mut spins) = (0, 0u32);
        while got < BURST {
            for ch in &mut rx {
                let landed = {
                    let mut it = room.chunks_exact_mut(window);
                    let mut windows: [&mut [u8]; 4] =
                        std::array::from_fn(|_| it.next().expect("four windows"));
                    ch.recv_trains(&mut windows, &mut trains)
                };
                got += room
                    .chunks_exact(window)
                    .zip(&trains[..landed])
                    .map(|(w, &t)| bundle::count(w, t))
                    .sum::<usize>();
            }
            spins += 1;
            assert!(spins < 1_000_000, "loopback datagrams went missing");
        }
        assert_eq!(got, BURST);
        for link in server.links_mut() {
            if burst >= WARM {
                seen.extend(link.seen.iter().copied());
            }
            link.seen.clear();
        }
    }
    seen.len()
}

#[test]
fn a_server_sends_from_one_set_of_buffers() {
    for fallback in [false, true] {
        let distinct = distinct_storage(fallback);
        assert_eq!(
            distinct, BURST,
            "{MEASURED} bursts of {BURST} frames from {distinct} buffers \
             (per-frame path: {fallback})"
        );
    }
}
