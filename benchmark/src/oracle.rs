//! The delivery oracle: every packet the stack hands back is checked
//! against what the generator offered.
//!
//! Per delivery: the stamp names the flow it was polled from, the length
//! matches, the fill is the one the stamp implies, and the sequence
//! number is the next one of its flow. On lossless workloads anything
//! else is a violation. On the lossy workload a forward jump opens a gap
//! (a loss, or packets still to come) and a backward step is an
//! *out-of-order delivery* — legal inside the marker recovery window of
//! Theorem 5.1, counted, and checked against a per-flow bitmap so that no
//! packet is ever delivered twice or from further back than the window.
//!
//! The oracle also owns the frame table: a frame (the closed loop's
//! burst, the open loop's video frame) completes when its last packet is
//! delivered, and its latency runs from its *due* time.

use crate::hist::LogHist;
use crate::workload::{Fill, Stamp, Workload, STAMP_LEN};

/// Late deliveries further back than this many sequence numbers are a
/// violation; the bitmap behind the duplicate check is this wide.
const REORDER_WINDOW: u64 = 4096;
/// Frames tracked at once (a ring keyed by frame id).
const FRAME_RING: usize = 1 << 12;

/// What went wrong; the run prints it and exits non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn violation<T>(msg: String) -> Result<T, Violation> {
    Err(Violation(msg))
}

/// Frames in flight: packets still missing and the due time, by frame id.
struct FrameTable {
    frame_of: Vec<u32>,
    missing: Vec<u32>,
    due_ns: Vec<u64>,
}

impl FrameTable {
    fn new() -> Self {
        Self {
            frame_of: vec![u32::MAX; FRAME_RING],
            missing: vec![0; FRAME_RING],
            due_ns: vec![0; FRAME_RING],
        }
    }

    fn start(&mut self, frame: u32, due_ns: u64, pkts: u32) {
        let s = frame as usize % FRAME_RING;
        self.frame_of[s] = frame;
        self.missing[s] = pkts;
        self.due_ns[s] = due_ns;
    }

    /// One packet of `frame` arrived at `now_ns`; the frame's latency if
    /// that was its last. Frames that lost their ring slot to a newer one
    /// (only possible when packets of theirs were lost) are ignored.
    fn delivered(&mut self, frame: u32, now_ns: u64) -> Option<u64> {
        let s = frame as usize % FRAME_RING;
        if self.frame_of[s] != frame || self.missing[s] == 0 {
            return None;
        }
        self.missing[s] -= 1;
        (self.missing[s] == 0).then(|| now_ns.saturating_sub(self.due_ns[s]))
    }
}

/// Totals the oracle keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets handed to `enqueue` and accepted.
    pub offered: u64,
    /// Packets delivered and verified.
    pub delivered: u64,
    /// Of those, delivered in order (sequence moving forward).
    pub in_order: u64,
    /// Of those, delivered behind a later packet of their flow.
    pub out_of_order: u64,
    /// Frames whose last packet has been delivered.
    pub frames_done: u64,
}

/// See the module docs.
pub struct Oracle {
    lossless: bool,
    fill: Fill,
    next_seq: Vec<u64>,
    offered: Vec<u64>,
    delivered: Vec<u64>,
    /// Per flow, `REORDER_WINDOW` bits: sequence numbers seen (lossy
    /// workloads only).
    seen: Vec<u64>,
    frames: FrameTable,
    tally: Tally,
    /// Frame latencies of the current slice (ns from due time).
    pub slice_hist: Box<LogHist>,
}

const WORDS: usize = (REORDER_WINDOW / 64) as usize;

impl Oracle {
    pub fn new(w: &Workload) -> Self {
        Self {
            lossless: !w.lossy,
            fill: Fill::new(),
            next_seq: vec![0; w.flows],
            offered: vec![0; w.flows],
            delivered: vec![0; w.flows],
            seen: if w.lossy {
                vec![0; w.flows * WORDS]
            } else {
                Vec::new()
            },
            frames: FrameTable::new(),
            tally: Tally::default(),
            slice_hist: Box::new(LogHist::new()),
        }
    }

    /// A frame of `pkts` packets is about to be offered.
    pub fn frame_started(&mut self, frame: u32, due_ns: u64, pkts: u32) {
        self.frames.start(frame, due_ns, pkts);
    }

    /// The server accepted one packet of `flow`.
    pub fn offered(&mut self, flow: u32) {
        self.offered[flow as usize] += 1;
        self.tally.offered += 1;
    }

    pub fn tally(&self) -> Tally {
        self.tally
    }

    fn bit(&mut self, flow: usize, seq: u64) -> (&mut u64, u64) {
        let pos = seq % REORDER_WINDOW;
        (
            &mut self.seen[flow * WORDS + (pos / 64) as usize],
            1u64 << (pos % 64),
        )
    }

    /// Check one delivery polled from `flow` at `now_ns`.
    pub fn delivery(&mut self, flow: u32, payload: &[u8], now_ns: u64) -> Result<(), Violation> {
        let Some(st) = Stamp::read(payload) else {
            return violation(format!(
                "flow {flow}: {}-byte delivery holds no stamp",
                payload.len()
            ));
        };
        let f = flow as usize;
        if st.flow != flow {
            return violation(format!(
                "flow {flow}: delivered a packet of flow {}",
                st.flow
            ));
        }
        if st.len as usize != payload.len() {
            return violation(format!(
                "flow {flow} seq {}: offered {} bytes, delivered {}",
                st.seq,
                st.len,
                payload.len()
            ));
        }
        if payload[STAMP_LEN..] != *self.fill.of(st.seq, payload.len()) {
            return violation(format!("flow {flow} seq {}: payload bytes differ", st.seq));
        }
        if st.seq >= self.offered[f] {
            return violation(format!("flow {flow} seq {}: never offered", st.seq));
        }
        let expected = self.next_seq[f];
        if st.seq == expected {
            self.next_seq[f] = expected + 1;
            self.tally.in_order += 1;
            if !self.lossless {
                let (word, mask) = self.bit(f, st.seq);
                *word |= mask;
            }
        } else if self.lossless {
            return violation(format!(
                "flow {flow}: expected seq {expected}, delivered {} (lossless workloads are exactly FIFO)",
                st.seq
            ));
        } else if st.seq > expected {
            // A gap opens: everything skipped is missing until seen.
            for q in expected.max(st.seq.saturating_sub(REORDER_WINDOW))..st.seq {
                let (word, mask) = self.bit(f, q);
                *word &= !mask;
            }
            let (word, mask) = self.bit(f, st.seq);
            *word |= mask;
            self.next_seq[f] = st.seq + 1;
            self.tally.in_order += 1;
        } else {
            if expected - st.seq > REORDER_WINDOW {
                return violation(format!(
                    "flow {flow} seq {}: delivered {} behind the head, beyond any recovery window",
                    st.seq,
                    expected - st.seq
                ));
            }
            let (word, mask) = self.bit(f, st.seq);
            if *word & mask != 0 {
                return violation(format!("flow {flow} seq {}: delivered twice", st.seq));
            }
            *word |= mask;
            self.tally.out_of_order += 1;
        }
        self.delivered[f] += 1;
        self.tally.delivered += 1;
        if let Some(latency) = self.frames.delivered(st.frame, now_ns) {
            self.tally.frames_done += 1;
            self.slice_hist.record(latency);
        }
        Ok(())
    }

    /// Jain's fairness index over per-flow delivered counts.
    pub fn jain(&self) -> f64 {
        let n = self.delivered.len() as f64;
        let sum: f64 = self.delivered.iter().map(|&c| c as f64).sum();
        let sq: f64 = self.delivered.iter().map(|&c| (c as f64).powi(2)).sum();
        if sq == 0.0 {
            0.0
        } else {
            sum * sum / (n * sq)
        }
    }

    /// Close the books once the run has drained. `lost` is what the
    /// impairment layer says it dropped (`chaos.dropped_loss`).
    pub fn settle(&self, lost: u64) -> Result<(), Violation> {
        let t = self.tally;
        if self.lossless {
            if lost != 0 {
                return violation(format!("lossless workload lost {lost} frames"));
            }
            for (f, (&o, &d)) in self.offered.iter().zip(&self.delivered).enumerate() {
                if o != d {
                    return violation(format!("flow {f}: offered {o}, delivered {d}"));
                }
            }
        } else if t.offered != t.delivered + lost {
            return violation(format!(
                "conservation broken: offered {} != delivered {} + chaos.dropped_loss {lost}",
                t.offered, t.delivered
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Gen, Workload};

    fn lossless() -> Workload {
        Workload {
            flows: 2,
            burst: 8,
            ..*Workload::by_name("mixed_8flows").unwrap()
        }
    }

    fn lossy() -> Workload {
        Workload {
            lossy: true,
            ..lossless()
        }
    }

    /// Offer one burst, return its packets as (flow, payload).
    fn offer(g: &mut Gen, o: &mut Oracle, frame: u32, due: u64) -> Vec<(u32, Vec<u8>)> {
        g.burst(frame, due);
        o.frame_started(frame, due, g.burst_len() as u32);
        (0..g.burst_len())
            .map(|i| {
                let (flow, p) = g.packet(i);
                o.offered(flow);
                (flow, p.to_vec())
            })
            .collect()
    }

    #[test]
    fn fifo_delivery_settles_and_times_frames_from_due() {
        let w = lossless();
        let (mut g, mut o) = (Gen::new(&w, 1), Oracle::new(&w));
        // Frame 0 was due at 1 000 but the generator ran 250 late and the
        // path took 400: the frame is charged 650, not 400.
        let pkts = offer(&mut g, &mut o, 0, 1_000);
        for (flow, p) in &pkts {
            o.delivery(*flow, p, 1_000 + 250 + 400).unwrap();
        }
        assert_eq!(o.tally().frames_done, 1);
        let (ns, n) = o.slice_hist.percentile(50.0).unwrap();
        assert_eq!(n, 1);
        assert!((ns - 650.0).abs() / 650.0 < 0.03, "{ns}");
        assert_eq!(o.tally().in_order, 8);
        assert!((o.jain() - 1.0).abs() < 1e-12);
        o.settle(0).unwrap();
    }

    #[test]
    fn lossless_reorder_wrong_flow_and_bad_bytes_are_violations() {
        let w = lossless();
        let (mut g, mut o) = (Gen::new(&w, 1), Oracle::new(&w));
        let pkts = offer(&mut g, &mut o, 0, 0);
        // Packets 0 and 2 are flow 0's first two: delivering the second
        // first breaks FIFO.
        assert!(o.delivery(pkts[2].0, &pkts[2].1, 1).is_err());
        // Polled from the wrong flow.
        assert!(o.delivery(1, &pkts[0].1, 1).is_err());
        // One flipped payload byte.
        let mut bad = pkts[0].1.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(o.delivery(0, &bad, 1).is_err());
        // Truncated.
        assert!(o.delivery(0, &pkts[0].1[..40], 1).is_err());
        // The untouched packet still passes; an incomplete run does not
        // settle.
        o.delivery(0, &pkts[0].1, 1).unwrap();
        assert!(o.settle(0).is_err());
    }

    #[test]
    fn lossy_counts_gaps_and_late_packets_and_refuses_duplicates() {
        let w = lossy();
        let (mut g, mut o) = (Gen::new(&w, 1), Oracle::new(&w));
        let pkts = offer(&mut g, &mut o, 0, 0);
        let flow0: Vec<&Vec<u8>> = pkts.iter().filter(|p| p.0 == 0).map(|p| &p.1).collect();
        assert_eq!(flow0.len(), 4);
        // seq 0, then 2 (gap), then 1 late, then 1 again.
        o.delivery(0, flow0[0], 1).unwrap();
        o.delivery(0, flow0[2], 1).unwrap();
        o.delivery(0, flow0[1], 1).unwrap();
        assert_eq!(o.tally().in_order, 2);
        assert_eq!(o.tally().out_of_order, 1);
        assert!(o.delivery(0, flow0[1], 1).is_err(), "duplicate");
        // seq 3 never arrives: conservation closes only with the loss
        // the impairment layer reports.
        for p in pkts.iter().filter(|p| p.0 == 1) {
            o.delivery(1, &p.1, 1).unwrap();
        }
        assert!(o.settle(0).is_err());
        o.settle(1).unwrap();
        assert_eq!(
            o.tally().frames_done,
            0,
            "a frame with a loss never completes"
        );
    }
}
