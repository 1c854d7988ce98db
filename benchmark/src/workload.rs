//! The five workloads, their seeded packet generator, and the pacing
//! clock of the open-loop one.
//!
//! Everything the stack sees is derived here from `--seed`: the size of
//! every packet, the bytes in it, and (through [`Workload::chaos_seed`])
//! which frames the impaired channel loses. The stack itself receives
//! only the generated payloads.

/// Bytes of stamp at the front of every payload: flow, sequence, frame
/// id, due time, length (see [`Stamp`]).
pub const STAMP_LEN: usize = 28;
/// Largest payload any workload offers.
pub const MAX_PAYLOAD: usize = 1400;
/// Fill offsets cycle with the low bits of the sequence number.
const FILL_PHASES: usize = 64;

/// Packet sizes of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// Every packet this long.
    Fixed(usize),
    /// Seeded 50/50 mix of the two lengths.
    Mixed(usize, usize),
}

/// Open-loop schedule: a frame of `burst` packets is due every
/// `period_ns`, whether or not the last one has been delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacing {
    pub period_ns: u64,
}

/// One workload. Counts are the full-length ones of the issue; the
/// driver scales or replaces them (see `Budget`).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists and which layers it loads or bypasses (one line,
    /// mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub flows: usize,
    pub sizes: Sizes,
    /// Packets offered together: the closed loop's burst, the open
    /// loop's video frame.
    pub burst: usize,
    /// Run behind `ServerReactor` with the failover driver probing.
    pub reactor: bool,
    /// Wrap the tx links in `ImpairedLink`, 1 % Bernoulli loss on
    /// channel 0.
    pub lossy: bool,
    /// `Some` makes the loop open.
    pub pacing: Option<Pacing>,
    /// Packets in the full-length measured window.
    pub measure_pkts: u64,
    /// Packets in the fixed-count warm-up (part of set-up).
    pub warm_pkts: u64,
}

/// Measured windows are cut into this many equal-count slices at full
/// length; a slice is also the granularity of a timed window.
pub const SLICES_AT_FULL_LENGTH: u64 = 50;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bulk_1flow_1200B",
        why: "closed loop, 1 flow, 1200 B, lossless, bare server->demux: equal lengths ride GSO/GRO, so sys/udp/encode copy dominate and sched/demux lookup almost vanish",
        flows: 1,
        sizes: Sizes::Fixed(1200),
        burst: 128,
        reactor: false,
        lossy: false,
        pacing: None,
        measure_pkts: 20_000_000,
        warm_pkts: 200_000,
    },
    Workload {
        name: "small_10kflows_64B",
        why: "closed loop, 10000 flows, 64 B, lossless, bare: per-packet cost dominates, so DRR, per-flow SRR state, flow slabs and demux routing do the work; Jain checked",
        flows: 10_000,
        sizes: Sizes::Fixed(64),
        burst: 128,
        reactor: false,
        lossy: false,
        pacing: None,
        measure_pkts: 28_000_000,
        warm_pkts: 400_000,
    },
    Workload {
        name: "mixed_8flows",
        why: "closed loop, 8 flows, seeded 64/1400 B mix, lossless, behind ServerReactor: unequal lengths break GSO trains, SRR byte accounting varies, control plane on the path",
        flows: 8,
        sizes: Sizes::Mixed(64, 1400),
        burst: 128,
        reactor: true,
        lossy: false,
        pacing: None,
        measure_pkts: 10_000_000,
        warm_pkts: 200_000,
    },
    Workload {
        name: "mixed_lossy_8flows",
        why: "mixed_8flows with 1 % Bernoulli loss on channel 0 via ImpairedLink: the gap to mixed_8flows isolates marker recovery, skips and resequencer churn",
        flows: 8,
        sizes: Sizes::Mixed(64, 1400),
        burst: 128,
        reactor: true,
        lossy: true,
        pacing: None,
        measure_pkts: 10_000_000,
        warm_pkts: 200_000,
    },
    Workload {
        name: "paced_frames_4flows",
        why: "open loop, 4 flows, a 256-packet 1200 B frame due every 640 us (~20 % load), behind ServerReactor: latency from due time shows deferred flushes and bigger batches as a cost",
        flows: 4,
        sizes: Sizes::Fixed(1200),
        burst: 256,
        reactor: true,
        lossy: false,
        pacing: Some(Pacing { period_ns: 640_000 }),
        measure_pkts: 15_000 * 256,
        warm_pkts: 500 * 256,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Packets per slice: a whole number of bursts.
    pub fn slice_pkts(&self) -> u64 {
        let per = self.measure_pkts / SLICES_AT_FULL_LENGTH;
        (per / self.burst as u64).max(1) * self.burst as u64
    }

    /// Seed of the size mix and fill, distinct per workload.
    pub fn gen_seed(&self, seed: u64) -> u64 {
        mix64(seed ^ fnv1a(self.name.as_bytes()))
    }

    /// Seed of channel `c`'s impairment draws.
    pub fn chaos_seed(&self, seed: u64, c: usize) -> u64 {
        mix64(self.gen_seed(seed) ^ (0xC4A0_5000 + c as u64))
    }

    /// The same traffic shape, closed-loop and unimpaired: what the
    /// reference cells run, since they ask what the stack could carry,
    /// not what was asked of it.
    pub fn reference_shape(&self) -> Workload {
        Workload {
            pacing: None,
            lossy: false,
            ..*self
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: spreads nearby seeds apart.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64*: the harness's own generator, so inputs do not depend on
/// any crate under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix64(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The stamp at the front of every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub flow: u32,
    pub seq: u64,
    pub frame: u32,
    pub due_ns: u64,
    pub len: u32,
}

impl Stamp {
    pub fn write(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.flow.to_le_bytes());
        out[4..12].copy_from_slice(&self.seq.to_le_bytes());
        out[12..16].copy_from_slice(&self.frame.to_le_bytes());
        out[16..24].copy_from_slice(&self.due_ns.to_le_bytes());
        out[24..28].copy_from_slice(&self.len.to_le_bytes());
    }

    pub fn read(b: &[u8]) -> Option<Stamp> {
        if b.len() < STAMP_LEN {
            return None;
        }
        Some(Stamp {
            flow: u32::from_le_bytes(b[0..4].try_into().ok()?),
            seq: u64::from_le_bytes(b[4..12].try_into().ok()?),
            frame: u32::from_le_bytes(b[12..16].try_into().ok()?),
            due_ns: u64::from_le_bytes(b[16..24].try_into().ok()?),
            len: u32::from_le_bytes(b[24..28].try_into().ok()?),
        })
    }
}

/// The bytes every payload carries behind its stamp: a window into one
/// fixed pseudo-random table, starting at an offset that cycles with the
/// sequence number, so neighbouring packets of a flow differ and the
/// oracle can recompute any packet's fill from its stamp alone.
pub struct Fill {
    table: Vec<u8>,
}

impl Fill {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5712_1996);
        let table = (0..FILL_PHASES + MAX_PAYLOAD)
            .map(|_| rng.next_u64() as u8)
            .collect();
        Self { table }
    }

    /// The fill of a `len`-byte payload numbered `seq` (bytes
    /// `STAMP_LEN..len`).
    pub fn of(&self, seq: u64, len: usize) -> &[u8] {
        let phase = seq as usize % FILL_PHASES;
        &self.table[phase + STAMP_LEN..phase + len]
    }
}

/// One generated packet: where it lives in the arena and where it goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slot {
    pub flow: u32,
    pub len: u32,
    /// `seq % FILL_PHASES` of the fill currently in the slot, to skip the
    /// copy when the next packet generated into it carries the same one.
    cached_phase: u32,
    cached_len: u32,
}

/// Seeded generator of bursts. Packet `i` of a burst goes to flow
/// `(cursor + i) % flows`; the cursor then moves on by the burst length,
/// so every flow is offered the same share.
pub struct Gen {
    flows: usize,
    sizes: Sizes,
    rng: Rng,
    cursor: usize,
    next_seq: Vec<u64>,
    fill: Fill,
    arena: Vec<u8>,
    slots: Vec<Slot>,
}

impl Gen {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Self {
            flows: w.flows,
            sizes: w.sizes,
            rng: Rng::new(w.gen_seed(seed)),
            cursor: 0,
            next_seq: vec![0; w.flows],
            fill: Fill::new(),
            arena: vec![0u8; w.burst * MAX_PAYLOAD],
            slots: vec![
                Slot {
                    cached_phase: u32::MAX,
                    ..Slot::default()
                };
                w.burst
            ],
        }
    }

    /// The next packet length of the seeded size sequence.
    pub fn next_len(&mut self) -> usize {
        match self.sizes {
            Sizes::Fixed(n) => n,
            Sizes::Mixed(a, b) => {
                if self.rng.next_u64() >> 63 == 0 {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// Generate the next burst in place: frame `frame`, due at `due_ns`.
    pub fn burst(&mut self, frame: u32, due_ns: u64) {
        for i in 0..self.slots.len() {
            let flow = (self.cursor + i) % self.flows;
            let len = self.next_len();
            let seq = self.next_seq[flow];
            self.next_seq[flow] = seq + 1;
            let buf = &mut self.arena[i * MAX_PAYLOAD..i * MAX_PAYLOAD + len];
            Stamp {
                flow: flow as u32,
                seq,
                frame,
                due_ns,
                len: len as u32,
            }
            .write(buf);
            let slot = &mut self.slots[i];
            let phase = (seq as usize % FILL_PHASES) as u32;
            if slot.cached_phase != phase || slot.cached_len != len as u32 {
                buf[STAMP_LEN..].copy_from_slice(self.fill.of(seq, len));
                slot.cached_phase = phase;
                slot.cached_len = len as u32;
            }
            slot.flow = flow as u32;
            slot.len = len as u32;
        }
        self.cursor = (self.cursor + self.slots.len()) % self.flows;
    }

    /// Packets per burst.
    pub fn burst_len(&self) -> usize {
        self.slots.len()
    }

    /// Packet `i` of the burst last generated: its flow and payload.
    pub fn packet(&self, i: usize) -> (u32, &[u8]) {
        let s = self.slots[i];
        (
            s.flow,
            &self.arena[i * MAX_PAYLOAD..i * MAX_PAYLOAD + s.len as usize],
        )
    }

    /// The flow window the burst last generated covered: first flow and
    /// how many consecutive flows (wrapping).
    pub fn last_window(&self) -> (usize, usize) {
        let n = self.slots.len();
        let first = (self.cursor + self.flows - n % self.flows) % self.flows;
        (first, n.min(self.flows))
    }
}

/// The open loop's clock: frame `k` is due at `start + k·period`,
/// regardless of when earlier frames were actually offered.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    next_due_ns: u64,
    period_ns: u64,
}

impl Pacer {
    pub fn new(start_ns: u64, period_ns: u64) -> Self {
        Self {
            next_due_ns: start_ns,
            period_ns,
        }
    }

    /// When the next frame is due.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// If a frame is due at `now_ns`, take it: returns its due time and
    /// how late the generator is running. A late generator does not move
    /// the schedule — the frames it missed stay due at their own times
    /// and are taken by the following calls.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        if now_ns < self.next_due_ns {
            return None;
        }
        let due = self.next_due_ns;
        self.next_due_ns += self.period_ns;
        Some((due, now_ns - due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> &'static Workload {
        Workload::by_name("mixed_8flows").unwrap()
    }

    fn sizes(seed: u64, n: usize) -> Vec<usize> {
        let mut g = Gen::new(mixed(), seed);
        (0..n).map(|_| g.next_len()).collect()
    }

    #[test]
    fn size_mix_is_a_function_of_the_seed() {
        assert_eq!(sizes(1996, 4096), sizes(1996, 4096));
        assert_ne!(sizes(1996, 4096), sizes(1997, 4096));
        let s = sizes(1996, 100_000);
        let small = s.iter().filter(|&&l| l == 64).count();
        assert!(s.iter().all(|&l| l == 64 || l == 1400));
        assert!((45_000..55_000).contains(&small), "{small} of 100000 small");
    }

    #[test]
    fn workloads_draw_from_distinct_streams() {
        let lossy = Workload::by_name("mixed_lossy_8flows").unwrap();
        assert_ne!(mixed().gen_seed(7), lossy.gen_seed(7));
        assert_ne!(lossy.chaos_seed(7, 0), lossy.chaos_seed(7, 1));
        assert_ne!(lossy.chaos_seed(7, 0), lossy.chaos_seed(8, 0));
    }

    #[test]
    fn bursts_stamp_every_packet_and_rotate_flows() {
        let w = Workload::by_name("small_10kflows_64B").unwrap();
        let fill = Fill::new();
        let mut g = Gen::new(w, 3);
        let mut per_flow = vec![0u64; w.flows];
        for frame in 0..200u32 {
            g.burst(frame, 1000 + frame as u64);
            let (first, n) = g.last_window();
            assert_eq!(n, 128);
            for i in 0..g.burst_len() {
                let (flow, p) = g.packet(i);
                assert_eq!(flow as usize, (first + i) % w.flows);
                let st = Stamp::read(p).unwrap();
                assert_eq!(st.flow, flow);
                assert_eq!(st.seq, per_flow[flow as usize]);
                assert_eq!(st.frame, frame);
                assert_eq!(st.due_ns, 1000 + frame as u64);
                assert_eq!(st.len as usize, p.len());
                assert_eq!(&p[STAMP_LEN..], fill.of(st.seq, p.len()));
                per_flow[flow as usize] += 1;
            }
        }
        let (lo, hi) = (
            per_flow.iter().min().unwrap(),
            per_flow.iter().max().unwrap(),
        );
        assert!(hi - lo <= 1, "offered shares drifted: {lo}..{hi}");
    }

    #[test]
    fn cached_fills_still_match_after_size_changes() {
        let fill = Fill::new();
        let mut g = Gen::new(mixed(), 11);
        for frame in 0..64u32 {
            g.burst(frame, 0);
            for i in 0..g.burst_len() {
                let (_, p) = g.packet(i);
                let st = Stamp::read(p).unwrap();
                assert_eq!(&p[STAMP_LEN..], fill.of(st.seq, p.len()));
            }
        }
    }

    #[test]
    fn slices_are_whole_bursts() {
        for w in &WORKLOADS {
            assert_eq!(w.slice_pkts() % w.burst as u64, 0, "{}", w.name);
            assert!(w.slice_pkts() > 0);
        }
    }

    /// A late generator is charged to the frames it delayed: due times
    /// stay on the schedule, lateness is reported per frame.
    #[test]
    fn pacer_keeps_the_schedule_when_the_generator_is_late() {
        let mut p = Pacer::new(1_000, 640);
        assert_eq!(p.take_due(999), None);
        assert_eq!(p.take_due(1_000), Some((1_000, 0)));
        assert_eq!(p.take_due(1_100), None);
        // The generator stalls until 3 000: three frames are overdue and
        // come out with their own due times and growing lateness.
        assert_eq!(p.take_due(3_000), Some((1_640, 1_360)));
        assert_eq!(p.take_due(3_001), Some((2_280, 721)));
        assert_eq!(p.take_due(3_002), Some((2_920, 82)));
        assert_eq!(p.take_due(3_003), None);
        assert_eq!(p.next_due_ns(), 3_560);
    }
}
