//! Adaptive weighted striping vs the Sprinklers baseline, under one
//! scripted heterogeneous-capacity impairment.
//!
//! Three channels behind token-bucket policers split 4:2:1 — the
//! deterministic stand-in for links of unequal rate — and a saturating
//! offered load, so every arm suffers identical congestive drops at the
//! same scripted capacities. Three arms stripe the same traffic:
//!
//! - **srr_equal** — SRR with equal quanta: the untuned strawman; its
//!   scheduler keeps offering the slow channel traffic the policer must
//!   discard.
//! - **srr_tuned** — SRR with capacity-matched 4:2:1 quanta plus
//!   markers: the operating point the adaptive loop (estimators →
//!   quantum tuner → epoch'd retune) converges to, frozen so this cell
//!   measures the steady state and not the transient.
//! - **sprinkler** — the randomized variable-size striper
//!   (packet-counted stripes, weights 4:2:1) behind the same
//!   [`CausalScheduler`] seam, markers on, same marker cadence.
//!
//! Reported per arm: delivered count, congestive drops, **reordering**
//! (late deliveries — packets arriving below the delivered high-water
//! mark — and the maximum backward displacement), and each channel's
//! carried share against its capacity share. Writes `BENCH_adaptive.json`
//! at the repo root; `STRIPE_BENCH_SMOKE=1` shortens the run.
//!
//! [`CausalScheduler`]: stripe_core::sched::CausalScheduler

use std::fmt::Write as _;

use stripe_bench::table::Table;
use stripe_core::receiver::RxBatch;
use stripe_core::sched::{CausalScheduler, Sprinkler, Srr};
use stripe_core::sender::MarkerConfig;
use stripe_link::{datagram_pair, TestDatagramLink};
use stripe_net::{ChaosPlan, FlowDemux, ImpairedLink, StripeServer};
use stripe_netsim::SimTime;

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
/// Token-bucket refill per channel, bytes per step — the hidden 4:2:1.
const RATES: [u64; CHANNELS] = [4000, 2000, 1000];
/// Offered packets per step: past aggregate capacity on every channel
/// under any of the three splits, so the policers always bind.
const BURST: usize = 40;
const SEED: u64 = 0xBEE5;

struct Arm {
    label: &'static str,
    offered: u64,
    delivered: u64,
    dropped: u64,
    late: u64,
    max_backjump: u64,
    shares: Vec<f64>,
    share_err_max: f64,
}

fn run_arm<S: CausalScheduler + Clone>(
    label: &'static str,
    sched: S,
    markers: MarkerConfig,
    steps: u64,
) -> Arm {
    let mut fwd = Vec::new();
    let mut rx_links = Vec::new();
    for (i, &r) in RATES.iter().enumerate() {
        let (a, b) = datagram_pair(2048, 1 << 14);
        let plan = ChaosPlan::none().shape(r, 2 * r);
        fwd.push(ImpairedLink::new(a, plan, SEED.wrapping_add(i as u64)));
        rx_links.push(b);
    }
    let mut path: StripeServer<S, ImpairedLink<TestDatagramLink>> = StripeServer::builder()
        .scheduler(sched.clone())
        .markers(markers)
        .links(fwd)
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");
    let mut rx: FlowDemux<S, TestDatagramLink> = FlowDemux::builder()
        .scheduler(sched)
        .links(rx_links)
        .pool_buffers(1 << 10)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 12);

    let mut next_id = 0u64;
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut delivered = 0u64;
    let mut late = 0u64;
    let mut max_backjump = 0u64;
    let mut high = 0u64;

    for step in 0..steps {
        let now = SimTime::from_millis(step + 1);
        for _ in 0..BURST {
            let mut p = [0u8; PAYLOAD];
            p[..8].copy_from_slice(&next_id.to_be_bytes());
            path.enqueue(flow, &p).expect("burst fits the queue");
            next_id += 1;
        }
        path.pump_into(now, usize::MAX, &mut events);
        path.flush();
        rx.sweep(now);
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            let id = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
            delivered += 1;
            if id < high {
                late += 1;
                max_backjump = max_backjump.max(high - id);
            } else {
                high = id;
            }
            rx.recycle(pb);
        }
    }

    let total_rate: u64 = RATES.iter().sum();
    let carried: Vec<u64> = (0..CHANNELS)
        .map(|c| path.links()[c].snapshot().shaped_bytes)
        .collect();
    let carried_total: u64 = carried.iter().sum::<u64>().max(1);
    let shares: Vec<f64> = carried
        .iter()
        .map(|&b| b as f64 / carried_total as f64)
        .collect();
    let share_err_max = (0..CHANNELS)
        .map(|c| (shares[c] / (RATES[c] as f64 / total_rate as f64) - 1.0).abs())
        .fold(0.0f64, f64::max);
    let dropped: u64 = (0..CHANNELS)
        .map(|c| path.links()[c].snapshot().dropped_shaped)
        .sum();
    Arm {
        label,
        offered: next_id,
        delivered,
        dropped,
        late,
        max_backjump,
        shares,
        share_err_max,
    }
}

fn main() {
    let smoke = std::env::var("STRIPE_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let steps: u64 = if smoke { 400 } else { 4_000 };

    println!("== adaptive weighted striping vs the Sprinklers baseline ==");
    println!(
        "   ({CHANNELS} channels policed {RATES:?} B/step, saturating load, \
         {steps} steps, seed {SEED:#x})\n"
    );

    let tuned: Vec<i64> = RATES.iter().map(|&r| (r / 4) as i64).collect();
    let weights: Vec<u64> = RATES.iter().map(|&r| r / 1000).collect();
    let arms = [
        run_arm(
            "srr_equal",
            Srr::equal(CHANNELS, 600),
            MarkerConfig::every_rounds(4),
            steps,
        ),
        run_arm(
            "srr_tuned",
            Srr::weighted(&tuned),
            MarkerConfig::every_rounds(4),
            steps,
        ),
        run_arm(
            "sprinkler",
            Sprinkler::new(&weights, SEED),
            MarkerConfig::every_rounds(4),
            steps,
        ),
    ];

    let mut table = Table::new(&[
        "arm",
        "delivered",
        "dropped",
        "late",
        "max_backjump",
        "share_err",
    ]);
    let mut json = String::from("{\n  \"bench\": \"adaptive\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"rates\": [{}],",
        RATES.map(|r| r.to_string()).join(", ")
    );
    json.push_str("  \"results\": [\n");
    let mut first = true;
    for a in &arms {
        table.row_owned(vec![
            a.label.to_string(),
            a.delivered.to_string(),
            a.dropped.to_string(),
            a.late.to_string(),
            a.max_backjump.to_string(),
            format!("{:.3}", a.share_err_max),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let shares = a
            .shares
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            json,
            "    {{\"arm\": \"{}\", \"offered\": {}, \"delivered\": {}, \
             \"dropped_shaped\": {}, \"late_deliveries\": {}, \
             \"max_backjump\": {}, \"carried_shares\": [{shares}], \
             \"share_err_max\": {:.4}}}",
            a.label, a.offered, a.delivered, a.dropped, a.late, a.max_backjump, a.share_err_max,
        );
    }
    json.push_str("\n  ],\n");

    let srr_tuned = &arms[1];
    let sprinkler = &arms[2];
    let _ = writeln!(
        json,
        "  \"late_srr_tuned\": {}, \"late_sprinkler\": {},",
        srr_tuned.late, sprinkler.late
    );
    let _ = writeln!(
        json,
        "  \"headline\": {{\"metric\": \"late_deliveries_srr_tuned\", \
         \"value\": {}, \"units\": \"packets\", \
         \"late_sprinkler\": {}, \"share_err_srr_tuned\": {:.4}}}",
        srr_tuned.late, sprinkler.late, srr_tuned.share_err_max
    );
    json.push_str("}\n");

    println!("{}", table.render());
    println!(
        "\nheadline: srr_tuned {} late deliveries vs sprinkler {} under identical 4:2:1 policing",
        srr_tuned.late, sprinkler.late
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json");
    std::fs::write(out_path, &json).expect("write BENCH_adaptive.json");
    println!("wrote {out_path}");
}
