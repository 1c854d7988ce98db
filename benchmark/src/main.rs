//! One harness for goodput, burst latency, loss recovery and per-layer
//! ns/packet over the real-socket striping stack. See `README.md` beside
//! this crate for the metric tables and how to read the output.
//!
//! ```text
//! stripe-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                  [--trace 0|1] [--selfcheck] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs. Without `--seconds` windows
//! are fixed packet counts (so counts repeat exactly); with it they are
//! timed. `--trace 0` runs the untraced end-to-end set, `--trace 1` the
//! traced per-layer set, neither flag runs both. With one workload and
//! one `--trace` value the last line of output is the result object of
//! the benchmark contract.

mod alloc;
mod cells;
mod clock;
mod hist;
mod oracle;
mod pin;
mod report;
mod stack;
mod surface;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{LayerRuns, Metrics, END_TO_END};
use stack::{Budget, RunOut, Transport, CHANNELS, SETUPS};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 1996;

/// How a traced invocation splits `--seconds` between its runs and cells
/// (the rest goes to set-ups).
const SHARE_REFERENCE: f64 = 0.22;
const SHARE_TRACED: f64 = 0.33;
const SHARE_MEM: f64 = 0.10;
const SHARE_ONE_CHANNEL: f64 = 0.10;
const SHARE_SYS: f64 = 0.08;
const SHARE_PER_CELL: f64 = 0.012;
/// Traced runs and their reference are this fraction of full length when
/// windows are packet counts; the two stack reference cells a quarter of
/// that again.
const TRACED_LENGTH: f64 = 0.25;

struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `Some(false)` end-to-end only, `Some(true)` per-layer only.
    trace: Option<bool>,
    selfcheck: bool,
    out: PathBuf,
    /// The CPU the process pinned itself to, if it could, and how many it
    /// could have used before that.
    pinned_cpu: Option<usize>,
    nproc: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        selfcheck: false,
        out: PathBuf::from("benchmark/out"),
        pinned_cpu: None,
        nproc: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::by_name(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--selfcheck" => o.selfcheck = true,
            "--out" => o.out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(o)
}

/// The untraced end-to-end run of one workload.
fn run_end_to_end(w: &Workload, o: &Opts) -> Result<RunOut, String> {
    let budget = match o.seconds {
        Some(s) => Budget::Seconds(s),
        None => Budget::Packets(w.measure_pkts),
    };
    stack::run(
        w,
        o.seed,
        Transport::Udp(CHANNELS),
        SETUPS,
        w.warm_pkts,
        budget,
        false,
    )
}

/// The traced run of one workload with everything it is compared to, all
/// in this one invocation: an untraced reference of the same length, the
/// same traffic over memory and over one channel, the bare-socket
/// ceiling, and the isolated layer cells.
fn run_layers(w: &Workload, o: &Opts) -> Result<LayerRuns, String> {
    let window = |share: f64, length: f64| match o.seconds {
        Some(s) => Budget::Seconds(s * share),
        None => Budget::Packets((w.measure_pkts as f64 * length) as u64),
    };
    let go = |w: &Workload, transport, warm_pkts, budget, trace| {
        stack::run(w, o.seed, transport, 1, warm_pkts, budget, trace)
    };
    let full = Transport::Udp(CHANNELS);
    let reference = go(
        w,
        full,
        w.warm_pkts,
        window(SHARE_REFERENCE, TRACED_LENGTH),
        false,
    )?;
    let traced = go(
        w,
        full,
        w.warm_pkts,
        window(SHARE_TRACED, TRACED_LENGTH),
        true,
    )?;
    let shape = w.reference_shape();
    let mem = go(
        &shape,
        Transport::Mem,
        w.warm_pkts / 4,
        window(SHARE_MEM, TRACED_LENGTH / 4.0),
        false,
    )?;
    let one_channel = go(
        &shape,
        Transport::Udp(1),
        w.warm_pkts / 4,
        window(SHARE_ONE_CHANNEL, TRACED_LENGTH / 4.0),
        false,
    )?;
    // The cells are short (a second or two between them); a clock reading
    // on either side of each is the clock it ran at.
    let seconds = o.seconds.unwrap_or(8.0);
    let ghz0 = clock::core_clock_ghz();
    let sys = cells::sys_cell(&shape, o.seed, seconds * SHARE_SYS)
        .map_err(|e| format!("bare-socket cell: {e}"))?;
    let ghz1 = clock::core_clock_ghz();
    let cells = cells::layer_cells(w, o.seed, Duration::from_secs_f64(seconds * SHARE_PER_CELL));
    let ghz2 = clock::core_clock_ghz();
    let sys = sys.at_ref((ghz0 + ghz1) / 2.0);
    let cells = cells.at_ref((ghz1 + ghz2) / 2.0);
    Ok(LayerRuns {
        reference,
        traced,
        mem,
        one_channel,
        sys,
        cells,
    })
}

/// Machine and build stamp for `result.json`.
fn stamp(o: &Opts, env: Option<stack::LinkEnv>) -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let e = env.unwrap_or_default();
    format!(
        "{{\"nproc\": {}, \"kernel\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \
         \"gso_channels\": {}, \"gro_channels\": {}, \"so_sndbuf\": {}, \"so_rcvbuf\": {}, \
         \"mmsg_compiled\": {}, \"pinned_cpu\": {}}}",
        o.nproc,
        read("/proc/sys/kernel/osrelease").replace('"', "'"),
        commit.replace('"', "'"),
        o.seed,
        e.gso_channels,
        e.gro_channels,
        e.sndbuf,
        e.rcvbuf,
        surface::sys::mmsg_compiled(),
        o.pinned_cpu.map_or("null".into(), |c| c.to_string()),
    )
}

/// Results of one workload in this invocation.
#[derive(Default)]
struct WorkloadOut {
    end_to_end: Option<Metrics>,
    extras: Option<Metrics>,
    per_layer: Option<Metrics>,
    attempted: u64,
    failed: u64,
}

fn run_workload(
    w: &'static Workload,
    o: &Opts,
    env: &mut Option<stack::LinkEnv>,
) -> Result<WorkloadOut, String> {
    let mut out = WorkloadOut::default();
    println!("# {}: {}", w.name, w.why);
    if o.trace != Some(true) {
        let run = run_end_to_end(w, o).map_err(|e| format!("{}: {e}", w.name))?;
        check_invariants(w, &run)?;
        let e = report::end_to_end(&run);
        report::print_lines(w.name, &e.metrics);
        report::print_lines(w.name, &e.extras);
        out.attempted = run.fin.tally.offered;
        out.failed = report::failed_ops(&run);
        *env = Some(run.env);
        out.end_to_end = Some(e.metrics);
        out.extras = Some(e.extras);
    }
    if o.trace != Some(false) {
        let runs = run_layers(w, o).map_err(|e| format!("{}: {e}", w.name))?;
        check_invariants(w, &runs.traced)?;
        let m = report::per_layer(&runs);
        report::print_lines(w.name, &m);
        std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
        let path = o.out.join(format!("trace-{}.jsonl", w.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.traced
            .tracer
            .write_jsonl(std::io::BufWriter::new(file), w.name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if o.trace == Some(true) {
            out.attempted = runs.traced.fin.tally.offered;
            out.failed = report::failed_ops(&runs.traced);
        }
        env.get_or_insert(runs.traced.env);
        out.per_layer = Some(m);
    }
    Ok(out)
}

/// Checks on top of the oracle's per-packet ones: fairness where the
/// workload promises it, and a generator that kept its schedule.
fn check_invariants(w: &Workload, run: &RunOut) -> Result<(), String> {
    if w.flows >= 1000 && run.fin.jain < 0.99 {
        return Err(format!(
            "{}: Jain index {:.4} below 0.99",
            w.name, run.fin.jain
        ));
    }
    if let Some(p) = w.pacing {
        // Lateness is charged to the frames it delayed (latency runs from
        // the due time), so the medians stand; the tail of such a run
        // does not, and a claim about `frame_p99_us` must not rest on it.
        let lag_ns = run
            .measured
            .lag_hist
            .percentile(99.0)
            .map_or(0.0, |(v, _)| v);
        if lag_ns > p.period_ns as f64 / 2.0 {
            eprintln!(
                "stripe-benchmark: {}: generator p99 lateness {:.1} us exceeds half a period; \
                 the latency tail of this run is void",
                w.name,
                lag_ns / 1e3
            );
        }
    }
    Ok(())
}

fn write_result(
    o: &Opts,
    env: Option<stack::LinkEnv>,
    outs: &[(&Workload, WorkloadOut)],
) -> Result<(), String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let mut s = format!("{{\n  \"stamp\": {},\n  \"workloads\": {{\n", stamp(o, env));
    for (i, (w, out)) in outs.iter().enumerate() {
        let _ = write!(s, "    \"{}\": {{", w.name);
        let mut parts = Vec::new();
        for (key, m) in [
            ("end_to_end", &out.end_to_end),
            ("extras", &out.extras),
            ("per_layer", &out.per_layer),
        ] {
            if let Some(m) = m {
                parts.push(format!("\"{key}\": {}", report::metrics_object(m)));
            }
        }
        s.push_str(&parts.join(", "));
        s.push_str(if i + 1 < outs.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  }\n}\n");
    let path = o.out.join("result.json");
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counts that must repeat exactly between two runs of the same build on
/// the same seed (windows being packet counts).
const EXACT: [&str; 4] = [
    "ooo_per_loss",
    "chaos.dropped_loss",
    "failed_ops_share",
    "pool.allocs_per_kpkt",
];

/// Runs per set in `--selfcheck`. One run against one run compares two
/// samples of the host's mood; the median of three against the median of
/// three (what the driver does with ten) compares the program.
const SELFCHECK_RUNS: usize = 3;

/// Run the end-to-end set twice — per workload, the runs of the two sets
/// alternate (A B A B A B), so both see the same minutes of the host — and
/// fail unless the second set's medians lie within every bound of the
/// first's and the exact counts are identical in every run.
fn selfcheck(workloads: &[&'static Workload], o: &Opts) -> Result<(), String> {
    if o.seconds.is_some() {
        return Err("--selfcheck compares fixed-count windows; drop --seconds".into());
    }
    let mut bad = Vec::new();
    for w in workloads {
        println!("# {}: {}", w.name, w.why);
        // sets[s][name] = that metric's value in each run of set s.
        let mut sets: [Vec<(&'static str, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        for run_no in 0..SELFCHECK_RUNS * 2 {
            let run = run_end_to_end(w, o).map_err(|e| format!("{}: {e}", w.name))?;
            check_invariants(w, &run)?;
            let e = report::end_to_end(&run);
            let label = format!("{}[{}{}]", w.name, ["A", "B"][run_no % 2], run_no / 2 + 1);
            report::print_lines(&label, &e.metrics);
            report::print_lines(&label, &e.extras);
            let set = &mut sets[run_no % 2];
            for (i, (name, v)) in e.metrics.into_iter().chain(e.extras).enumerate() {
                if set.len() <= i {
                    set.push((name, Vec::new()));
                }
                set[i].1.push(v);
            }
        }
        let [a, b] = &mut sets;
        for ((name, va), (_, vb)) in a.iter_mut().zip(b.iter_mut()) {
            if EXACT.contains(name) {
                if va.iter().chain(vb.iter()).any(|v| *v != va[0]) {
                    bad.push(format!(
                        "{} {name}: not identical: {va:?} vs {vb:?}",
                        w.name
                    ));
                }
            } else if let Some(m) = END_TO_END.iter().find(|m| m.name == *name) {
                let (ma, mb) = (report::median(va), report::median(vb));
                let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
                let worse = if m.higher_is_better { -change } else { change };
                println!(
                    "# {} {name}: median {} vs {} ({:.2} % {}, bound {:.0} %)",
                    w.name,
                    report::fmt_value(ma),
                    report::fmt_value(mb),
                    worse.abs() * 100.0,
                    if worse > 0.0 { "worse" } else { "better" },
                    m.bound * 100.0
                );
                if change.abs() > m.bound {
                    bad.push(format!("{} {name}: {ma} vs {mb}", w.name));
                }
            }
        }
    }
    if bad.is_empty() {
        println!("# selfcheck passed: both sets agree on every end-to-end metric");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", bad.join("\n  ")))
    }
}

fn real_main() -> Result<(), String> {
    let mut o = parse_args()?;
    if std::env::var_os("STRIPE_NET_FALLBACK").is_some() {
        return Err("STRIPE_NET_FALLBACK is set: the yardstick measures the batched path".into());
    }
    o.nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.pinned_cpu = pin::pin_to_one_cpu();
    if o.pinned_cpu.is_none() {
        eprintln!("stripe-benchmark: could not pin to one CPU; expect bimodal goodput");
    }
    let workloads: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if o.selfcheck {
        return selfcheck(&workloads, &o);
    }
    let mut env = None;
    let mut outs = Vec::new();
    for w in workloads {
        let out = run_workload(w, &o, &mut env)?;
        outs.push((w, out));
    }
    write_result(&o, env, &outs)?;
    if let ([(_, out)], Some(traced)) = (outs.as_slice(), o.trace) {
        let metrics = if traced {
            &out.per_layer
        } else {
            &out.end_to_end
        };
        let metrics = metrics.as_ref().expect("the selected set ran");
        println!(
            "{}",
            report::result_json(out.attempted, out.failed, metrics)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stripe-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
