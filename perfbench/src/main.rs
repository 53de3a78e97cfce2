//! The Tango workspace benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <vultr-dataplane|npop-discovery|xshard-forwarding>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds each workload's inputs from the seed, repeats complete
//! rounds (set-up + body) for about `--seconds`, checks every round's
//! outputs, and prints one JSON object as its last line. `--trace 0`
//! reports the end-to-end metrics with tracing and telemetry off;
//! `--trace 1` reports the per-layer metrics (see README.md).

// The workspace bans the wall clock to keep simulations replayable; a
// benchmark's product is host time, so it is the one place that reads it.
#![allow(clippy::disallowed_methods)]

mod gate;
mod kernels;
mod scenario;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use scenario::{run_round, Round, RoundConfig, Workload};
use spans::Recorder;

/// Set-up runs at least this often per run, so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;

/// Where the traced run writes its spans, relative to the working
/// directory (the benchmark build directory, ignored by git).
const SPANS_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |k: &str| values.get(k).ok_or_else(|| format!("missing --{k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let name = get("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json());
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                for p in &report.problems {
                    eprintln!("perfbench: CHECK FAILED: {p}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: human-readable lines, the gate's verdict, and the
/// metrics of the final JSON line.
struct Report {
    text: String,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A round of the same xshard-forwarding scenario on `shards` shards,
/// whose fingerprint every timed round must match.
fn reference_round(args: &Args, shards: usize, threaded: bool) -> Result<Option<Round>, String> {
    if args.workload != Workload::XshardForwarding {
        return Ok(None);
    }
    let config = RoundConfig {
        shards,
        threaded,
        ..RoundConfig::default()
    };
    run_round(
        args.workload,
        args.seed,
        &config,
        &mut Recorder::new(false),
        false,
    )
    .map(Some)
}

fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let reference = reference_round(args, 1, false)?;
    if args.trace {
        return traced(args, started, budget, reference);
    }
    let mut rounds = Vec::new();
    // Peak memory of one round in a fresh process: later rounds only add
    // allocator fragmentation, which grows with how many rounds fit.
    let mut peak_rss = 0.0;
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        let round = run_round(
            args.workload,
            args.seed,
            &RoundConfig::default(),
            &mut Recorder::new(false),
            false,
        )?;
        if rounds.is_empty() {
            peak_rss = peak_rss_mb();
        }
        rounds.push(round);
    }
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.outcome.attempted as f64 / (r.body_ns as f64 / 1e9))
        .collect();
    let op_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.op_ns.iter().map(|ns| ns / 1e3))
        .collect();
    let mut report = gated(rounds.iter().chain(&reference));
    let op = if args.workload == Workload::NpopDiscovery {
        "pair"
    } else {
        "packet"
    };
    let _ = writeln!(
        report.text,
        "{} seed {}: {} rounds, {} {op}s, {} timed samples per {op}",
        args.workload.name(),
        args.seed,
        rounds.len(),
        report.attempted,
        op_us.len()
    );
    report.metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("ops_per_s", median(&rates), "ops/s"),
        ("op_us_p50", quantile(&op_us, 0.50), "us"),
        ("op_us_p95", quantile(&op_us, 0.95), "us"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    let rates_text: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    let _ = writeln!(report.text, "  ops/s per round: {}", rates_text.join(" "));
    for (name, value, unit) in &report.metrics {
        let _ = writeln!(report.text, "  {name:<12} {value:>14.4} {unit}");
    }
    Ok(report)
}

/// The gate's verdict over `rounds`, with the run's attempted and failed
/// operation totals.
fn gated<'a>(rounds: impl Iterator<Item = &'a Round>) -> Report {
    let outcomes: Vec<&scenario::Outcome> = rounds.map(|r| &r.outcome).collect();
    let problems = gate::check(&outcomes);
    Report {
        text: String::new(),
        problems,
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed()).sum(),
        metrics: Vec::new(),
    }
}

/// Telemetry counters of a traced round, summed over every key that
/// starts with `prefix` and ends with `suffix`.
fn counter_sum(snap: &tango_obs::Snapshot, prefix: &str, suffix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| *v)
        .sum()
}

/// The traced run: untraced and traced rounds alternate for about
/// `budget` (the traced/untraced body ratio is the tracing overhead),
/// then the layer kernels run on inputs captured from the workload.
fn traced(
    args: &Args,
    started: Instant,
    budget: Duration,
    reference: Option<Round>,
) -> Result<Report, String> {
    let w = args.workload;
    let mut recorder = Recorder::new(true);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut snap = None;
    let mut setup_bgp = (0, 0);
    while traced.is_empty() || started.elapsed() < budget {
        plain.push(run_round(
            w,
            args.seed,
            &RoundConfig::default(),
            &mut Recorder::new(false),
            false,
        )?);
        let registry = tango_obs::Registry::new();
        let config = RoundConfig {
            obs: Some(registry.clone()),
            ..RoundConfig::default()
        };
        recorder.enter("round", "bench");
        let round = run_round(w, args.seed, &config, &mut recorder, traced.is_empty())?;
        recorder.exit();
        snap = Some(registry.snapshot());
        setup_bgp = round.setup_bgp;
        traced.push(round);
    }
    let snap = snap.expect("at least one traced round");
    let threaded = reference_round(args, scenario::XSHARD_SHARDS, true)?;
    let mut report = gated(
        plain
            .iter()
            .chain(&traced)
            .chain(&reference)
            .chain(&threaded),
    );

    let captured = traced[0]
        .captured
        .as_ref()
        .expect("first traced round captures");
    let k = kernels::measure(captured);

    let n = traced.len() as f64;
    let ms = |name: &str| recorder.total_ns(name) as f64 / n / 1e6;
    let body = |rs: &[Round]| median(&rs.iter().map(|r| r.body_ns as f64).collect::<Vec<_>>());
    let t = &traced[traced.len() - 1];
    let packets = if w == Workload::NpopDiscovery {
        0.0
    } else {
        t.outcome.attempted as f64
    };
    let per_pkt = |v: u64| {
        if packets > 0.0 {
            v as f64 / packets
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // BGP: whole-round counters, and the discovery part of them.
    let converges = counter_sum(&snap, "bgp.converges", "");
    let updates = counter_sum(&snap, "bgp.updates_processed", "");
    let bgp_ns = ["vultr_pairing", "converge", "discover_paths"]
        .iter()
        .map(|s| recorder.total_ns(s) as f64 / n)
        .sum::<f64>();
    let (disc_converges, pairs) = match w {
        Workload::NpopDiscovery => (converges - setup_bgp.0, t.outcome.attempted),
        Workload::VultrDataplane => (converges, 1),
        Workload::XshardForwarding => (0, 0),
    };

    // Sim: event mix and shard accounting of the traced round.
    let events = counter_sum(&snap, "sim.events.", "");
    let host_inject = counter_sum(&snap, "sim.events.host_inject", "");
    let deliver = counter_sum(&snap, "sim.events.deliver", "");
    let load = &t.shard_load;
    let windows: u64 = load.iter().map(|l| l.windows).max().unwrap_or(0);
    let all_windows: u64 = load.iter().map(|l| l.windows).sum();
    let idle: u64 = load.iter().map(|l| l.idle_windows).sum();
    let shard_events: u64 = load.iter().map(|l| l.events).sum();
    let busiest = load.iter().map(|l| l.events).max().unwrap_or(0);
    let speedup = match (&reference, &threaded) {
        (Some(one), Some(two)) => ratio(one.body_ns as f64, two.body_ns as f64),
        _ => 0.0,
    };

    // Data plane: per-packet op counts from the switches' counters.
    let encaps = counter_sum(&snap, "dataplane.", ".tx.app")
        + counter_sum(&snap, "dataplane.", ".tx.probe")
        + counter_sum(&snap, "dataplane.", ".tx.report");
    let app_tx = counter_sum(&snap, "dataplane.", ".tx.app");
    let decaps = counter_sum(&snap, "dataplane.", ".rx.decap");
    let switch_rx = decaps
        + counter_sum(&snap, "dataplane.", ".rx.rejected")
        + counter_sum(&snap, "dataplane.", ".rx.plain");
    // LPMs: every router delivery, plus the host-side lookup each
    // injected packet gets (the switch's remote-host match, or the
    // first router's FIB).
    let lpms = deliver.saturating_sub(switch_rx) + host_inject;

    // The ledger: end-to-end ns per packet against the sum of layer
    // costs times their per-packet counts.
    let e2e_ns = if packets > 0.0 {
        body(&plain) / packets
    } else {
        0.0
    };
    let layers_ns = k.hop_ns * per_pkt(events)
        + k.lpm_ns * per_pkt(lpms)
        + k.encap_ns * per_pkt(encaps)
        + k.decap_ns * per_pkt(decaps)
        + k.select_ns * per_pkt(app_tx)
        + k.record_owd_ns * per_pkt(decaps);
    let residual = ratio(e2e_ns - layers_ns, e2e_ns);

    report.metrics = vec![
        ("core.pairing_build_ms", ms("vultr_pairing"), "ms"),
        ("topology.gen_ms", ms("try_generate"), "ms"),
        ("bgp.mesh_converge_ms", ms("converge"), "ms"),
        ("bgp.fib_build_ms", ms("forwarding_table"), "ms"),
        ("bgp.converges", converges as f64, "count"),
        ("bgp.updates", updates as f64, "count"),
        ("bgp.ns_per_update", ratio(bgp_ns, updates as f64), "ns"),
        (
            "bgp.peak_routes",
            snap.gauges.get("bgp.rib.peak_routes").copied().unwrap_or(0) as f64,
            "count",
        ),
        (
            "control.converges_per_pair",
            ratio(disc_converges as f64, pairs as f64),
            "count",
        ),
        (
            "control.paths_per_converge",
            ratio(t.paths as f64, disc_converges as f64),
            "ratio",
        ),
        ("sim.run_until_ms", ms("run_until"), "ms"),
        ("sim.events_per_pkt", per_pkt(events), "events/pkt"),
        (
            "sim.ns_per_event",
            ratio(body(&plain), t.events as f64),
            "ns",
        ),
        (
            "sim.queue_peak",
            load.iter().map(|l| l.queue_peak).max().unwrap_or(0) as f64,
            "count",
        ),
        ("sim.hop_ns", k.hop_ns, "ns"),
        ("sim.shard.windows", windows as f64, "count"),
        (
            "sim.shard.outbox_events",
            load.iter().map(|l| l.outbox_events).sum::<u64>() as f64,
            "count",
        ),
        (
            "sim.shard.idle_frac",
            ratio(idle as f64, all_windows as f64),
            "ratio",
        ),
        (
            "sim.shard.busiest_share",
            ratio(busiest as f64, shard_events as f64),
            "ratio",
        ),
        ("sim.shard.speedup", speedup, "ratio"),
        ("sim.flow_hash_ns", k.flow_hash_ns, "ns"),
        ("net.lpm_ns", k.lpm_ns, "ns"),
        ("net.lpms_per_pkt", per_pkt(lpms), "count"),
        ("net.checksum_1400b_ns", k.checksum_1400b_ns, "ns"),
        ("dataplane.encap_ns", k.encap_ns, "ns"),
        ("dataplane.decap_ns", k.decap_ns, "ns"),
        ("dataplane.select_ns", k.select_ns, "ns"),
        ("dataplane.record_owd_ns", k.record_owd_ns, "ns"),
        ("dataplane.encaps_per_pkt", per_pkt(encaps), "count"),
        ("dataplane.decaps_per_pkt", per_pkt(decaps), "count"),
        ("ledger.residual_frac", residual, "ratio"),
        (
            "trace.overhead_frac",
            ratio(body(&traced), body(&plain)) - 1.0,
            "ratio",
        ),
        (
            "fail_frac",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        ),
    ];

    let run_id = format!("{}-seed{}-pid{}", w.name(), args.seed, std::process::id());
    let path = format!("{SPANS_DIR}/spans-{}-seed{}.json", w.name(), args.seed);
    std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, recorder.to_json(&run_id)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    let _ = writeln!(
        report.text,
        "{} seed {}: {} untraced + {} traced rounds; spans in {path}",
        w.name(),
        args.seed,
        plain.len(),
        traced.len()
    );
    let _ = writeln!(report.text, "self time per layer, ms per traced round:");
    for (layer, ns) in recorder.self_ns_by_layer() {
        let _ = writeln!(report.text, "  {layer:<10} {:>12.3}", ns as f64 / n / 1e6);
    }
    let _ = writeln!(
        report.text,
        "ledger: {e2e_ns:.1} ns/pkt end to end, {layers_ns:.1} ns/pkt from layers"
    );
    for (name, value, unit) in &report.metrics {
        let _ = writeln!(report.text, "  {name:<28} {value:>16.4} {unit}");
    }
    Ok(report)
}
