//! The three workloads: inputs generated from the seed, the timed set-up,
//! the timed body, and what the correctness gate needs from each round.
//!
//! Every call goes through the workspace crates' public APIs. A round is
//! one complete, self-contained scenario: set-up (build + schedule every
//! injection) followed by the body (the work a user waits for). Rounds of
//! one seed are identical, so their fingerprints must match.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::Ipv6Addr;
use std::time::Instant;

use tango::npop::{host_prefix, probe_prefix};
use tango::prelude::{PairingOptions, Side, SimTime, TangoPairing};
use tango_bgp::policy::path_is_valley_free;
use tango_bgp::BgpEngine;
use tango_control::{discover_paths, DiscoveryError};
use tango_net::{Ipv6Packet, Ipv6Repr};
use tango_obs::Registry;
use tango_sim::{FaultInjector, NetworkSim, Packet, RouterAgent, ShardMode, SimConfig, SimStats};
use tango_topology::gen::{try_generate, GenParams, Generated};
use tango_topology::{AsId, Topology};

use crate::spans::Recorder;

/// Application payload of every injected packet, bytes.
const PAYLOAD_BYTES: usize = 64;

/// vultr-dataplane: app packets per round, their spacing (10k pps offered,
/// clear of any queueing, as in the B1 throughput experiment), the probe
/// period, and how many packets one timed `run_until` slice carries.
const VULTR_PACKETS: u64 = 200_000;
const VULTR_GAP_NS: u64 = 100_000;
const VULTR_PROBE_MS: u64 = 10;
const VULTR_SLICE_PKTS: u64 = 200;

/// npop-discovery: graph size, PoP count (276 pairs), the per-pair
/// discovery bound of the B5 sweep, and how many graphs one round spreads
/// its 276 pairs over (pair `k` runs on graph `k % NPOP_GRAPHS`).
const NPOP_ASES: usize = 500;
const NPOP_POPS: usize = 24;
const NPOP_MAX_PATHS: usize = 8;
const NPOP_GRAPHS: usize = 8;

/// xshard-forwarding: graph size, PoP count (120 pairs), graphs per round,
/// packets per graph, their spacing, packets per timed slice, and the
/// shard count.
/// The timed rounds run their shards serially: on a 2-vCPU virtual
/// machine the threaded runner's per-window barrier wake-ups made round
/// throughput swing 3x within one run. The traced run times the threaded
/// runner once, for `sim.shard.speedup`.
const XSHARD_ASES: usize = 300;
const XSHARD_POPS: usize = 16;
pub const XSHARD_GRAPHS: usize = 4;
pub const XSHARD_PACKETS: u64 = 200_000;
const XSHARD_GAP_NS: u64 = 10_000;
const XSHARD_SLICE_PKTS: u64 = 10_000;
pub const XSHARD_SHARDS: usize = 2;

/// Simulated time after the last injection before the horizon: longer
/// than any path's one-way delay, so every packet lands before it.
const DRAIN_NS: u64 = 500_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 2-edge Vultr pairing under app traffic and probes.
    VultrDataplane,
    /// All-pairs suppress-and-observe discovery on a generated graph.
    NpopDiscovery,
    /// Plain LPM forwarding on a generated graph, sharded across threads.
    XshardForwarding,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::VultrDataplane,
        Workload::NpopDiscovery,
        Workload::XshardForwarding,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VultrDataplane => "vultr-dataplane",
            Workload::NpopDiscovery => "npop-discovery",
            Workload::XshardForwarding => "xshard-forwarding",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one round runs.
#[derive(Clone, Default)]
pub struct RoundConfig {
    /// Telemetry registry attached to every layer (traced rounds only).
    pub obs: Option<Registry>,
    /// Simulator shard count (xshard-forwarding only; 0 = the default).
    pub shards: usize,
    /// Run the shards on worker threads instead of serially
    /// (xshard-forwarding only).
    pub threaded: bool,
    /// Global fault injection (the gate's own tests only).
    pub fault: Option<FaultInjector>,
}

/// What the gate checks for one round.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: injected packets or PoP pairs.
    pub attempted: u64,
    /// Operations that succeeded: delivered packets or cleanly
    /// discovered pairs.
    pub succeeded: u64,
    /// Violated invariants (packet conservation, valley-freedom, hop
    /// accounting), one line each.
    pub problems: Vec<String>,
    /// Deterministic text of every simulated output of the round.
    pub fingerprint: String,
}

impl Outcome {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }
}

/// One measured round.
pub struct Round {
    /// Host ns of the set-up.
    pub setup_ns: u64,
    /// Host ns of the body.
    pub body_ns: u64,
    /// Per-operation host ns samples: one per PoP pair, or one per
    /// `run_until` slice divided by the packets it carries.
    pub op_ns: Vec<f64>,
    /// The gate's view of the round.
    pub outcome: Outcome,
    /// Events the simulator processed in the body (0 without a sim).
    pub events: u64,
    /// Per-shard engine accounting after the body (empty without a sim).
    pub shard_load: Vec<tango_sim::ShardLoad>,
    /// BGP `(converges, updates)` counted by the end of the set-up
    /// (traced rounds of npop-discovery only).
    pub setup_bgp: (u64, u64),
    /// Wide-area paths discovered in the round.
    pub paths: u64,
    /// Inputs the per-layer kernels reuse (traced runs only).
    pub captured: Option<Captured>,
}

/// Inputs captured from a round for the per-layer kernels.
pub struct Captured {
    /// The workload's topology (for the engine kernel).
    pub topology: Topology,
    /// Forwarding tables of every node, as the workload built them.
    pub fibs: Vec<tango_net::PrefixTrie<AsId>>,
    /// Destination addresses the workload's packets carry.
    pub dst_addrs: Vec<std::net::IpAddr>,
    /// A tunnel of the workload (a generated PoP pair's prefixes where
    /// the workload has no tunnels).
    pub tunnel: tango_dataplane::Tunnel,
    /// An inner packet as the workload injects it.
    pub inner: Vec<u8>,
}

/// Host nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run one round of `workload`.
pub fn run_round(
    workload: Workload,
    seed: u64,
    config: &RoundConfig,
    spans: &mut Recorder,
    capture: bool,
) -> Result<Round, String> {
    match workload {
        Workload::VultrDataplane => vultr_round(seed, config, spans, capture),
        Workload::NpopDiscovery => npop_round(seed, config, spans, capture),
        Workload::XshardForwarding => xshard_round(seed, config, spans, capture),
    }
}

/// The injection plan of one vultr-dataplane round: simulated send time
/// and sending side of every app packet, alternating A→B / B→A.
fn vultr_schedule() -> impl Iterator<Item = (SimTime, Side)> {
    (0..VULTR_PACKETS).map(|i| {
        let side = if i % 2 == 0 { Side::A } else { Side::B };
        (SimTime::from_ms(5) + SimTime(i * VULTR_GAP_NS), side)
    })
}

fn vultr_last_injection() -> SimTime {
    SimTime::from_ms(5) + SimTime((VULTR_PACKETS - 1) * VULTR_GAP_NS)
}

fn vultr_round(
    seed: u64,
    config: &RoundConfig,
    spans: &mut Recorder,
    capture: bool,
) -> Result<Round, String> {
    let started = Instant::now();
    let mut pairing = spans
        .span("vultr_pairing", "core", || {
            tango::vultr_pairing(PairingOptions {
                seed,
                probe_period: Some(SimTime::from_ms(VULTR_PROBE_MS)),
                obs: config.obs.clone(),
                fault: config.fault,
                ..PairingOptions::default()
            })
        })
        .map_err(|e| format!("vultr pairing: {e}"))?;
    spans.span("inject", "sim", || {
        for (t, side) in vultr_schedule() {
            pairing.send_app_packet(t, side, PAYLOAD_BYTES);
        }
    });
    let setup_ns = ns_since(started);

    let slice = SimTime(VULTR_SLICE_PKTS * VULTR_GAP_NS);
    let (body_ns, op_ns, events) = run_sliced(
        &mut pairing.sim,
        slice,
        VULTR_SLICE_PKTS,
        vultr_last_injection(),
        vultr_last_injection() + SimTime(DRAIN_NS),
        spans,
    );

    let outcome = vultr_outcome(&pairing);
    let shard_load = pairing.sim.shard_load();
    let provisioned = &pairing.provisioned;
    let paths = (provisioned.paths_a_to_b.len() + provisioned.paths_b_to_a.len()) as u64;
    let captured = capture.then(|| vultr_capture(&pairing));
    Ok(Round {
        setup_ns,
        body_ns,
        op_ns,
        outcome,
        events,
        shard_load,
        setup_bgp: (0, 0),
        paths,
        captured,
    })
}

/// Advance `sim` through the injection window in slices of `slice`
/// simulated time, each timed and recorded as a `run_until` span, then
/// drain to `horizon` in one more call. Returns the body's host ns, the
/// per-packet host ns of every injection-window slice, and the events
/// processed.
fn run_sliced(
    sim: &mut NetworkSim,
    slice: SimTime,
    pkts_per_slice: u64,
    last_injection: SimTime,
    horizon: SimTime,
    spans: &mut Recorder,
) -> (u64, Vec<f64>, u64) {
    let mut op_ns = Vec::new();
    let mut events = 0u64;
    let mut body_ns = 0u64;
    let mut until = sim.now();
    while until < horizon {
        let sliced = until + slice <= last_injection;
        until = if sliced { until + slice } else { horizon };
        let t = Instant::now();
        events += spans.span("run_until", "sim", || sim.run_until(until));
        let ns = ns_since(t);
        body_ns += ns;
        if sliced {
            op_ns.push(ns as f64 / pkts_per_slice as f64);
        }
    }
    (body_ns, op_ns, events)
}

/// Sum of every `SimStats` drop cause.
fn sim_drops(s: &SimStats) -> u64 {
    s.lost_link
        + s.lost_outage
        + s.lost_fault
        + s.lost_queue
        + s.no_link
        + s.no_route
        + s.ttl_expired
}

fn stats_text(s: &SimStats) -> String {
    format!(
        "tx={} rx={} link={} outage={} fault={} corrupt={} nolink={} queue={} noroute={} ttl={} timers={}",
        s.transmissions,
        s.deliveries,
        s.lost_link,
        s.lost_outage,
        s.lost_fault,
        s.corrupted,
        s.no_link,
        s.lost_queue,
        s.no_route,
        s.ttl_expired,
        s.timers
    )
}

/// Gate view of a finished pairing. Delivered = app packets the
/// receiving switches measured; dropped = every simulator drop cause plus
/// every receive-side reject. The scenario has no lossy link, so any
/// drop at all breaks conservation of app packets.
fn vultr_outcome(pairing: &TangoPairing) -> Outcome {
    let stats = pairing.sim.stats();
    let mut fingerprint = stats_text(stats);
    let (mut delivered, mut rejected, mut encapsulated) = (0u64, 0u64, 0u64);
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        encapsulated += sink.tx_encapsulated;
        rejected += sink.unattributed_rejects + sink.auth_rejects + sink.replay_rejects;
        let _ = write!(
            fingerprint,
            " | {side:?} enc={} probes={} plain={}",
            sink.tx_encapsulated, sink.probes_sent, sink.plain_rx
        );
        for (id, p) in sink.paths() {
            delivered += p.app_delivered;
            rejected += p.rejected;
            let owd_sum: f64 = p.owd.values().iter().sum();
            let t_sum: u64 = p.owd.times_ns().iter().sum();
            let _ = write!(
                fingerprint,
                " p{id}:n={} app={} owd={owd_sum:.3} t={t_sum}",
                p.owd.len(),
                p.app_delivered
            );
        }
    }
    let injected = VULTR_PACKETS;
    let dropped = sim_drops(stats) + rejected;
    let mut problems = Vec::new();
    if encapsulated != injected {
        problems.push(format!(
            "switches tunnelled {encapsulated} of {injected} injected app packets"
        ));
    }
    if injected != delivered + dropped {
        problems.push(format!(
            "conservation: injected {injected} != delivered {delivered} + dropped {dropped}"
        ));
    }
    Outcome {
        attempted: injected,
        succeeded: delivered.min(injected),
        problems,
        fingerprint,
    }
}

fn vultr_capture(pairing: &TangoPairing) -> Captured {
    let topology = pairing.sim.topology().clone();
    let fibs = topology
        .nodes()
        .filter_map(|n| pairing.bgp.forwarding_table(n.id).ok())
        .collect();
    let tunnels = &pairing.provisioned.a_tunnels;
    let mut dst_addrs: Vec<std::net::IpAddr> = tunnels
        .iter()
        .chain(&pairing.provisioned.b_tunnels)
        .map(|t| std::net::IpAddr::V6(t.remote_endpoint))
        .collect();
    // The addresses `TangoPairing::send_app_packet` uses.
    let a = pairing.side_config(Side::A).host_prefix;
    let b = pairing.side_config(Side::B).host_prefix;
    dst_addrs.extend([v6_host(a, 0x20), v6_host(b, 0x20)].map(std::net::IpAddr::V6));
    Captured {
        topology,
        fibs,
        dst_addrs,
        tunnel: tunnels.first().cloned().unwrap_or_else(|| pop_tunnel(0, 1)),
        inner: host_packet_bytes(v6_host(a, 0x10), v6_host(b, 0x20)),
    }
}

/// The IPv6/UDP host packet every workload injects: `PAYLOAD_BYTES` of
/// zero payload behind a 40-byte header.
fn host_packet_bytes(src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
    let repr = Ipv6Repr {
        src_addr: src,
        dst_addr: dst,
        next_header: 17,
        payload_len: PAYLOAD_BYTES,
        hop_limit: 64,
        traffic_class: 0,
        flow_label: 0,
    };
    let mut buf = vec![0u8; repr.total_len()];
    let mut view = Ipv6Packet::new_unchecked(&mut buf);
    repr.emit(&mut view).expect("buffer sized by total_len");
    buf
}

/// Address `host` inside an IPv6 host prefix (every host prefix of these
/// scenarios is an IPv6 /48).
fn v6_host(prefix: tango_net::IpCidr, host: u128) -> Ipv6Addr {
    match prefix {
        tango_net::IpCidr::V6(c) => c.host(host).expect("a /48 holds the host"),
        tango_net::IpCidr::V4(_) => unreachable!("host prefixes are IPv6"),
    }
}

/// Address `host` inside PoP `i`'s host prefix.
fn pop_addr(i: usize, host: u16) -> Ipv6Addr {
    v6_host(host_prefix(i), u128::from(host))
}

/// A tunnel between two PoPs' host prefixes, for the kernels of the
/// workloads that carry no tunnels.
fn pop_tunnel(i: usize, j: usize) -> tango_dataplane::Tunnel {
    match (host_prefix(i), host_prefix(j)) {
        (tango_net::IpCidr::V6(a), tango_net::IpCidr::V6(b)) => {
            tango_dataplane::Tunnel::from_prefixes(0, "pop", a, b)
        }
        _ => unreachable!("PoP host prefixes are IPv6"),
    }
}

/// Generate the graph of the generated-topology workloads.
fn generate(
    ases: usize,
    pops: usize,
    seed: u64,
    spans: &mut Recorder,
) -> Result<Generated, String> {
    spans
        .span("try_generate", "topology", || {
            try_generate(&GenParams::internet(ases, pops, seed))
        })
        .map_err(|e| format!("topology generation: {e}"))
}

/// Build a BGP engine over `generated` and converge every PoP's host
/// prefix (the mesh). PoPs honour action communities when `honor`.
fn mesh_engine(
    generated: &Generated,
    obs: Option<&Registry>,
    honor: bool,
    spans: &mut Recorder,
) -> Result<BgpEngine, String> {
    let mut engine = BgpEngine::new(generated.topology.clone());
    if let Some(registry) = obs {
        engine.set_obs(registry);
        engine.set_rib_obs(registry);
    }
    let bgp = |e: tango_bgp::EngineError| format!("BGP engine: {e}");
    for (i, &pop) in generated.edge_sites.iter().enumerate() {
        if honor {
            engine.set_honor_actions(pop, true).map_err(bgp)?;
        }
        engine
            .announce(pop, host_prefix(i), BTreeSet::new())
            .map_err(bgp)?;
    }
    spans
        .span("converge", "bgp", || engine.converge())
        .map_err(bgp)?;
    Ok(engine)
}

/// Unordered PoP index pairs `(i, j)`, `i < j`, in row order.
fn pop_pairs(pops: usize) -> Vec<(usize, usize)> {
    (0..pops)
        .flat_map(|i| ((i + 1)..pops).map(move |j| (i, j)))
        .collect()
}

fn npop_round(
    seed: u64,
    config: &RoundConfig,
    spans: &mut Recorder,
    capture: bool,
) -> Result<Round, String> {
    let bgp_counts = || {
        config.obs.as_ref().map_or((0, 0), |r| {
            let snap = r.snapshot();
            let count = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
            (count("bgp.converges"), count("bgp.updates_processed"))
        })
    };
    let all_pairs = pop_pairs(NPOP_POPS);
    let mut round = Round {
        setup_ns: 0,
        body_ns: 0,
        op_ns: Vec::with_capacity(all_pairs.len()),
        outcome: Outcome::default(),
        events: 0,
        shard_load: Vec::new(),
        setup_bgp: (0, 0),
        paths: 0,
        captured: None,
    };
    let o = &mut round.outcome;
    for (g, graph_seed) in graph_seeds(seed, NPOP_GRAPHS).enumerate() {
        let started = Instant::now();
        let before = bgp_counts();
        let generated = generate(NPOP_ASES, NPOP_POPS, graph_seed, spans)?;
        let mut engine = mesh_engine(&generated, config.obs.as_ref(), true, spans)?;
        round.setup_ns += ns_since(started);
        let after = bgp_counts();
        round.setup_bgp.0 += after.0 - before.0;
        round.setup_bgp.1 += after.1 - before.1;

        let pops = &generated.edge_sites;
        let topology = &generated.topology;
        let _ = write!(o.fingerprint, "graph={:016x}", generated.digest());
        for &(i, j) in all_pairs.iter().skip(g).step_by(NPOP_GRAPHS) {
            let (observer, announcer) = (pops[i], pops[j]);
            o.attempted += 1;
            let t = Instant::now();
            let result = spans.span("discover_paths", "control", || {
                discover_paths(
                    &mut engine,
                    announcer,
                    observer,
                    probe_prefix(j),
                    &[announcer, observer],
                    NPOP_MAX_PATHS,
                )
            });
            let ns = ns_since(t);
            round.body_ns += ns;
            round.op_ns.push(ns as f64);
            let pair = format!("{}>{}", observer.0, announcer.0);
            let _ = write!(o.fingerprint, " | {pair}");
            let paths = match result {
                Ok(paths) => paths,
                Err(DiscoveryError::NoPathAtAll | DiscoveryError::DegeneratePath) => {
                    o.problems.push(format!("pair {pair} unreachable"));
                    continue;
                }
                Err(DiscoveryError::Engine(e)) => return Err(format!("BGP engine: {e}")),
            };
            round.paths += paths.len() as u64;
            let mut clean = true;
            for path in &paths {
                let mut nodes = Vec::with_capacity(path.as_path.len() + 1);
                nodes.push(observer);
                nodes.extend_from_slice(&path.as_path);
                if !path_is_valley_free(topology, &nodes)
                    || topology.path_base_delay_ns(&nodes).is_none()
                {
                    clean = false;
                    o.problems
                        .push(format!("pair {pair}: path {nodes:?} is not valley-free"));
                }
                o.fingerprint.push(' ');
                for (k, a) in path.as_path.iter().enumerate() {
                    let sep = if k == 0 { "" } else { "," };
                    let _ = write!(o.fingerprint, "{sep}{}", a.0);
                }
            }
            o.succeeded += u64::from(clean);
        }
        o.fingerprint.push('\n');
        if capture && g == 0 {
            round.captured = Some(generated_capture(&generated, &engine));
        }
    }
    Ok(round)
}

/// The seeds of a round's `graphs` generated graphs: consecutive, and
/// disjoint between run seeds. Spreading a round over several graphs
/// keeps a run's figures from hinging on one graph's shape.
fn graph_seeds(seed: u64, graphs: usize) -> impl Iterator<Item = u64> {
    let first = seed.wrapping_mul(graphs as u64);
    (0..graphs as u64).map(move |g| first.wrapping_add(g))
}

/// Kernel inputs of a generated-topology workload: every node's FIB, the
/// PoP host addresses, a tunnel between the first two PoPs' prefixes, and
/// the host packet between them.
fn generated_capture(generated: &Generated, engine: &BgpEngine) -> Captured {
    let topology = generated.topology.clone();
    let fibs = topology
        .nodes()
        .filter_map(|n| engine.forwarding_table(n.id).ok())
        .collect();
    let dst_addrs = (0..generated.edge_sites.len())
        .map(|i| std::net::IpAddr::V6(pop_addr(i, 1)))
        .collect();
    Captured {
        topology,
        fibs,
        dst_addrs,
        tunnel: pop_tunnel(0, 1),
        inner: host_packet_bytes(pop_addr(0, 1), pop_addr(1, 1)),
    }
}

/// The injection plan of one xshard-forwarding round: send time, source
/// PoP index and destination PoP index of every packet, round-robin over
/// the PoP pairs in alternating directions.
fn xshard_schedule(pops: usize) -> Vec<(SimTime, usize, usize)> {
    let pairs = pop_pairs(pops);
    (0..XSHARD_PACKETS)
        .map(|k| {
            let (i, j) = pairs[(k as usize) % pairs.len()];
            let (src, dst) = if k % 2 == 0 { (i, j) } else { (j, i) };
            (SimTime::from_ms(1) + SimTime(k * XSHARD_GAP_NS), src, dst)
        })
        .collect()
}

fn xshard_last_injection() -> SimTime {
    SimTime::from_ms(1) + SimTime((XSHARD_PACKETS - 1) * XSHARD_GAP_NS)
}

fn xshard_round(
    seed: u64,
    config: &RoundConfig,
    spans: &mut Recorder,
    capture: bool,
) -> Result<Round, String> {
    let mut round = Round {
        setup_ns: 0,
        body_ns: 0,
        op_ns: Vec::new(),
        outcome: Outcome::default(),
        events: 0,
        shard_load: Vec::new(),
        setup_bgp: (0, 0),
        paths: 0,
        captured: None,
    };
    for (g, graph_seed) in graph_seeds(seed, XSHARD_GRAPHS).enumerate() {
        xshard_graph(graph_seed, config, spans, capture && g == 0, &mut round)?;
    }
    Ok(round)
}

/// One graph of an xshard-forwarding round, added to `round`.
fn xshard_graph(
    seed: u64,
    config: &RoundConfig,
    spans: &mut Recorder,
    capture: bool,
    round: &mut Round,
) -> Result<(), String> {
    let shards = if config.shards == 0 {
        XSHARD_SHARDS
    } else {
        config.shards
    };
    // Packet bytes depend only on PoP indices: built before the clock.
    let schedule = xshard_schedule(XSHARD_POPS);
    let packets: Vec<Packet> = schedule
        .iter()
        .map(|&(_, s, d)| {
            Packet::new(host_packet_bytes(
                pop_addr(s, 1 + (d as u16)),
                pop_addr(d, 1),
            ))
        })
        .collect();
    let started = Instant::now();
    let generated = generate(XSHARD_ASES, XSHARD_POPS, seed, spans)?;
    let engine = mesh_engine(&generated, config.obs.as_ref(), false, spans)?;
    let topology = &generated.topology;
    let pops = &generated.edge_sites;
    let mut sim = NetworkSim::new(
        topology.clone(),
        SimConfig {
            seed,
            shards,
            shard_mode: if config.threaded {
                ShardMode::Threaded
            } else {
                ShardMode::Serial
            },
            obs: config.obs.clone(),
            fault: config.fault,
            ..SimConfig::default()
        },
    );
    for node in topology.nodes() {
        let table = spans
            .span("forwarding_table", "bgp", || {
                engine.forwarding_table(node.id)
            })
            .map_err(|e| format!("BGP engine: {e}"))?;
        sim.set_agent(node.id, Box::new(RouterAgent::new(node.id, table)));
    }
    spans.span("inject", "sim", || {
        for (&(t, s, _), pkt) in schedule.iter().zip(packets) {
            sim.schedule_host_packet(t, pops[s], pkt);
        }
    });
    round.setup_ns += ns_since(started);

    // Hops each ordered PoP pair's packets take, from the converged best
    // routes: the delivery proof rests on it.
    let mut hops = vec![vec![0u64; pops.len()]; pops.len()];
    for (s, row) in hops.iter_mut().enumerate() {
        for (d, h) in row.iter_mut().enumerate() {
            if s != d {
                let path = engine
                    .trace_path(pops[s], host_prefix(d))
                    .ok_or_else(|| format!("PoP {s} has no loop-free route to PoP {d}"))?;
                *h = path.len() as u64 - 1;
            }
        }
    }
    let expected_tx: u64 = schedule.iter().map(|&(_, s, d)| hops[s][d]).sum();

    let slice = SimTime(XSHARD_SLICE_PKTS * XSHARD_GAP_NS);
    let (body_ns, op_ns, events) = run_sliced(
        &mut sim,
        slice,
        XSHARD_SLICE_PKTS,
        xshard_last_injection(),
        xshard_last_injection() + SimTime(DRAIN_NS),
        spans,
    );
    round.body_ns += body_ns;
    round.op_ns.extend(op_ns);
    round.events += events;

    let graph = xshard_outcome(sim.stats(), XSHARD_PACKETS, expected_tx);
    let o = &mut round.outcome;
    o.attempted += graph.attempted;
    o.succeeded += graph.succeeded;
    o.problems.extend(graph.problems);
    let _ = writeln!(
        o.fingerprint,
        "graph={:016x} {}",
        generated.digest(),
        graph.fingerprint
    );
    let load = sim.shard_load();
    round
        .shard_load
        .resize(load.len(), tango_sim::ShardLoad::default());
    for (sum, l) in round.shard_load.iter_mut().zip(load) {
        sum.shard = l.shard;
        sum.windows += l.windows;
        sum.idle_windows += l.idle_windows;
        sum.events += l.events;
        sum.queue_peak = sum.queue_peak.max(l.queue_peak);
        sum.outbox_events += l.outbox_events;
    }
    if capture {
        round.captured = Some(generated_capture(&generated, &engine));
    }
    Ok(())
}

/// Gate view of a finished xshard-forwarding run. A plain router counts
/// a packet that reached its destination PoP as `no_route` (it has no
/// host behind it), so `no_route` alone cannot tell delivery from a
/// blackhole. Packets count as delivered only when the hop count proves
/// it too: every packet made exactly the transmissions its converged
/// route has, and `no_route` equals the number injected.
pub fn xshard_outcome(stats: &SimStats, injected: u64, expected_tx: u64) -> Outcome {
    let dropped = stats.lost_link
        + stats.lost_outage
        + stats.lost_fault
        + stats.lost_queue
        + stats.no_link
        + stats.ttl_expired;
    let proven = stats.transmissions == expected_tx && stats.no_route == injected;
    let delivered = if proven {
        injected
    } else {
        stats.no_route.min(injected.saturating_sub(dropped))
    };
    let mut problems = Vec::new();
    if stats.transmissions != expected_tx {
        problems.push(format!(
            "hop accounting: {} transmissions, routes imply {expected_tx}",
            stats.transmissions
        ));
    }
    if injected != delivered + dropped {
        problems.push(format!(
            "conservation: injected {injected} != delivered {delivered} + dropped {dropped}"
        ));
    }
    Outcome {
        attempted: injected,
        succeeded: delivered,
        problems,
        fingerprint: format!("{} expected_tx={expected_tx}", stats_text(stats)),
    }
}

/// Canonical bytes of a workload's generated inputs for `seed`: the
/// generator digests and the full injection plan, with packet bytes.
#[cfg(test)]
pub fn input_bytes(workload: Workload, seed: u64) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    out.extend_from_slice(workload.name().as_bytes());
    match workload {
        Workload::VultrDataplane => {
            // The topology and packet stream are fixed; the seed drives
            // every per-node RNG stream of the simulator.
            out.extend_from_slice(&seed.to_le_bytes());
            for (t, side) in vultr_schedule() {
                out.extend_from_slice(&t.0.to_le_bytes());
                out.push(u8::from(side == Side::B));
            }
        }
        Workload::NpopDiscovery => {
            for graph_seed in graph_seeds(seed, NPOP_GRAPHS) {
                let generated =
                    try_generate(&GenParams::internet(NPOP_ASES, NPOP_POPS, graph_seed))
                        .map_err(|e| format!("topology generation: {e}"))?;
                out.extend_from_slice(&generated.digest().to_le_bytes());
                for pop in &generated.edge_sites {
                    out.extend_from_slice(&pop.0.to_le_bytes());
                }
            }
        }
        Workload::XshardForwarding => {
            for graph_seed in graph_seeds(seed, XSHARD_GRAPHS) {
                let generated =
                    try_generate(&GenParams::internet(XSHARD_ASES, XSHARD_POPS, graph_seed))
                        .map_err(|e| format!("topology generation: {e}"))?;
                out.extend_from_slice(&generated.digest().to_le_bytes());
                for (t, s, d) in xshard_schedule(XSHARD_POPS) {
                    out.extend_from_slice(&t.0.to_le_bytes());
                    out.extend_from_slice(&generated.edge_sites[s].0.to_le_bytes());
                    out.extend(host_packet_bytes(
                        pop_addr(s, 1 + (d as u16)),
                        pop_addr(d, 1),
                    ));
                }
            }
        }
    }
    Ok(out)
}
