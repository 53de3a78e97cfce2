//! Property-based equivalence of the sharded engine (DESIGN.md §11):
//! for random small topologies, workloads, and seeds, running the same
//! simulation under 1 shard, N shards serial, and N shards threaded
//! produces identical `SimStats`, identical canonical span streams, and
//! an identical observability export — and the span stream, the
//! simulator's one event recorder, accounts for every transmission,
//! delivery and drop the counters record.
//!
//! The agents here are deliberately rng-hungry relays — every delivery
//! draws from the node's stream to pick the next hop — so any slip in
//! the per-node RNG derivation, the conservative window math, or the
//! barrier merge order shows up as a diverging stream within a few hops.
//! Every world is lossy (link loss plus a fault injector that drops and
//! corrupts), so the drop arms are exercised too.

use proptest::prelude::*;
use rand::Rng;
use tango_obs::Registry;
use tango_sim::{
    Agent, Ctx, DropReason, FaultInjector, NetworkSim, Packet, ShardMode, SimConfig, SimStats,
    SimTime, Span, SpanKind,
};
use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, JitterModel, LinkProfile, Topology};

/// First AS id; nodes are `BASE_ID..BASE_ID + n`.
const BASE_ID: u32 = 100;

/// Span ring capacity per shard: large enough that no generated world
/// wraps it (checked in [`run`]), so the merged stream is exact.
const SPAN_CAPACITY: usize = 1 << 14;

/// One generated world: a ring of `n` nodes (always connected) plus
/// random chords, each hop with its own delay and optional jitter.
/// Node indices are generated in `0..8` and reduced modulo `n` at build
/// time (the vendored proptest has no `prop_flat_map` to make the
/// ranges depend on `n`).
#[derive(Debug, Clone)]
struct World {
    n: usize,
    chords: Vec<(usize, usize)>,
    delays_ns: Vec<u64>,
    jitter: Vec<bool>,
    /// (at_ms, source node index, hop budget, payload byte)
    injections: Vec<(u64, usize, u8, u8)>,
    /// (at_ms, node index, timer tag)
    timers: Vec<(u64, usize, u64)>,
    /// (fault drop chance, fault corrupt chance, per-link loss rate)
    lossy: (f64, f64, f64),
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        3usize..=8,
        proptest::collection::vec((0usize..8, 0usize..8), 0..5),
        proptest::collection::vec(200_000u64..4_000_000, 16),
        proptest::collection::vec(any::<bool>(), 16),
        proptest::collection::vec((1u64..40, 0usize..8, 1u8..5, any::<u8>()), 1..10),
        proptest::collection::vec((1u64..40, 0usize..8, any::<u64>()), 0..6),
        (0.05f64..0.3, 0.0f64..0.1, 0.0f64..0.1),
    )
        .prop_map(
            |(n, chords, delays_ns, jitter, injections, timers, lossy)| World {
                n,
                chords,
                delays_ns,
                jitter,
                injections,
                timers,
                lossy,
            },
        )
}

fn build_topology(w: &World) -> Topology {
    let mut t = Topology::new();
    for i in 0..w.n {
        t.add_node(AsNode::new(
            BASE_ID + i as u32,
            AsKind::Transit,
            format!("n{i}"),
        ))
        .expect("ids unique");
    }
    let mut edge = 0usize;
    let profile = |edge: usize| {
        let mut p = DirectionProfile::constant(w.delays_ns[edge % w.delays_ns.len()]);
        if w.jitter[edge % w.jitter.len()] {
            p = p.with_jitter(JitterModel::Uniform { range_ns: 100_000 });
        }
        LinkProfile::symmetric(p.with_loss(w.lossy.2))
    };
    for i in 0..w.n {
        let j = (i + 1) % w.n;
        if t.add_peering(
            AsId(BASE_ID + i as u32),
            AsId(BASE_ID + j as u32),
            profile(edge),
        )
        .is_ok()
        {
            edge += 1;
        }
    }
    for &(a, b) in &w.chords {
        let (a, b) = (a % w.n, b % w.n);
        if a == b {
            continue;
        }
        // Duplicate edges are rejected by the topology; skipping them
        // keeps the generator simple without losing cases.
        if t.add_peering(
            AsId(BASE_ID + a as u32),
            AsId(BASE_ID + b as u32),
            profile(edge),
        )
        .is_ok()
        {
            edge += 1;
        }
    }
    t
}

/// Forwards every arriving packet to a random neighbor until its hop
/// budget (payload byte 0) runs out; timers also launch fresh packets.
/// Every decision consumes node-local rng, which is exactly what the
/// equivalence property needs to stress.
struct RelayAgent {
    neighbors: Vec<AsId>,
}

impl RelayAgent {
    fn hop(&self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        let Some(&budget) = pkt.bytes().first() else {
            return;
        };
        if budget == 0 || self.neighbors.is_empty() {
            return;
        }
        let next = self.neighbors[ctx.rng().gen_range(0..self.neighbors.len())];
        pkt.bytes_mut()[0] = budget - 1;
        ctx.transmit(next, pkt);
    }
}

impl Agent for RelayAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.hop(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let budget = (tag % 4) as u8 + 1;
        self.hop(ctx, Packet::new(vec![budget, (tag >> 8) as u8]));
    }
}

fn run(w: &World, seed: u64, shards: usize, mode: ShardMode) -> (SimStats, Vec<Span>, String) {
    let topology = build_topology(w);
    let registry = Registry::default();
    let mut sim = NetworkSim::new(
        topology.clone(),
        SimConfig {
            seed,
            span_capacity: SPAN_CAPACITY,
            fault: Some(FaultInjector::new(w.lossy.0, w.lossy.1)),
            shards,
            shard_mode: mode,
            obs: Some(registry.clone()),
        },
    );
    for node in topology.nodes() {
        let neighbors = topology.neighbors(node.id).to_vec();
        sim.set_agent(node.id, Box::new(RelayAgent { neighbors }));
    }
    for &(at_ms, src, budget, payload) in &w.injections {
        sim.schedule_host_packet(
            SimTime::from_ms(at_ms),
            AsId(BASE_ID + (src % w.n) as u32),
            Packet::new(vec![budget, payload]),
        );
    }
    for &(at_ms, node, tag) in &w.timers {
        sim.schedule_timer_at(
            SimTime::from_ms(at_ms),
            AsId(BASE_ID + (node % w.n) as u32),
            tag,
        );
    }
    sim.run_until(SimTime::from_ms(200));
    let ring = sim.spans();
    let spans = ring.spans();
    assert_eq!(
        ring.total_recorded(),
        spans.len() as u64,
        "span ring wrapped; raise SPAN_CAPACITY"
    );
    (*sim.stats(), spans, registry.snapshot().to_json())
}

/// The counters a span stream reproduces: one `Tx` span per
/// transmission, one `Deliver` span per delivery, one `Drop` span per
/// drop-counter increment. `corrupted` and `timers` have no one-to-one
/// span (corruption is not a span kind; idle timers are elided), so they
/// are copied from `stats`.
fn span_tally(spans: &[Span], stats: &SimStats) -> SimStats {
    let mut t = SimStats {
        corrupted: stats.corrupted,
        timers: stats.timers,
        ..SimStats::default()
    };
    for s in spans {
        let counter = match s.kind {
            SpanKind::Tx { .. } => &mut t.transmissions,
            SpanKind::Deliver => &mut t.deliveries,
            SpanKind::Drop { reason } => match reason {
                DropReason::NoLink => &mut t.no_link,
                DropReason::LossLink => &mut t.lost_link,
                DropReason::LossOutage => &mut t.lost_outage,
                DropReason::LossFault => &mut t.lost_fault,
                DropReason::LossQueue => &mut t.lost_queue,
                DropReason::NoRoute => &mut t.no_route,
                DropReason::TtlExpired => &mut t.ttl_expired,
            },
            _ => continue,
        };
        *counter += 1;
    }
    t
}

proptest! {
    /// The tentpole property: shard count and execution mode are
    /// unobservable. Stats, spans, and telemetry are bit-identical, and
    /// the span stream misses no counted event.
    #[test]
    fn sharding_is_unobservable(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 2usize..=4,
    ) {
        let (stats1, spans1, obs1) = run(&w, seed, 1, ShardMode::Serial);
        let (stats_s, spans_s, obs_s) = run(&w, seed, shards, ShardMode::Serial);
        let (stats_t, spans_t, obs_t) = run(&w, seed, shards, ShardMode::Threaded);

        prop_assert_eq!(span_tally(&spans1, &stats1), stats1, "spans miss counted events");
        prop_assert_eq!(stats1, stats_s, "serial multi-shard stats diverged");
        prop_assert_eq!(stats1, stats_t, "threaded multi-shard stats diverged");
        prop_assert_eq!(&spans1, &spans_s, "serial multi-shard spans diverged");
        prop_assert_eq!(&spans1, &spans_t, "threaded multi-shard spans diverged");
        prop_assert_eq!(&obs1, &obs_s, "serial multi-shard telemetry diverged");
        prop_assert_eq!(&obs1, &obs_t, "threaded multi-shard telemetry diverged");
    }

    /// Re-running the same world with the same seed and shard count is
    /// bit-identical too (no hidden global state across runs).
    #[test]
    fn repeat_runs_are_reproducible(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=3,
    ) {
        let a = run(&w, seed, shards, ShardMode::Serial);
        let b = run(&w, seed, shards, ShardMode::Serial);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }
}
