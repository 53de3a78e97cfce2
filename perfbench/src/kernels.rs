//! Per-layer cost of single public functions, ns per call, each the
//! median over repetitions, on inputs captured from the workload itself.

use std::hint::black_box;
use std::time::Instant;

use tango_dataplane::policy::SelectionState;
use tango_dataplane::stats::StatsSink;
use tango_dataplane::{codec, Selection};
use tango_sim::{Agent, Ctx, NetworkSim, Packet, SimConfig, SimTime};
use tango_topology::AsId;

use crate::scenario::{ns_since, Captured};

const REPS: usize = 15;
const BATCH: usize = 1024;
const CALLS: usize = 100_000;

/// ns per call of every measured layer function.
pub struct Kernels {
    /// `PrefixTrie::longest_match` over the workload's FIBs and addresses.
    pub lpm_ns: f64,
    /// `tango_sim::hash::flow_hash` over the workload's wire packet.
    pub flow_hash_ns: f64,
    /// `tango_net::checksum::checksum` over 1400 bytes: a fixed reference
    /// kernel for comparing numbers taken on different machines.
    pub checksum_1400b_ns: f64,
    /// `codec::encapsulate_in_place` of the workload's inner packet.
    pub encap_ns: f64,
    /// `codec::decapsulate_in_place` of the same packets.
    pub decap_ns: f64,
    /// `SelectionState::choose` on a single-path selection.
    pub select_ns: f64,
    /// `PathStats::record_owd_gated` (the receive-side stats update).
    pub record_owd_ns: f64,
    /// One engine delivery event: queue push/pop, dispatch to an agent
    /// that forwards the packet straight back, link model and ECMP hash.
    pub hop_ns: f64,
}

/// Median over `REPS` of the ns per call `rep` returns.
fn per_call(mut rep: impl FnMut() -> f64) -> f64 {
    crate::median(&(0..REPS).map(|_| rep()).collect::<Vec<_>>())
}

/// Measure every kernel on `c`.
pub fn measure(c: &Captured) -> Kernels {
    let wire = codec::encapsulate(&c.tunnel, &c.inner, 1, 1_000);
    Kernels {
        lpm_ns: lpm(c),
        flow_hash_ns: per_call(|| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(tango_sim::hash::flow_hash(black_box(&wire)));
            }
            ns_since(t) as f64 / CALLS as f64
        }),
        checksum_1400b_ns: checksum_1400b(),
        encap_ns: codec_ns(c, false),
        decap_ns: codec_ns(c, true),
        select_ns: per_call(|| {
            let mut sel = SelectionState::new(Selection::Single(c.tunnel.id));
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(sel.choose());
            }
            ns_since(t) as f64 / CALLS as f64
        }),
        record_owd_ns: per_call(|| {
            let mut sink = StatsSink::new();
            sink.register_path(c.tunnel.id, "bench");
            let path = sink.path_mut(c.tunnel.id);
            let t = Instant::now();
            for i in 0..CALLS as u32 {
                let rx = u64::from(i) * 100_000;
                black_box(path.record_owd_gated(rx, 28_150_000.0, i, false));
            }
            ns_since(t) as f64 / CALLS as f64
        }),
        hop_ns: hop(c),
    }
}

fn lpm(c: &Captured) -> f64 {
    let per_pass = (c.fibs.len() * c.dst_addrs.len()).max(1);
    let passes = CALLS.div_ceil(per_pass);
    per_call(|| {
        let t = Instant::now();
        for _ in 0..passes {
            for fib in &c.fibs {
                for &addr in &c.dst_addrs {
                    black_box(fib.longest_match(black_box(addr)));
                }
            }
        }
        ns_since(t) as f64 / (passes * per_pass) as f64
    })
}

fn checksum_1400b() -> f64 {
    let buf: Vec<u8> = (0..1400u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    per_call(|| {
        let t = Instant::now();
        for _ in 0..CALLS / 10 {
            black_box(tango_net::checksum::checksum(black_box(&buf)));
        }
        ns_since(t) as f64 / (CALLS / 10) as f64
    })
}

/// Encapsulate a batch of inner packets in place, then decapsulate them;
/// report the ns per call of one of the two halves.
fn codec_ns(c: &Captured, decap: bool) -> f64 {
    per_call(|| {
        let mut batch: Vec<Packet> = (0..BATCH)
            .map(|_| Packet::with_headroom(codec::ENCAP_OVERHEAD, &c.inner))
            .collect();
        let t = Instant::now();
        for (i, pkt) in batch.iter_mut().enumerate() {
            codec::encapsulate_in_place(&c.tunnel, pkt, i as u32, 1_000, None);
        }
        let encap_ns = ns_since(t);
        let t = Instant::now();
        for pkt in &mut batch {
            let ok = codec::decapsulate_in_place(pkt, None, false).is_ok();
            assert!(ok, "the codec must decapsulate what it encapsulated");
        }
        let decap_ns = ns_since(t);
        black_box(&batch);
        (if decap { decap_ns } else { encap_ns }) as f64 / BATCH as f64
    })
}

/// Forwards every packet back to its peer until its share of the hop
/// budget is spent.
struct PingPong {
    peer: AsId,
    budget: u64,
}

impl Agent for PingPong {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.budget == 0 {
            ctx.recycle(pkt);
            return;
        }
        self.budget -= 1;
        ctx.transmit(self.peer, pkt);
    }
}

/// Engine cost per delivery event on the first link of the workload's
/// topology.
fn hop(c: &Captured) -> f64 {
    let Some((a, b)) = c
        .topology
        .nodes()
        .find_map(|n| c.topology.neighbors(n.id).first().map(|&p| (n.id, p)))
    else {
        return 0.0;
    };
    per_call(|| {
        let mut sim = NetworkSim::new(c.topology.clone(), SimConfig::default());
        let half = CALLS as u64 / 2;
        sim.set_agent(
            a,
            Box::new(PingPong {
                peer: b,
                budget: half,
            }),
        );
        sim.set_agent(
            b,
            Box::new(PingPong {
                peer: a,
                budget: half,
            }),
        );
        for k in 0..64 {
            sim.schedule_host_packet(SimTime(k * 1_000), a, Packet::new(c.inner.clone()));
        }
        let t = Instant::now();
        let events = sim.run_until(SimTime(u64::MAX / 2));
        ns_since(t) as f64 / events.max(1) as f64
    })
}
