//! The correctness gate every run passes before it reports a number.

use crate::scenario::Outcome;

/// Every reason the run's outputs are wrong, empty when they are right.
///
/// * each round's own invariants (conservation, hop accounting,
///   reachability, valley-freedom) hold;
/// * no operation failed;
/// * every round's fingerprint equals the first round's — rounds of one
///   seed are the same scenario (on any shard count or runner), so any
///   difference is nondeterminism.
pub fn check(rounds: &[&Outcome]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(first) = rounds.first() else {
        return vec!["no round ran".to_string()];
    };
    for (k, round) in rounds.iter().enumerate() {
        for p in &round.problems {
            problems.push(format!("round {k}: {p}"));
        }
        if round.failed() > 0 {
            problems.push(format!(
                "round {k}: {} of {} operations failed",
                round.failed(),
                round.attempted
            ));
        }
        if round.fingerprint != first.fingerprint {
            problems.push(format!(
                "round {k}: fingerprint differs from round 0 at byte {}",
                first_difference(&round.fingerprint, &first.fingerprint)
            ));
        }
    }
    problems
}

fn first_difference(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        input_bytes, run_round, xshard_outcome, RoundConfig, Workload, XSHARD_GRAPHS,
        XSHARD_PACKETS,
    };
    use crate::spans::Recorder;
    use tango_sim::{FaultInjector, SimStats};

    fn clean(fingerprint: &str) -> Outcome {
        Outcome {
            attempted: 10,
            succeeded: 10,
            problems: Vec::new(),
            fingerprint: fingerprint.to_string(),
        }
    }

    #[test]
    fn identical_rounds_pass() {
        let r = clean("tx=5 rx=5 | p0:n=3 owd=1.500");
        assert!(check(&[&r, &r, &r]).is_empty());
    }

    #[test]
    fn one_changed_fingerprint_byte_fails() {
        let base = "tx=5 rx=5 | p0:n=3 owd=1.500";
        for at in 0..base.len() {
            let mut bytes = base.as_bytes().to_vec();
            bytes[at] ^= 1;
            let changed = clean(std::str::from_utf8(&bytes).expect("ascii"));
            assert!(!check(&[&clean(base), &changed]).is_empty(), "byte {at}");
            assert!(
                !check(&[&changed, &clean(base)]).is_empty(),
                "first round, byte {at}"
            );
        }
    }

    #[test]
    fn failed_operations_fail() {
        let mut r = clean("x");
        r.succeeded = 9;
        assert_eq!(check(&[&r]).len(), 1);
    }

    #[test]
    fn blackhole_is_not_delivery() {
        // Every packet dropped as `no_route` at its first hop: as many
        // `no_route` as injected, but too few transmissions.
        let stats = SimStats {
            transmissions: 100,
            no_route: 100,
            ..SimStats::default()
        };
        let out = xshard_outcome(&stats, 100, 400);
        assert!(!out.problems.is_empty());
        assert!(!check(&[&out]).is_empty());
        let delivered = SimStats {
            transmissions: 400,
            no_route: 100,
            ..SimStats::default()
        };
        assert!(check(&[&xshard_outcome(&delivered, 100, 400)]).is_empty());
    }

    #[test]
    fn lossy_xshard_forwarding_fails_the_gate() {
        let config = RoundConfig {
            fault: Some(FaultInjector::new(0.01, 0.0)),
            ..RoundConfig::default()
        };
        let round = run_round(
            Workload::XshardForwarding,
            1,
            &config,
            &mut Recorder::new(false),
            false,
        )
        .expect("round runs");
        let o = &round.outcome;
        assert_eq!(o.attempted, XSHARD_GRAPHS as u64 * XSHARD_PACKETS);
        assert!(o.failed() > 0, "fail_frac must be > 0 under loss");
        assert!(!check(&[o]).is_empty());
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = input_bytes(w, 11).expect("inputs");
            assert_eq!(a, input_bytes(w, 11).expect("inputs"), "{}", w.name());
            assert_ne!(a, input_bytes(w, 12).expect("inputs"), "{}", w.name());
        }
    }
}
