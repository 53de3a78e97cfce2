//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, around the benchmark's calls into each crate,
//! not inside the program. Each span has a name, the layer (crate) it
//! times, host start and end nanoseconds from one epoch, and the span it
//! was opened under; every span of a run shares the run id. Nothing is
//! written until the run ends. A disabled recorder only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`try_generate`, `run_until`, ...).
    pub name: &'static str,
    /// The layer the call belongs to (`topology`, `sim`, ...).
    pub layer: &'static str,
    /// Host ns since the recorder's epoch.
    pub start_ns: u64,
    /// Host ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The recorder: a span stack plus every closed span.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` of `layer`.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f();
        self.open.pop();
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        out
    }

    /// Open a span that stays open until [`Recorder::exit`]; spans
    /// recorded meanwhile become its children.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Close the innermost span opened by [`Recorder::enter`].
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Every closed span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, host ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part of it
    /// its direct children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(children);
        }
        by_layer
    }

    /// The spans and per-layer self times as one JSON document.
    pub fn to_json(&self, run_id: &str) -> String {
        let mut out = format!("{{\"run_id\": \"{run_id}\",\n\"self_ns_by_layer\": {{");
        for (k, (layer, ns)) in self.self_ns_by_layer().iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{layer}\": {ns}");
        }
        out.push_str("},\n\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.enter("round", "bench");
        r.span("converge", "bgp", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit();
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = r.self_ns_by_layer();
        let round = spans[0].end_ns - spans[0].start_ns;
        let converge = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(by_layer["bench"], round - converge);
        assert_eq!(by_layer["bgp"], converge);
        assert!(r.to_json("t").contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", "y", || 7), 7);
        r.enter("a", "b");
        r.exit();
        assert!(r.spans().is_empty());
    }
}
