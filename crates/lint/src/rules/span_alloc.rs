//! `span-alloc`: no heap-allocated string construction in the span-
//! emission modules (`tango-trace`'s `span.rs` and `ring.rs`). Span
//! recording runs on the simulator's per-event path whenever a ring is
//! armed, so every label must be a `&'static str` drawn from the fixed
//! `SpanKind` vocabulary. A `String` or `format!` there would add an
//! allocation per event — wrecking the armed-run throughput budget —
//! and invite free-form, run-varying text into artifacts that CI
//! compares byte-for-byte. Exporters (`export.rs`, `query.rs`) run once
//! per dump, off the hot path, and are out of scope.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::registry::Rule;
use crate::rules::is_method_call;
use crate::scan::{FileScan, TokKind};

/// Allocating methods a span-emission path must not call. (`String::from`
/// needs no entry: any mention of the `String` type is already banned.)
const ALLOC_METHODS: &[(&str, &str)] = &[
    ("to_string", "`.to_string()` allocates a `String` per span"),
    ("to_owned", "`.to_owned()` allocates an owned copy per span"),
    ("push_str", "`.push_str(..)` grows a heap `String`"),
    ("to_vec", "`.to_vec()` allocates a `Vec` copy per span"),
];

/// See the module docs.
pub struct SpanAlloc;

impl Rule for SpanAlloc {
    fn name(&self) -> &'static str {
        "span-alloc"
    }

    fn description(&self) -> &'static str {
        "forbid String/format! in span-emission paths (labels are a fixed &'static str vocabulary)"
    }

    fn applies(&self, path: &str) -> bool {
        config::is_span_emission_module(path)
    }

    // Tests may format freely; only the recording path is guarded.
    fn include_test_code(&self) -> bool {
        false
    }

    fn check(&self, path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
        for (line, column, what, fix) in find_alloc_sites(scan, 0..scan.tokens.len()) {
            out.push(Diagnostic {
                rule: self.name(),
                severity: self.severity(),
                file: path.to_string(),
                line,
                column,
                chain: Vec::new(),
                message: format!("{what} — span-emission paths must stay allocation-free"),
                help: Some(format!(
                    "{fix}, or suppress with `tango-lint: allow({}) <reason>`",
                    self.name()
                )),
            });
        }
    }
}

/// The raw matcher: every allocation site in a token range. Shared by the
/// module-scoped rule above and the reachability-based pass
/// ([`crate::reach`]).
pub(crate) fn find_alloc_sites(
    scan: &FileScan,
    range: std::ops::Range<usize>,
) -> Vec<(u32, u32, String, String)> {
    let toks = &scan.tokens;
    let mut out = Vec::new();
    for i in range {
        let tok = &toks[i];
        let finding: Option<(String, &str)> = match &tok.kind {
            TokKind::Ident if tok.text == "String" => Some((
                "the `String` type has no place in span emission".to_string(),
                "carry a `&'static str` from the fixed span vocabulary",
            )),
            TokKind::Ident if tok.text == "format" && is_macro_bang(scan, i) => Some((
                "`format!` allocates and formats on every span".to_string(),
                "encode variability in numeric span fields, not label text",
            )),
            TokKind::Ident if tok.text == "vec" && is_macro_bang(scan, i) => Some((
                "`vec![…]` heap-allocates on every span".to_string(),
                "use a fixed-size array or preallocated ring storage",
            )),
            TokKind::Ident
                if tok.text == "new" && crate::rules::is_path_segment(toks, i, Some("Box")) =>
            {
                Some((
                    "`Box::new(…)` heap-allocates on every span".to_string(),
                    "store the value inline (spans are plain-old-data)",
                ))
            }
            TokKind::Ident if is_method_call(toks, i) => ALLOC_METHODS
                .iter()
                .find(|(m, _)| tok.text == *m)
                .map(|&(_, what)| {
                    (
                        what.to_string(),
                        "carry a `&'static str` from the fixed span vocabulary",
                    )
                }),
            _ => None,
        };
        if let Some((what, fix)) = finding {
            out.push((tok.line, tok.column, what, fix.to_string()));
        }
    }
    out
}

/// Is the ident at token `i` a macro invocation (followed by `!`)?
fn is_macro_bang(scan: &FileScan, i: usize) -> bool {
    matches!(scan.at(i + 1), Some(t) if t.kind == TokKind::Punct('!'))
}
