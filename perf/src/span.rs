//! The benchmark's own span recorder.
//!
//! A traced run wraps every call from the benchmark into one of the
//! repo's crates in a span named `<layer>.<what>` (the layer is the
//! crate). Spans stay in memory until the run ends and are then
//! written as JSON lines. A span's *self time* is its duration minus
//! the part of it covered by its children, so self times over a tree
//! add up to the root's duration and a layer's cost can be read
//! without double counting.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// The layer (crate) a span is billed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Self time of every span in `spans`: its duration minus the union of
/// its children's intervals, each clipped to the span itself. Children
/// may nest deeper (only direct children are subtracted) and may
/// overlap one another (the union counts shared time once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// In-memory span sink for one run.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from here on share its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in nanoseconds: over all recorded spans, or
    /// over the spans named `under` and everything inside them.
    pub fn layer_self_ns(&self, under: Option<&str>) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        // A parent is always recorded before its children.
        let mut inside = Vec::with_capacity(self.spans.len());
        for (s, t) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let counted = match under {
                None => true,
                Some(name) => s.name == name || s.parent.is_some_and(|p| inside[p]),
            };
            inside.push(counted);
            if counted {
                *by_layer.entry(s.layer()).or_insert(0) += t;
            }
        }
        by_layer
    }

    /// One JSON object per span: `id`, `name`, `layer`, `start_ns`,
    /// `end_ns`, `self_ns`, `parent` (an `id` or null) and `op`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"op\":{}}}\n",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.op
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30); root ⊃ c [70,90).
        let spans = vec![
            span("host.root", 0, 100, None),
            span("sim.a", 10, 60, Some(0)),
            span("power.b", 20, 30, Some(1)),
            span("sim.c", 70, 90, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![30, 40, 10, 20]);
        assert_eq!(st.iter().sum::<u64>(), 100, "self times add up to the root");
    }

    #[test]
    fn overlapping_children_count_shared_time_once() {
        // Two children overlap on [30,50); a third is contained in the
        // first; one sticks out past the parent's end and is clipped.
        let spans = vec![
            span("host.root", 0, 100, None),
            span("sim.a", 10, 50, Some(0)),
            span("sim.b", 30, 70, Some(0)),
            span("sim.c", 15, 20, Some(0)),
            span("sim.d", 90, 130, Some(0)),
        ];
        // Union of children inside the root: [10,70) ∪ [90,100) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn layers_aggregate_self_time_by_name_prefix() {
        let mut rec = SpanRecorder::new();
        rec.begin_op();
        rec.enter("host.op");
        rec.enter("sim.run");
        rec.exit();
        rec.enter("sim.finish");
        rec.exit();
        rec.exit();
        let layers = rec.layer_self_ns(None);
        assert_eq!(layers.keys().copied().collect::<Vec<_>>(), ["host", "sim"]);
        let root = &rec.spans()[0];
        assert_eq!(
            layers.values().sum::<u64>(),
            root.end_ns - root.start_ns,
            "self times partition the root span"
        );
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.to_jsonl().lines().count(), 3);
        let under = rec.layer_self_ns(Some("sim.run"));
        assert_eq!(under.keys().copied().collect::<Vec<_>>(), ["sim"]);
        let run = &rec.spans()[1];
        assert_eq!(under["sim"], run.end_ns - run.start_ns);
        assert!(rec.layer_self_ns(Some("no.such")).is_empty());
    }
}
