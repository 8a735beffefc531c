//! The per-run bookkeeping every section shares: operation counts and
//! durations, correctness-check failures, optional spans, and the
//! pinned simulated values that must repeat bit-for-bit across passes.

use crate::span::SpanRecorder;
use crate::yardstick::Yardstick;
use std::time::Instant;

/// Wall seconds `f` takes, with its result. Reported timings go
/// through [`Harness::timed`] instead; this is for the pieces of an
/// interval that [`Harness::calibrated`] brackets as a whole.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Operation and check accounting for one run, plus the span recorder
/// when the run is traced.
#[derive(Debug, Default)]
pub struct Harness {
    spans: Option<SpanRecorder>,
    tracing: bool,
    in_op: bool,
    op_failed: bool,
    /// Built on first use, so a throw-away harness costs nothing.
    yardstick: Option<Yardstick>,
    /// `(operation kind, milliseconds)` of every operation, in order.
    op_ms: Vec<(&'static str, f64)>,
    /// Entries of `op_ms` already converted to reference milliseconds.
    ops_converted: usize,
    /// Operations started.
    pub attempted: u64,
    /// Operations on which at least one correctness check failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Harness {
    /// A harness that counts and times operations and records no spans.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Start recording spans from here on (a traced pass).
    pub fn start_tracing(&mut self) {
        self.spans.get_or_insert_with(SpanRecorder::new);
        self.tracing = true;
    }

    /// Stop recording spans; those recorded so far are kept.
    pub fn stop_tracing(&mut self) {
        self.tracing = false;
    }

    /// True while spans are recorded. Sections use it to route a facade
    /// operation through the layer-by-layer replay instead.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Option<&SpanRecorder> {
        self.spans.as_ref()
    }

    /// Run `f` inside a span called `name` (`<layer>.<what>`); a plain
    /// call when the run is not tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Harness) -> R) -> R {
        if !self.tracing {
            return f(self);
        }
        if let Some(s) = &mut self.spans {
            s.enter(name);
        }
        let r = f(self);
        if let Some(s) = &mut self.spans {
            s.exit();
        }
        r
    }

    /// Run `f` between two yardstick readings and return its result
    /// with the factor that converts wall seconds inside it to
    /// *reference seconds* (see [`crate::yardstick`]). Operations that
    /// completed inside `f` have their milliseconds converted by it;
    /// where calls nest, the innermost one converts.
    pub fn calibrated<R>(&mut self, f: impl FnOnce(&mut Harness) -> R) -> (R, f64) {
        let first_op = self.op_ms.len();
        let before = self.yardstick.get_or_insert_with(Yardstick::new).reading();
        let r = f(self);
        let after = self.yardstick.get_or_insert_with(Yardstick::new).reading();
        let factor = Yardstick::reference_secs(1.0, before, after);
        // `f` may have cleared the timings (set-up does).
        let from = first_op.max(self.ops_converted).min(self.op_ms.len());
        for (_, ms) in &mut self.op_ms[from..] {
            *ms *= factor;
        }
        self.ops_converted = self.op_ms.len();
        (r, factor)
    }

    /// Run `f` and return its result with the reference seconds it took.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Harness) -> R) -> (R, f64) {
        let ((r, secs), factor) = self.calibrated(|h| wall(|| f(h)));
        (r, secs * factor)
    }

    /// Run one operation of kind `kind`: counted as attempted, timed,
    /// wrapped in a `host.op` span when tracing, and counted as failed
    /// if any [`check`](Self::check) inside it fails.
    pub fn op<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Harness) -> R) -> R {
        assert!(!self.in_op, "operations do not nest");
        self.attempted += 1;
        self.in_op = true;
        self.op_failed = false;
        if self.tracing {
            if let Some(s) = &mut self.spans {
                s.begin_op();
            }
        }
        let start = Instant::now();
        let r = self.span("host.op", f);
        self.op_ms.push((kind, start.elapsed().as_secs_f64() * 1e3));
        self.in_op = false;
        if self.op_failed {
            self.failed += 1;
        }
        r
    }

    /// Record the outcome of one correctness check of the current
    /// operation. A failed check marks the operation failed; it never
    /// panics, so the run still reports every other number.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            return;
        }
        if self.in_op {
            self.op_failed = true;
        } else {
            // A check outside any operation still has to show.
            self.attempted += 1;
            self.failed += 1;
        }
        if self.failures.len() < 16 {
            self.failures.push(what());
        }
    }

    /// Forget the operation timings recorded so far (the warm-up's).
    pub fn clear_op_ms(&mut self) {
        self.op_ms.clear();
        self.ops_converted = 0;
    }

    /// Reference milliseconds of every operation, in order.
    pub fn op_ms(&self) -> Vec<f64> {
        self.op_ms.iter().map(|(_, ms)| *ms).collect()
    }

    /// Reference milliseconds of every operation of `kind`.
    pub fn op_ms_of(&self, kind: &str) -> Vec<f64> {
        self.op_ms
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect()
    }
}

/// Simulated values pinned by the warm-up pass. Every later pass must
/// reproduce them bit-for-bit, operation by operation, whichever route
/// (facade or replay) computed them.
#[derive(Debug, Default)]
pub struct Pinned {
    reference: Vec<Vec<u64>>,
    cursor: usize,
}

impl Pinned {
    /// Rewind to the first operation; call at the start of every pass.
    pub fn start_pass(&mut self) {
        self.cursor = 0;
    }

    /// Pin (first pass) or compare (later passes) the simulated values
    /// of the next operation.
    pub fn pin(&mut self, h: &mut Harness, label: &str, values: &[f64]) {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        match self.reference.get(self.cursor) {
            None => self.reference.push(bits),
            Some(want) => {
                let ok = *want == bits;
                h.check(ok, || {
                    format!("{label}: simulated values differ from the warm-up pass")
                });
            }
        }
        self.cursor += 1;
    }

    /// Flip one bit of the first pinned value, so the next pass must
    /// report a failure. Exists for the smoke test's proof that the
    /// checks can fail; nothing on the CLI path calls it.
    pub fn corrupt(&mut self) {
        if let Some(v) = self.reference.first_mut().and_then(|r| r.first_mut()) {
            *v ^= 1;
        }
    }
}

/// True when `a` and `b` agree to within `rel` of the larger magnitude
/// (plus a tiny absolute floor for values near zero).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_its_operation_once() {
        let mut h = Harness::new();
        h.op("a", |h| {
            h.check(false, || "first".into());
            h.check(false, || "second".into());
        });
        h.op("b", |h| h.check(true, || unreachable!()));
        assert_eq!((h.attempted, h.failed), (2, 1));
        assert_eq!(h.failures, ["first", "second"]);
        assert_eq!(h.op_ms_of("a").len(), 1);
    }

    #[test]
    fn timed_converts_the_operations_inside_it_and_no_others() {
        let mut h = Harness::new();
        h.op("before", |_| ());
        let before = h.op_ms()[0];
        let ((), secs) = h.timed(|h| {
            h.timed(|h| h.op("inner", |_| ()));
            assert_eq!(
                h.ops_converted, 2,
                "the inner interval converted its operation"
            );
            h.op("outer", |_| ());
        });
        assert!(secs > 0.0);
        assert_eq!(h.ops_converted, 3);
        assert_eq!(h.op_ms()[0], before, "recorded before the interval began");
        h.clear_op_ms();
        assert_eq!((h.op_ms().len(), h.ops_converted), (0, 0));
    }

    #[test]
    fn pinned_values_must_repeat_bit_for_bit() {
        let mut h = Harness::new();
        let mut p = Pinned::default();
        for pass in 0..3 {
            p.start_pass();
            h.op("x", |h| p.pin(h, "x", &[1.5, 0.1 + 0.2]));
            h.op("y", |h| p.pin(h, "y", &[2.0]));
            assert_eq!(h.failed, 0, "pass {pass}");
        }
        p.start_pass();
        h.op("x", |h| p.pin(h, "x", &[1.5, 0.3]));
        assert_eq!(h.failed, 1, "0.1 + 0.2 is not 0.3 bit-for-bit");
        p.corrupt();
        p.start_pass();
        h.op("x", |h| p.pin(h, "x", &[1.5, 0.1 + 0.2]));
        assert_eq!(h.failed, 2, "a corrupted reference is noticed");
    }

    #[test]
    fn spans_nest_under_the_operation_when_tracing() {
        let mut h = Harness::new();
        h.op("untraced", |h| h.span("sim.x", |_| ()));
        assert!(h.spans().is_none());
        h.start_tracing();
        h.op("traced", |h| h.span("sim.x", |h| h.span("power.y", |_| ())));
        let spans = h.spans().unwrap().spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["host.op", "sim.x", "power.y"]
        );
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 1));
    }
}
