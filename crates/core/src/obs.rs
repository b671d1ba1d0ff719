//! Structured run observability: one [`Registry`] of counters, gauges,
//! histograms and per-phase wall timers per experiment run, serialized as
//! JSON lines.
//!
//! Results leave a run as values. The driver ([`crate::driver::drive`])
//! fills a registry per run, its caller (the simulated or a live cluster)
//! adds its own rows and hands it to [`emit`],
//! which has one sink: the innermost [`captured`] buffer open on the calling
//! thread. With no buffer open the registry is dropped and [`enabled`] is
//! `false` — library users and unit tests pay nothing. Whoever opened the
//! buffer owns what comes back and does the merging: `repro --metrics-out`
//! wraps each experiment in [`captured`] and folds the registries into one
//! [`ExperimentRecord`]; a parallel executor captures per cell on its
//! workers and re-emits on the caller's thread in submission order (see
//! `dsj_bench::suite`). There is no process-wide state.
//!
//! Deliberately *not* part of [`crate::ExperimentReport`]: reports are
//! compared bit-for-bit in determinism and trace-replay tests, while wall
//! timings differ on every run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use dsj_simnet::metrics::Log2Histogram as Histogram;

/// Wall-clock accounting of one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Times the phase executed.
    pub calls: u64,
    /// Total wall seconds across calls.
    pub secs: f64,
}

/// A metrics registry for one run: monotonically increasing counters,
/// last-write gauges, log₂ histograms, and per-phase wall timers.
///
/// Registries from multiple runs of the same experiment [`merge`] into
/// one record: counters, histograms and phase timers accumulate; gauges
/// keep the merged-in (latest) value.
///
/// [`merge`]: Registry::merge
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    phases: BTreeMap<String, PhaseStat>,
}

impl Registry {
    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Merges an externally maintained histogram into histogram `name`.
    pub fn histogram_merge(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Adds one `elapsed` interval to phase `name`.
    pub fn phase_add(&mut self, name: &str, elapsed: Duration) {
        let p = self.phases.entry(name.to_string()).or_default();
        p.calls += 1;
        p.secs += elapsed.as_secs_f64();
    }

    /// Runs `f`, recording its wall time under phase `name`.
    #[allow(
        clippy::disallowed_methods,
        reason = "phase timers report wall time beside the results, never inside them"
    )]
    pub fn time_phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.phase_add(name, start.elapsed());
        out
    }

    /// Counter `name`'s value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `name`'s value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Phase `name`'s accumulated timing, if it ran.
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        self.phases.get(name).copied()
    }

    /// Accumulates `other` into this registry (see type docs for the
    /// per-kind semantics).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, p) in &other.phases {
            let mine = self.phases.entry(k.clone()).or_default();
            mine.calls += p.calls;
            mine.secs += p.secs;
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("\"phases\":{");
        for (i, (name, p)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            let _ = write!(out, ":{{\"calls\":{},\"secs\":", p.calls);
            write_json_f64(out, p.secs);
            out.push('}');
        }
        out.push_str("},");
        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            out.push(':');
            write_json_f64(out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
            write_json_f64(out, h.mean());
            out.push_str(",\"buckets\":[");
            for (j, (upper, count)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{upper},{count}]");
            }
            out.push_str("]}");
        }
        out.push('}');
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// One experiment's merged metrics: every registry a [`captured`] experiment
/// emitted, folded in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Submission index (orders the JSONL output deterministically).
    pub index: u64,
    /// Experiment label (e.g. `"fig9"`).
    pub label: String,
    /// Number of runs merged into [`ExperimentRecord::registry`].
    pub runs: u64,
    /// The merged metrics.
    pub registry: Registry,
}

impl ExperimentRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"experiment\":");
        write_json_string(&mut out, &self.label);
        let _ = write!(out, ",\"index\":{},\"runs\":{},", self.index, self.runs);
        self.registry.write_json(&mut out);
        out.push('}');
        out
    }
}

thread_local! {
    /// The capture buffers open on this thread, innermost last.
    static CAPTURE: RefCell<Vec<Vec<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's [`emit`] calls collected into a fresh
/// buffer, and returns `f`'s result plus the captured registries in
/// emission order. Nested calls capture separately: an inner buffer's
/// registries reach the outer one only if the caller re-emits them.
///
/// Merging registries is order-sensitive (gauges are last-write-wins), so a
/// parallel executor captures per cell on its workers and re-emits every
/// buffer from the calling thread in submission order — completion order
/// never reaches a merged record.
pub fn captured<R>(f: impl FnOnce() -> R) -> (R, Vec<Registry>) {
    /// Closes this call's buffer, also when `f` panics.
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            CAPTURE.with(|c| c.borrow_mut().pop());
        }
    }
    CAPTURE.with(|c| c.borrow_mut().push(Vec::new()));
    let _close = Close;
    let out = f();
    let buf = CAPTURE.with(|c| c.borrow_mut().last_mut().map(std::mem::take));
    (out, buf.unwrap_or_default())
}

/// `true` when a [`captured`] buffer is open on this thread — i.e. when
/// filling a registry will not be wasted work.
pub fn enabled() -> bool {
    CAPTURE.with(|c| !c.borrow().is_empty())
}

/// Hands a run's registry to the innermost [`captured`] buffer open on
/// this thread; with none open the registry is dropped.
pub fn emit(registry: Registry) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().last_mut() {
            buf.push(registry);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    #[test]
    fn registry_kinds_and_merge() {
        let mut a = Registry::default();
        a.counter_add("msgs", 3);
        a.counter_add("msgs", 2);
        a.gauge_set("eps", 0.15);
        a.histogram_merge("bytes", &hist(&[100]));
        a.phase_add("simulate", Duration::from_millis(10));
        assert_eq!(a.counter("msgs"), 5);
        assert_eq!(a.gauge("eps"), Some(0.15));
        assert_eq!(a.histogram("bytes").unwrap().count(), 1);
        assert!(a.phase("simulate").unwrap().secs > 0.0);
        assert_eq!(a.counter("absent"), 0);
        assert!(a.gauge("absent").is_none());

        let mut b = Registry::default();
        b.counter_add("msgs", 10);
        b.gauge_set("eps", 0.10);
        b.histogram_merge("bytes", &hist(&[200]));
        b.phase_add("simulate", Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.counter("msgs"), 15);
        assert_eq!(
            a.gauge("eps"),
            Some(0.10),
            "gauges keep the merged-in value"
        );
        assert_eq!(a.histogram("bytes").unwrap().count(), 2);
        assert_eq!(a.phase("simulate").unwrap().calls, 2);
    }

    #[test]
    fn time_phase_returns_value() {
        let mut r = Registry::default();
        let v = r.time_phase("work", || 42);
        assert_eq!(v, 42);
        assert_eq!(r.phase("work").unwrap().calls, 1);
    }

    #[test]
    fn json_line_is_well_formed() {
        let mut r = Registry::default();
        r.counter_add("node.00.arrivals", 7);
        r.gauge_set("epsilon", 0.25);
        r.gauge_set("weird\"name", f64::NAN);
        r.histogram_merge("net.msg_bytes", &hist(&[20, 300]));
        r.phase_add("simulate", Duration::from_secs(1));
        let record = ExperimentRecord {
            index: 2,
            label: "fig9".into(),
            runs: 3,
            registry: r,
        };
        let line = record.to_json_line();
        assert!(line.starts_with(
            "{\"experiment\":\"fig9\",\"index\":2,\"runs\":3,\
             \"phases\":{\"simulate\":{\"calls\":1,\"secs\":1}},\"counters\":{"
        ));
        assert!(line.contains("\"node.00.arrivals\":7"));
        assert!(line.contains("\"epsilon\":0.25"));
        assert!(line.contains("\"weird\\\"name\":null"));
        assert!(line.contains("\"buckets\":[[31,1],[511,1]]"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
        // Structural sanity: balanced braces/brackets outside strings.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in line.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable_in_json() {
        // Values straddling every power-of-two boundary land in pinned
        // buckets: the serialized bounds are part of the JSONL contract.
        let mut r = Registry::default();
        r.histogram_merge("h", &hist(&[0, 1, 2, 3, 4, 127, 128, u64::MAX]));
        let line = ExperimentRecord {
            index: 0,
            label: "b".into(),
            runs: 1,
            registry: r,
        }
        .to_json_line();
        let expected =
            "\"buckets\":[[0,1],[1,1],[3,2],[7,1],[127,1],[255,1],[18446744073709551615,1]]";
        assert!(line.contains(expected), "{line}");
        assert!(line.contains("\"count\":8,"), "{line}");
        assert!(
            line.contains("\"min\":0,\"max\":18446744073709551615,"),
            "{line}"
        );
    }

    fn one(name: &str) -> Registry {
        let mut r = Registry::default();
        r.counter_add(name, 1);
        r
    }

    #[test]
    fn emit_outside_any_capture_is_dropped() {
        assert!(!enabled());
        emit(one("x"));
        // Nothing was waiting for it: a buffer opened afterwards is empty.
        let ((), regs) = captured(|| assert!(enabled()));
        assert!(regs.is_empty());
        assert!(!enabled());
    }

    #[test]
    fn capture_scoping_and_merge() {
        let (inner, outer) = captured(|| {
            assert!(enabled());
            emit(one("x"));
            emit(one("x"));
            let ((), inner) = captured(|| emit(one("y")));
            // The outer buffer is the sink again after the nested block.
            emit(one("x"));
            inner
        });
        // The inner buffer did not leak into the outer one.
        assert_eq!(outer.len(), 3);
        assert_eq!(inner.len(), 1);
        let mut merged = Registry::default();
        outer.iter().for_each(|r| merged.merge(r));
        assert_eq!(merged.counter("x"), 3);
        assert_eq!(merged.counter("y"), 0);
        assert_eq!(inner[0].counter("y"), 1);
        // After the buffer closes, emits vanish quietly.
        assert!(!enabled());
        emit(Registry::default());
    }

    #[test]
    fn outer_buffer_survives_a_panic_inside_an_inner_capture() {
        let ((), outer) = captured(|| {
            emit(one("before"));
            let caught = std::panic::catch_unwind(|| {
                captured(|| {
                    emit(one("lost"));
                    panic!("inner closure panics");
                })
            });
            assert!(caught.is_err());
            // The inner buffer was closed on unwind: this lands outside.
            assert!(enabled());
            emit(one("after"));
        });
        // The outer buffer keeps its own two, in order, and nothing else.
        assert_eq!(outer.len(), 2);
        assert_eq!(outer[0].counter("before"), 1);
        assert_eq!(outer[1].counter("after"), 1);
        assert!(outer.iter().all(|r| r.counter("lost") == 0));
        assert!(!enabled());
    }
}
