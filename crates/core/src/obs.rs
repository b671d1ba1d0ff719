//! Structured run observability: one [`Registry`] of counters, gauges,
//! histograms and per-phase wall timers per experiment run, serialized as
//! JSON lines.
//!
//! The runner ([`crate::ClusterConfig::run`]) and the live cluster fill a
//! registry per run and hand it to [`emit`]. Emission is a no-op unless a
//! harness has both installed a [`Collector`] and declared the current
//! experiment scope ([`scoped`]) — so library users and unit tests pay
//! nothing, while `repro --metrics-out` gets one merged record per
//! experiment, ordered by submission index. Scopes are thread-local; a
//! parallel executor re-establishes the caller's scope inside its workers
//! (see `dsj_bench::suite`).
//!
//! Deliberately *not* part of [`crate::ExperimentReport`]: reports are
//! compared bit-for-bit in determinism and trace-replay tests, while wall
//! timings differ on every run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

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

    fn write_json(&self, out: &mut String, include_phases: bool) {
        if include_phases {
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
        }
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

/// One experiment's merged metrics, as drained from a [`Collector`].
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
        self.render(true)
    }

    /// Renders the record's *deterministic* projection: identical to
    /// [`Self::to_json_line`] minus the `phases` object, whose wall-clock
    /// seconds differ on every run. Two runs of the same seeded experiment
    /// must produce byte-identical stable lines.
    pub fn to_stable_json_line(&self) -> String {
        self.render(false)
    }

    fn render(&self, include_phases: bool) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"experiment\":");
        write_json_string(&mut out, &self.label);
        let _ = write!(out, ",\"index\":{},\"runs\":{},", self.index, self.runs);
        self.registry.write_json(&mut out, include_phases);
        out.push('}');
        out
    }
}

#[derive(Default)]
struct CollectorInner {
    records: Mutex<BTreeMap<u64, (String, u64, Registry)>>,
}

/// Collects every [`emit`]ted registry, merged per experiment scope.
///
/// Installing a collector makes it the process-wide sink; at most one is
/// installed at a time (a second installer blocks until the first is
/// dropped, which also serializes tests). Dropping uninstalls.
pub struct Collector {
    inner: Arc<CollectorInner>,
    _exclusive: MutexGuard<'static, ()>,
}

fn exclusivity() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn sink() -> &'static Mutex<Option<Arc<CollectorInner>>> {
    static SINK: OnceLock<Mutex<Option<Arc<CollectorInner>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

impl Collector {
    /// Installs a fresh collector as the process-wide sink.
    pub fn install() -> Collector {
        let exclusive = exclusivity().lock().unwrap_or_else(|e| e.into_inner());
        let inner = Arc::new(CollectorInner::default());
        *sink().lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&inner));
        Collector {
            inner,
            _exclusive: exclusive,
        }
    }

    /// Removes and returns everything collected so far, ordered by
    /// submission index.
    pub fn drain(&self) -> Vec<ExperimentRecord> {
        let mut records = self.inner.records.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *records)
            .into_iter()
            .map(|(index, (label, runs, registry))| ExperimentRecord {
                index,
                label,
                runs,
                registry,
            })
            .collect()
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        *sink().lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

thread_local! {
    static SCOPE: RefCell<Option<(String, u64)>> = const { RefCell::new(None) };
}

/// Runs `f` with the current thread's experiment scope set to
/// `(label, index)`, restoring the previous scope afterwards. Registries
/// [`emit`]ted inside merge into that experiment's record.
pub fn scoped<R>(label: &str, index: u64, f: impl FnOnce() -> R) -> R {
    let prev = SCOPE.with(|s| s.replace(Some((label.to_string(), index))));
    // Guard restores `prev` even if `f` panics.
    let _guard = RestoreScope(prev);
    f()
}

struct RestoreScope(Option<(String, u64)>);

impl Drop for RestoreScope {
    fn drop(&mut self) {
        let prev = self.0.take();
        SCOPE.with(|s| *s.borrow_mut() = prev);
    }
}

/// The current thread's experiment scope, if any — parallel executors use
/// this to propagate the caller's scope into worker threads.
pub fn current_scope() -> Option<(String, u64)> {
    SCOPE.with(|s| s.borrow().clone())
}

thread_local! {
    static CAPTURE: RefCell<Option<Vec<Registry>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's [`emit`] calls diverted into a buffer, and
/// returns `f`'s result plus the captured registries in emission order.
///
/// Merging a registry into an experiment record is order-sensitive (gauges
/// are last-write-wins), so a parallel executor must not let worker
/// threads emit straight into the shared collector — completion order
/// would leak into the merged record. Workers capture instead, and the
/// caller re-emits every buffer in submission order.
pub fn captured<R>(f: impl FnOnce() -> R) -> (R, Vec<Registry>) {
    let prev = CAPTURE.with(|c| c.replace(Some(Vec::new())));
    // Guard restores the previous buffer even if `f` panics.
    struct RestoreCapture(Option<Option<Vec<Registry>>>);
    impl Drop for RestoreCapture {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CAPTURE.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let mut guard = RestoreCapture(Some(prev));
    let out = f();
    let prev = guard.0.take().unwrap_or_default();
    let buf = CAPTURE.with(|c| c.replace(prev)).unwrap_or_default();
    (out, buf)
}

/// `true` when a [`Collector`] is installed and this thread has a scope —
/// i.e. when filling a registry will not be wasted work.
pub fn enabled() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
        && sink().lock().unwrap_or_else(|e| e.into_inner()).is_some()
}

/// Hands a run's registry to the installed collector under the current
/// scope. A no-op (the registry is dropped) when no collector is
/// installed or no scope is set.
pub fn emit(registry: Registry) {
    let registry = match CAPTURE.with(move |c| {
        let mut buf = c.borrow_mut();
        match buf.as_mut() {
            Some(captured) => {
                captured.push(registry);
                None
            }
            None => Some(registry),
        }
    }) {
        Some(r) => r,
        None => return,
    };
    let Some((label, index)) = current_scope() else {
        return;
    };
    let Some(inner) = sink()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
    else {
        return;
    };
    let mut records = inner.records.lock().unwrap_or_else(|e| e.into_inner());
    let slot = records
        .entry(index)
        .or_insert_with(|| (label, 0, Registry::new()));
    slot.1 += 1;
    slot.2.merge(&registry);
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
        let mut a = Registry::new();
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

        let mut b = Registry::new();
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
        let mut r = Registry::new();
        let v = r.time_phase("work", || 42);
        assert_eq!(v, 42);
        assert_eq!(r.phase("work").unwrap().calls, 1);
    }

    #[test]
    fn json_line_is_well_formed() {
        let mut r = Registry::new();
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
        // The stable projection is the same line minus the phases object.
        assert_eq!(
            record.to_stable_json_line(),
            line.replace("\"phases\":{\"simulate\":{\"calls\":1,\"secs\":1}},", "")
        );
        assert!(line.starts_with("{\"experiment\":\"fig9\",\"index\":2,\"runs\":3,"));
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
        let mut r = Registry::new();
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

    #[test]
    fn collector_scoping_and_merge() {
        let collector = Collector::install();
        // No scope: dropped.
        let mut r = Registry::new();
        r.counter_add("x", 1);
        emit(r.clone());
        assert!(collector.drain().is_empty());
        assert!(!enabled());

        scoped("expA", 0, || {
            assert!(enabled());
            assert_eq!(current_scope(), Some(("expA".to_string(), 0)));
            emit(r.clone());
            emit(r.clone());
            scoped("expB", 1, || emit(r.clone()));
            // Scope restored after the nested block.
            emit(r.clone());
        });
        let records = collector.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "expA");
        assert_eq!(records[0].runs, 3);
        assert_eq!(records[0].registry.counter("x"), 3);
        assert_eq!(records[1].label, "expB");
        assert_eq!(records[1].runs, 1);
        drop(collector);
        // After uninstall, emits vanish quietly.
        scoped("expA", 0, || {
            assert!(!enabled());
            emit(Registry::new());
        });
    }
}
