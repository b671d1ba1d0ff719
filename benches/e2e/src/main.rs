//! `dsj-e2e`: the repository's benchmark.
//!
//! Two ways to run it:
//!
//! * `--workload NAME [--trace 0|1]` measures one workload and prints, as
//!   the last line of standard output, one JSON object `{correct,
//!   attempted, failed, metrics}` — the end-to-end metrics with `--trace
//!   0`, the per-layer metrics with `--trace 1`. This is the form
//!   `BENCHMARK.json` names.
//! * Without `--workload` it runs every workload (or `--only NAME`), end to
//!   end and traced, prints every metric by name with its unit, and with
//!   `--sets 2` runs the end-to-end part twice and compares the medians
//!   against the bounds.
//!
//! Either way the correctness gate runs first, and any failed check makes
//! the command exit non-zero. See `README.md` beside this package.

mod gate;
mod host;
mod json;
mod layers;
mod stats;
mod system;
mod trace;
mod workload;

use json::Json;
use layers::{LayerResult, PER_LAYER};
use stats::relative_change;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Better, Effort, EndToEndResult, Workload, END_TO_END, WORKLOADS};

const USAGE: &str = "usage: dsj-e2e [--workload NAME [--trace 0|1]] [--only NAME] [--seed N] \
[--seconds S | --reps R] [--quick] [--sets K] [--out PATH] [--spans-out PATH] [--no-pin] \
[--break-reference]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<&'static Workload>,
    only: Option<&'static Workload>,
    trace: bool,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    quick: bool,
    sets: usize,
    out: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    no_pin: bool,
    break_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        only: None,
        trace: false,
        seed: 42,
        seconds: 25.0,
        reps: None,
        quick: false,
        sets: 1,
        out: None,
        spans_out: None,
        no_pin: false,
        break_reference: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let named = |name: &String| {
            workload::find(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(named(value()?)?),
            "--only" => args.only = Some(named(value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--reps" => args.reps = Some(number(flag, value()?)?),
            "--sets" => args.sets = number(flag, value()?)?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--spans-out" => args.spans_out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            "--no-pin" => args.no_pin = true,
            "--break-reference" => args.break_reference = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    if args.reps == Some(0) || args.sets == 0 {
        return Err("--reps and --sets must be at least 1".to_string());
    }
    Ok(args)
}

impl Args {
    fn effort(&self) -> Effort {
        Effort {
            quick: self.quick,
            seconds: if self.quick {
                self.seconds.min(1.0)
            } else {
                self.seconds
            },
            reps: self.reps,
            reference_window: system::WINDOW - usize::from(self.break_reference),
        }
    }
}

fn print_end_to_end(r: &EndToEndResult) {
    println!(
        "{}: {} repetitions, {} tuples attempted, {} failed (failed_ratio {})",
        r.workload,
        r.metrics.first().map_or(0, |m| m.n),
        r.attempted,
        r.failed,
        r.failed_ratio()
    );
    println!(
        "  {:<18}{:>16}{:>16}{:>16}{:>8}  {:<6} {:<7}{:>6}",
        "metric", "median", "q1", "q3", "spread", "unit", "better", "bound"
    );
    let row = |name: &str, s: &stats::Summary, tail: String| {
        println!(
            "  {name:<18}{:>16.6}{:>16.6}{:>16.6}{:>7.1}%  {tail}",
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0
        );
    };
    for (def, m) in END_TO_END.iter().zip(&r.metrics) {
        let tail = format!(
            "{:<6} {:<7}{:>5.0}%",
            def.unit,
            def.better.label(),
            def.bound * 100.0
        );
        row(def.name, m, tail);
    }
    if let Some([p50, p99]) = &r.latency_us {
        row(
            "p50_delivery_us",
            p50,
            "us     lower   (not bounded)".into(),
        );
        row(
            "p99_delivery_us",
            p99,
            "us     lower   (not bounded)".into(),
        );
    }
}

fn print_layers(r: &LayerResult) {
    println!("{}: per-layer metrics over {} tuples", r.workload, r.tuples);
    for (def, v) in PER_LAYER.iter().zip(&r.values) {
        println!("  {:<40}{:>16.4}  {}", def.name, v, def.unit);
    }
    print!("{}", r.table);
}

fn print_failures(failures: &[String]) {
    for f in failures {
        println!("GATE FAILED: {f}");
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The line `BENCHMARK.json`'s command ends its output with.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn end_to_end_line(r: &EndToEndResult) -> Json {
    let metrics = END_TO_END
        .iter()
        .zip(&r.metrics)
        .map(|(def, m)| (def.name, metric_json(m.median, def.unit)))
        .collect();
    result_line(r.failures.is_empty(), r.attempted, r.failed, metrics)
}

fn layer_metrics(r: &LayerResult) -> Vec<(&'static str, Json)> {
    PER_LAYER
        .iter()
        .zip(&r.values)
        .map(|(def, v)| (def.name, metric_json(*v, def.unit)))
        .collect()
}

fn layers_line(r: &LayerResult) -> Json {
    result_line(r.failures.is_empty(), r.tuples, 0, layer_metrics(r))
}

/// One workload, one JSON line: the form the driver runs.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let (line, failures) = if args.trace {
        let r = traced(w, args, true);
        print_layers(&r);
        (layers_line(&r), r.failures)
    } else {
        let r = workload::measure(w, args.seed, args.effort());
        print_end_to_end(&r);
        (end_to_end_line(&r), r.failures)
    };
    print_failures(&failures);
    println!("{}", line.render());
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn traced(w: &Workload, args: &Args, lockstep: bool) -> LayerResult {
    layers::traced_pass(
        w,
        args.seed,
        args.effort(),
        lockstep,
        args.spans_out.as_deref(),
    )
}

/// Whether `second` is no worse than `first` by more than `bound`.
fn within_bound(better: Better, bound: f64, first: f64, second: f64) -> bool {
    let change = relative_change(first, second);
    match better {
        Better::Higher => change >= -bound,
        Better::Lower => change <= bound,
    }
}

/// Every workload, end to end (`sets` times) and traced (once).
fn run_all(args: &Args, nproc: usize, pinned_cpu: Option<u32>) -> ExitCode {
    let fingerprint = host::fingerprint(args.seed, nproc, pinned_cpu);
    println!("host: {}", fingerprint.render());
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.only.is_none_or(|only| only.name == w.name))
        .collect();
    let mut ok = true;
    let mut sets: Vec<Vec<EndToEndResult>> = Vec::new();
    for set in 0..args.sets {
        println!("\n== end to end, set {} of {} ==", set + 1, args.sets);
        let mut results = Vec::new();
        for w in &chosen {
            let r = workload::measure(w, args.seed, args.effort());
            print_end_to_end(&r);
            print_failures(&r.failures);
            ok &= r.failures.is_empty();
            results.push(r);
        }
        sets.push(results);
    }
    println!("\n== traced pass ==");
    let layer_results: Vec<LayerResult> = chosen
        .iter()
        .map(|w| {
            let r = traced(w, args, false);
            print_layers(&r);
            print_failures(&r.failures);
            ok &= r.failures.is_empty();
            r
        })
        .collect();
    if args.sets >= 2 {
        println!("\n== agreement of set 1 and set {} ==", args.sets);
        println!(
            "  {:<18}{:<18}{:>16}{:>16}{:>9}{:>7}",
            "workload", "metric", "set 1", "set 2", "change", "bound"
        );
        let (first, last) = (&sets[0], &sets[args.sets - 1]);
        for (a, b) in first.iter().zip(last) {
            for (i, def) in END_TO_END.iter().enumerate() {
                let (ma, mb) = (a.metrics[i].median, b.metrics[i].median);
                let verdict = if within_bound(def.better, def.bound, ma, mb) {
                    "ok"
                } else {
                    "MISS"
                };
                println!(
                    "  {:<18}{:<18}{:>16.6}{:>16.6}{:>8.2}%{:>6.0}%  {verdict}",
                    a.workload,
                    def.name,
                    ma,
                    mb,
                    100.0 * relative_change(ma, mb),
                    100.0 * def.bound
                );
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = results_document(fingerprint, args, &sets, &layer_results);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nresults written to {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("\nthe correctness gate failed");
        ExitCode::FAILURE
    }
}

/// Everything one invocation measured, as one JSON document.
fn results_document(
    fingerprint: Json,
    args: &Args,
    sets: &[Vec<EndToEndResult>],
    layer_results: &[LayerResult],
) -> Json {
    let end_to_end = |r: &EndToEndResult| {
        let metrics = END_TO_END
            .iter()
            .zip(&r.metrics)
            .map(|(def, m)| {
                (
                    def.name,
                    Json::obj(vec![
                        ("median", Json::Num(m.median)),
                        ("q1", Json::Num(m.q1)),
                        ("q3", Json::Num(m.q3)),
                        ("n", Json::Num(m.n as f64)),
                        ("unit", Json::str(def.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(r.workload)),
            ("correct", Json::Bool(r.failures.is_empty())),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("failed_ratio", Json::Num(r.failed_ratio())),
            ("metrics", Json::obj(metrics)),
        ])
    };
    let per_layer = |r: &LayerResult| {
        Json::obj(vec![
            ("workload", Json::str(r.workload)),
            ("correct", Json::Bool(r.failures.is_empty())),
            ("tuples", Json::Num(r.tuples as f64)),
            ("metrics", Json::obj(layer_metrics(r))),
        ])
    };
    Json::obj(vec![
        ("host", fingerprint),
        ("quick", Json::Bool(args.quick)),
        ("seconds", Json::Num(args.seconds)),
        (
            "reps",
            args.reps.map_or(Json::Null, |r| Json::Num(r as f64)),
        ),
        (
            "end_to_end",
            Json::Arr(
                sets.iter()
                    .map(|set| Json::Arr(set.iter().map(end_to_end).collect()))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(layer_results.iter().map(per_layer).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits the CPU.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned_cpu = if args.no_pin {
        None
    } else {
        host::pin_to_one_cpu()
            .map_err(|e| eprintln!("warning: not pinned to one CPU ({e}); live workloads are noisier on {nproc} CPUs, and not comparable with pinned runs"))
            .ok()
    };
    match pinned_cpu {
        Some(cpu) => println!("cpu: pinned to CPU {cpu}, one of {nproc}"),
        None => println!("cpu: not pinned, {nproc} CPUs"),
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args, nproc, pinned_cpu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::Summary;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "tcp-dftt-open",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("tcp-dftt-open"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--reps", "0"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
        assert!(!a.no_pin);
        let quick = parse_args(&strings(&["--quick", "--break-reference", "--no-pin"])).unwrap();
        assert!(quick.no_pin);
        assert_eq!(quick.effort().seconds, 1.0);
        assert_eq!(quick.effort().reference_window, system::WINDOW - 1);
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let r = EndToEndResult {
            workload: "sim-dftt-steady",
            attempted: 2_000_000,
            failed: 0,
            failures: vec![],
            metrics: (0..END_TO_END.len())
                .map(|i| Summary::of(&[1.5 + i as f64, 1.0 / 3.0 + i as f64, 1.0 / 3.0]))
                .collect(),
            latency_us: None,
        };
        let text = end_to_end_line(&r).render();
        assert!(!text.contains('\n'));
        let back = Json::parse(&text).unwrap();
        let Json::Obj(fields) = &back else {
            panic!("{text}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            back.get("attempted").and_then(Json::as_f64),
            Some(2_000_000.0)
        );
        let metrics = back.get("metrics").unwrap();
        for (def, m) in END_TO_END.iter().zip(&r.metrics) {
            let entry = metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{}", def.name));
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.median));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        // A failed gate shows as `correct: false`.
        let mut bad = r.clone();
        bad.failures.push("truth differs".into());
        assert_eq!(
            end_to_end_line(&bad).get("correct"),
            Some(&Json::Bool(false))
        );
        // The per-layer line carries every per-layer metric.
        let layers = LayerResult {
            workload: "w",
            tuples: 10,
            failures: vec![],
            values: (0..PER_LAYER.len()).map(|i| i as f64 * 0.5).collect(),
            table: String::new(),
        };
        let line = Json::parse(&layers_line(&layers).render()).unwrap();
        let Some(Json::Obj(m)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        assert!(within_bound(Better::Higher, 0.10, 100.0, 91.0));
        assert!(!within_bound(Better::Higher, 0.10, 100.0, 89.0));
        assert!(within_bound(Better::Higher, 0.10, 100.0, 150.0));
        assert!(within_bound(Better::Lower, 0.25, 100.0, 124.0));
        assert!(!within_bound(Better::Lower, 0.25, 100.0, 126.0));
        assert!(within_bound(Better::Lower, 0.25, 100.0, 10.0));
    }

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// package must say the same thing.
    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let Json::Obj(top) = &doc else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(j, "name"), w.name);
            assert_eq!(text_of(j, "why"), w.why);
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better.label());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better.label());
        }
        assert_eq!(list("paths"), vec![Json::str("benches/e2e")]);
    }
}
