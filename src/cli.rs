//! Argument parsing for the `dsjoin` command-line tool.
//!
//! Hand-rolled (the workspace's dependency policy admits no CLI crates) but
//! complete: every [`ClusterConfig`] knob is reachable as a `--flag value`
//! pair, and errors point at the offending token.

use dsj_core::{Algorithm, ClusterConfig, TargetComplexity};
use dsj_simnet::LinkConfig;
use dsj_stream::gen::WorkloadKind;
use std::fmt;

/// A CLI parsing failure: what was wrong and with which token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// The usage text printed by `dsjoin --help`.
pub const USAGE: &str = "\
dsjoin — distributed approximate stream joins (ICDCS 2007 reproduction)

USAGE:
    dsjoin [OPTIONS]

OPTIONS:
    --algo <base|dft|dftt|bloom|skch>   algorithm            [default: dftt]
    --nodes <N>                         cluster size         [default: 8]
    --window <W>                        tuples per window    [default: 1024]
    --domain <D>                        attribute domain     [default: 4096]
    --tuples <T>                        stream length        [default: 20000]
    --workload <uni|zipf|fin|nwrk>      workload             [default: zipf]
    --alpha <A>                         Zipf skew            [default: 0.4]
    --locality <L>                      geographic locality  [default: 0.8]
    --kappa <K>                         compression factor   [default: 256]
    --target <T|logn>                   msgs/tuple budget    [default: 1]
    --rate <R>                          arrivals/s per node  [default: 200]
    --budget-bps <B>                    bandwidth governor   [off]
    --loss <P>                          link loss prob       [default: 0]
    --time-window-ms <MS>               time-based windows   [off]
    --seed <S>                          master seed          [default: 42]
    --calibrate <EPS>                   tune budget to an error rate
    --help                              print this text
";

/// What a parsed invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print [`USAGE`].
    Help,
    /// Run one experiment.
    Run {
        /// The configuration to run.
        config: Box<ClusterConfig>,
        /// Calibrate the budget to this error rate first, if set.
        calibrate: Option<f64>,
    },
}

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// [`CliError`] describing the first unknown flag, missing value, or
/// malformed number.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut cfg = ClusterConfig::new(8, Algorithm::Dftt);
    let mut alpha = 0.4f64;
    let mut workload: Option<String> = None;
    let mut calibrate = None;
    let mut loss = 0.0f64;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--algo" => {
                cfg.algorithm = match value()?.to_ascii_lowercase().as_str() {
                    "base" => Algorithm::Base,
                    "dft" => Algorithm::Dft,
                    "dftt" => Algorithm::Dftt,
                    "bloom" => Algorithm::Bloom,
                    "skch" | "sketch" => Algorithm::Sketch,
                    other => return Err(CliError::new(format!("unknown algorithm '{other}'"))),
                };
            }
            "--nodes" => cfg.n = parse_num(flag, value()?)?,
            "--window" => cfg.window = parse_num(flag, value()?)?,
            "--domain" => cfg.domain = parse_num(flag, value()?)?,
            "--tuples" => cfg.tuples = parse_num(flag, value()?)?,
            "--workload" => workload = Some(value()?.clone()),
            "--alpha" => alpha = parse_num(flag, value()?)?,
            "--locality" => cfg.locality = parse_num(flag, value()?)?,
            "--kappa" => cfg.kappa = parse_num(flag, value()?)?,
            "--target" => {
                let v = value()?;
                cfg.target = if v.eq_ignore_ascii_case("logn") {
                    TargetComplexity::LogN
                } else {
                    TargetComplexity::Constant(parse_num(flag, v)?)
                };
            }
            "--rate" => cfg.arrival_rate = parse_num(flag, value()?)?,
            "--budget-bps" => cfg.bandwidth_budget_bps = Some(parse_num(flag, value()?)?),
            "--loss" => loss = parse_num(flag, value()?)?,
            "--time-window-ms" => cfg.time_window_ms = Some(parse_num(flag, value()?)?),
            "--seed" => cfg.seed = parse_num(flag, value()?)?,
            "--calibrate" => calibrate = Some(parse_num(flag, value()?)?),
            other => return Err(CliError::new(format!("unknown flag '{other}'"))),
        }
    }
    cfg.workload = match workload.as_deref().map(str::to_ascii_lowercase).as_deref() {
        None | Some("zipf") => WorkloadKind::Zipf { alpha },
        Some("uni") | Some("uniform") => WorkloadKind::Uniform,
        Some("fin") | Some("financial") => WorkloadKind::Financial,
        Some("nwrk") | Some("network") => WorkloadKind::Network,
        Some(other) => return Err(CliError::new(format!("unknown workload '{other}'"))),
    };
    // Negative and NaN included: `!(0.0..=1.0).contains` is true for both.
    if !(0.0..=1.0).contains(&loss) {
        return Err(CliError::new("--loss must be in [0, 1]"));
    }
    if loss > 0.0 {
        cfg.link = LinkConfig::paper_wan().with_loss(loss);
    }
    Ok(Command::Run {
        config: Box::new(cfg),
        calibrate,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::new(format!("{flag}: cannot parse '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let Command::Run { config, calibrate } = parse(&[]).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(config.algorithm, Algorithm::Dftt);
        assert_eq!(config.n, 8);
        assert!(calibrate.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let Command::Run { config, calibrate } = parse(&args(
            "--algo bloom --nodes 12 --window 256 --domain 2048 --tuples 5000 \
             --workload nwrk --locality 0.6 --kappa 64 --target logn --rate 800 \
             --budget-bps 50000 --loss 0.1 --time-window-ms 500 --seed 9 --calibrate 0.15",
        ))
        .unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(config.algorithm, Algorithm::Bloom);
        assert_eq!(config.n, 12);
        assert_eq!(config.window, 256);
        assert_eq!(config.domain, 2048);
        assert_eq!(config.tuples, 5000);
        assert_eq!(config.workload, WorkloadKind::Network);
        assert_eq!(config.kappa, 64);
        assert_eq!(config.target, TargetComplexity::LogN);
        assert_eq!(config.bandwidth_budget_bps, Some(50_000));
        assert_eq!(config.time_window_ms, Some(500));
        assert_eq!(config.link.loss_ppm, 100_000);
        assert_eq!(config.seed, 9);
        assert_eq!(calibrate, Some(0.15));
    }

    #[test]
    fn zipf_alpha_applies() {
        let Command::Run { config, .. } = parse(&args("--workload zipf --alpha 0.9")).unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!(config.workload, WorkloadKind::Zipf { alpha: 0.9 });
    }

    #[test]
    fn zero_window_parses_but_fails_validation() {
        // The parser takes any number; `validate()` (which `run()` calls
        // first) owns the range check, so the binary prints an error
        // instead of reaching `WindowSpec::count`'s assert.
        let Command::Run { config, .. } = parse(&args("--window 0")).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(config.validate(), Err(dsj_core::RunError::ZeroWindow));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--algo dft -h")).unwrap(), Command::Help);
    }

    #[test]
    fn errors_are_specific() {
        assert!(parse(&args("--nodes"))
            .unwrap_err()
            .to_string()
            .contains("requires a value"));
        assert!(parse(&args("--nodes abc"))
            .unwrap_err()
            .to_string()
            .contains("cannot parse"));
        assert!(parse(&args("--algo quantum"))
            .unwrap_err()
            .to_string()
            .contains("unknown algorithm"));
        assert!(parse(&args("--frobnicate 3"))
            .unwrap_err()
            .to_string()
            .contains("unknown flag"));
        assert!(parse(&args("--loss 2.0"))
            .unwrap_err()
            .to_string()
            .contains("[0, 1]"));
    }

    #[test]
    fn out_of_range_input_is_an_error_not_a_panic() {
        // `--loss` has no `ClusterConfig` field to validate, so the parser
        // owns its range; before, -1 and NaN ran silently as loss 0.
        for loss in ["-1", "NaN", "1.5"] {
            let err = parse(&args(&format!("--loss {loss}"))).unwrap_err();
            assert!(err.to_string().contains("[0, 1]"), "{loss}: {err}");
        }
        assert!(parse(&args("--loss 1")).is_ok());
        // The rest parse and fail `validate()` instead of reaching an
        // assert inside `ClusterConfig::run`.
        for (flags, want) in [
            ("--alpha -1", dsj_core::RunError::ZipfAlphaOutOfRange(-1.0)),
            ("--domain 0 --kappa 0", dsj_core::RunError::ZeroDomain),
            ("--kappa 0", dsj_core::RunError::ZeroKappa),
            ("--budget-bps 0", dsj_core::RunError::ZeroBandwidthBudget),
        ] {
            let Command::Run { config, .. } = parse(&args(flags)).unwrap() else {
                panic!("expected a run");
            };
            assert_eq!(config.validate(), Err(want), "{flags}");
        }
        // ... as do the values that ran to a report of nonsense: a target
        // that is no budget and a window that holds nothing.
        for target in ["NaN", "-1", "inf"] {
            let Command::Run { config, .. } = parse(&args(&format!("--target {target}"))).unwrap()
            else {
                panic!("expected a run");
            };
            assert!(
                matches!(
                    config.validate(),
                    Err(dsj_core::RunError::TargetOutOfRange(_))
                ),
                "--target {target}"
            );
        }
        let Command::Run { config, .. } = parse(&args("--time-window-ms 0")).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(config.validate(), Err(dsj_core::RunError::ZeroTimeWindow));
        // `--calibrate` is no `ClusterConfig` field: `run_at_epsilon`, which
        // the binary hands it to, refuses it before the first run.
        for eps in ["NaN", "-1", "2"] {
            let Command::Run { config, calibrate } =
                parse(&args(&format!("--tuples 3000 --calibrate {eps}"))).unwrap()
            else {
                panic!("expected a run");
            };
            let err = config.run_at_epsilon(calibrate.unwrap()).unwrap_err();
            assert!(
                matches!(err, dsj_core::RunError::EpsilonOutOfRange(_)),
                "--calibrate {eps}: {err}"
            );
        }
        let Command::Run { config, .. } = parse(&args("--alpha NaN")).unwrap() else {
            panic!("expected a run");
        };
        assert!(matches!(
            config.validate(),
            Err(dsj_core::RunError::ZipfAlphaOutOfRange(a)) if a.is_nan()
        ));
    }
}
