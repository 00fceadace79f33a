//! The repository's benchmark: end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs, over three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static_greedy|serve_bulk|serve_durable \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything a run writes
//! stays under this package's `results/` and `scratch/` directories. See
//! README.md for the workloads and what each metric means in each of them.

mod host;
mod reference;
mod report;
mod serving;
mod static_greedy;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{bench_dir, end_to_end_table, per_layer_table, result_line, Json, RunId, RunResult};

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, to check that a result holds on inputs it was
/// not developed on.
pub const HOLDOUT_SEED: u64 = 1_000_003;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticGreedy,
    ServeBulk,
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StaticGreedy,
        Workload::ServeBulk,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticGreedy => "static_greedy",
            Workload::ServeBulk => "serve_bulk",
            Workload::ServeDurable => "serve_durable",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The traced run's end-to-end values minus the medians of the untraced
/// runs of the same seed and build recorded so far (`null` when there are
/// none yet), and how many runs those medians come from.
fn tracing_overhead(result: &RunResult, id: &RunId<'_>) -> (Json, usize) {
    let (untraced, runs) = report::untraced_medians(&bench_dir().join("results"), id);
    let overhead = Json::obj(result.e2e.iter().map(|(&name, &traced)| {
        let v = untraced
            .get(name)
            .map_or(Json::Null, |base| Json::Num(traced - base));
        (name, v)
    }));
    (overhead, runs)
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cfg.workload {
        Workload::StaticGreedy => static_greedy::run(&cfg),
        Workload::ServeBulk => serving::run(&cfg, serving::Mode::Bulk),
        Workload::ServeDurable => serving::run(&cfg, serving::Mode::Durable),
    };
    let mut result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let name = cfg.workload.name();
    let build = match report::build_id() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: cannot identify the build: {e}");
            return ExitCode::FAILURE;
        }
    };
    let id = RunId {
        workload: name,
        seed: cfg.seed,
        traced: cfg.trace,
        build: &build,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    result.meta("workload", Json::str(name));
    result.meta("seed", Json::Int(cfg.seed));
    result.meta("seconds", Json::Int(cfg.seconds));
    result.meta("traced", Json::Bool(cfg.trace));
    result.meta("build_id", Json::str(build.as_str()));
    result.meta("available_parallelism", Json::Int(nproc as u64));
    result.meta("error_rate", Json::Num(result.tally.error_rate()));
    // Peak memory of the whole run, checks and replay included (the
    // `peak_rss_mb` metric is read when the window closes).
    if let Ok(mib) = host::peak_rss_mib() {
        result.meta("run_peak_rss_mb", Json::Num(mib));
    }
    result.meta(
        "failures",
        Json::Arr(result.tally.failures.iter().map(Json::str).collect()),
    );
    if cfg.trace {
        let (overhead, runs) = tracing_overhead(&result, &id);
        result.meta("tracing_overhead", overhead);
        result.meta("tracing_overhead_untraced_runs", Json::Int(runs as u64));
        let traced_e2e = result.e2e.iter().map(|(&k, &v)| (k, Json::Num(v)));
        result.meta("traced_end_to_end", Json::obj(traced_e2e));
    }
    for f in &result.tally.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let line = if cfg.trace {
        result_line(&result.tally, &result.layers, per_layer_table(cfg.workload))
    } else {
        result_line(&result.tally, &result.e2e, end_to_end_table())
    };
    let line = match line {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = report::save(&bench_dir().join("results"), &id, &result, &line) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", Json::Obj(result.meta.clone()));
    println!("{line}");
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse_args(args("--workload serve_bulk --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            cfg,
            RunConfig {
                workload: Workload::ServeBulk,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert_eq!(
            parse_args(args("--workload static_greedy")).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--seed 1")).is_err());
        assert!(parse_args(args("--workload serve_bulk --trace 2")).is_err());
        assert!(parse_args(args("--workload serve_bulk --seconds 0")).is_err());
        assert!(parse_args(args("--workload serve_bulk --seed")).is_err());
    }

    #[test]
    fn outputs_stay_inside_the_benchmark_directory() {
        let dir = bench_dir();
        assert_eq!(dir.file_name().unwrap(), "perfbench");
        for sub in ["results", "scratch"] {
            let p = dir.join(sub);
            assert!(p.starts_with(&dir));
            assert!(!p.ends_with("results/BENCH_quick.json"));
        }
        assert_ne!(DEFAULT_SEED, HOLDOUT_SEED);
    }
}
