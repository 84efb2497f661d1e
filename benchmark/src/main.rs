//! Command line of the benchmark. See `README.md` beside `Cargo.toml`.

use domus_benchmark::harness::{self, Options, Report, Workload, WORKLOADS};
use domus_benchmark::metrics::END_TO_END;
use domus_benchmark::stats::{median, spread};
use domus_benchmark::Scale;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
[--quick] [--selfcheck [RUNS]]

  --workload NAME   one of: churn-bare-2k churn-local-16k churn-durable
                    serve-mixed-read serve-mixed-write (default: all five)
  --seed N          seed of every generated input (default 1)
  --seconds N       wall-clock budget of one run of one workload (default 20)
  --trace [0|1]     1: also run the traced repetition and the micro-probes;
                    the result line then carries the per-layer metrics
  --quick           one repetition at a tenth of the events: a smoke step
  --selfcheck [N]   two sets of N runs (default 5), every run on another seed;
                    spreads and median shifts against every end-to-end
                    bound, non-zero exit on a miss";

struct Cli {
    workloads: Vec<Workload>,
    opt: Options,
    selfcheck: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.to_vec(),
        opt: Options { seed: 1, seconds: 20.0, trace: false, scale: Scale::Full },
        selfcheck: None,
    };
    let mut i = 0;
    // An optional value: the next argument, when it parses.
    let optional = |i: &mut usize| -> Option<usize> {
        let v = args.get(*i + 1)?.parse().ok()?;
        *i += 1;
        Some(v)
    };
    while i < args.len() {
        let required = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = required(&mut i)?;
                let w = Workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workloads = vec![w];
            }
            "--seed" => {
                cli.opt.seed = required(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = required(&mut i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.opt.seconds = s;
            }
            "--trace" => cli.opt.trace = optional(&mut i).unwrap_or(1) != 0,
            "--quick" => cli.opt.scale = Scale::Quick,
            "--selfcheck" => cli.selfcheck = Some(optional(&mut i).unwrap_or(5).max(1)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// What the driver does to accept the benchmark, in one go: two sets of
/// `runs` runs, every run on another seed. Per metric × workload it
/// prints each set's median, the wider of the two spreads (interquartile
/// range over median) and how much worse the second median is, beside the
/// bound both must stay within (the spread of `setup_s` is exempt).
fn selfcheck(cli: &Cli, runs: usize) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<15} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "spread", "worse", "bound"
    );
    for &w in &cli.workloads {
        let set = |k: usize| -> Vec<Report> {
            (0..runs)
                .map(|r| {
                    let seed = cli.opt.seed + (k * runs + r) as u64;
                    harness::run(w, &Options { seed, ..cli.opt })
                })
                .collect()
        };
        let (first, second) = (set(0), set(1));
        ok &= first.iter().chain(&second).all(|r| r.correct);
        for m in END_TO_END {
            let values = |s: &[Report]| s.iter().map(|r| r.end_to_end[m.name]).collect::<Vec<_>>();
            let (a, b) = (values(&first), values(&second));
            let (med_a, med_b) = (median(&a), median(&b));
            let spread = spread(&a).max(spread(&b));
            let worse = harness::worsening(m, med_a, med_b);
            let pass = worse <= m.bound && (spread <= m.bound || m.name == "setup_s");
            ok &= pass;
            println!(
                "{:<18} {:<15} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>5.0}%{}",
                w.name(),
                m.name,
                med_a,
                med_b,
                100.0 * spread,
                100.0 * worse,
                100.0 * m.bound,
                if pass { "" } else { "  EXCEEDS" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = cli.selfcheck {
        return if selfcheck(&cli, runs) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let mut ok = true;
    for &w in &cli.workloads {
        let report = harness::run(w, &cli.opt);
        harness::print_report(&report, cli.opt.trace);
        println!("{}", harness::result_line(&report, cli.opt.trace));
        ok &= report.correct;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
