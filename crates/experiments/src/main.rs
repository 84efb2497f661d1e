//! `repro` — the reproduction CLI.
//!
//! ```text
//! repro [--quick] [--runs N] [--vnodes N] [--seed S] [--events N] [--readers N] [--rejoin] [--out DIR] <command>
//! ```
//!
//! The commands are the rows of [`REGISTRY`] plus `all`; `repro` with no
//! arguments lists them.

use domus_experiments::*;

/// The flags only the churn commands read.
struct Opts {
    events: Option<usize>,
    readers: usize,
}

/// `(command, what it reproduces, entry point)`.
type Row = (&'static str, &'static str, fn(&Ctx, &Opts) -> ExpReport);

/// Every experiment, in the order `all` runs them. An experiment is one
/// row here; usage, dispatch and `all` are derived from the table.
const REGISTRY: &[Row] = &[
    ("fig4", "figure 4: σ̄(Qv) on the Pmin = Vmin diagonal", |c, _| fig4::run(c)),
    ("fig5", "figure 5: the parameter-choice functional θ", |c, _| fig5::run(c)),
    ("fig6", "figure 6: σ̄(Qv) over a Vmin sweep vs the global approach", |c, _| fig6::run(c)),
    ("fig7", "figure 7: real vs ideal number of groups", |c, _| fig7::run(c)),
    ("fig8", "figure 8: σ̄(Qg), balance between groups", |c, _| fig8::run(c)),
    ("fig9", "figure 9: the model vs Consistent Hashing", |c, _| fig9::run(c)),
    ("claim-pv", "§4.1: raising Pmin beyond Vmin gains little", |c, _| claims::claim_pv(c)),
    ("claim-30", "§4.1.1: ~30% σ̄ drop per (Pmin, Vmin) doubling", |c, _| claims::claim_30(c)),
    ("claim-8k", "§4.1.1: σ̄(Qv) stays stable out to 8192 vnodes", |c, _| claims::claim_8k(c)),
    ("claim-zone1", "§4.1.1: zone 1 matches the global approach", |c, _| claims::claim_zone1(c)),
    ("claim-g512", "§4.2: one group (Vmin = n/2) matches global", |c, _| claims::claim_g512(c)),
    ("abl-victim", "ablation: donor-partition policy", |c, _| ablations::abl_victim(c)),
    ("abl-container", "ablation: container choice on split", |c, _| ablations::abl_container(c)),
    ("abl-splitsel", "ablation: membership at group splits", |c, _| ablations::abl_splitsel(c)),
    ("het", "heterogeneous enrollment", |c, _| het::run(c)),
    ("sim-makespan", "makespan of back-to-back creations", |c, _| simx::sim_makespan(c)),
    ("sim-msgs", "per-creation synchronisation cost as the DHT grows", |c, _| simx::sim_msgs(c)),
    ("sim-mem", "record replication footprint", |c, _| simx::sim_mem(c)),
    ("kv-migrate", "data moved per join/leave, all three backends", |c, _| kvx::run(c)),
    ("churn", "churn storm (--events N, --readers N)", |c, o| churnx::run(c, o.events, o.readers)),
    ("churn-repl", "crash failures × R=1/2/3 (--events N)", |c, o| replx::run(c, o.events)),
    ("churn-repl --rejoin", "WAL rejoin drill (--events N)", |c, o| replx::run_rejoin(c, o.events)),
    ("churn-route", "hot-spot shed + stall failover (--events N)", |c, o| routex::run(c, o.events)),
];

/// The rows `cmd` runs: the whole registry for `all`, else the one row
/// named `cmd` (`--rejoin` selects a command's rejoin variant, if any).
fn select(cmd: &str, rejoin: bool) -> Option<Vec<&'static Row>> {
    if cmd == "all" {
        return Some(REGISTRY.iter().collect());
    }
    let named = |name: &str| REGISTRY.iter().find(|row| row.0 == name);
    let variant = if rejoin { named(&format!("{cmd} --rejoin")) } else { None };
    variant.or_else(|| named(cmd)).map(|row| vec![row])
}

fn usage_text() -> String {
    let mut text = String::from(
        "usage: repro [--quick] [--runs N] [--vnodes N] [--seed S] [--events N] [--readers N] [--rejoin] [--out DIR] <command>\ncommands:\n",
    );
    for (name, about, _) in REGISTRY {
        text.push_str(&format!("  {name:<21}{about}\n"));
    }
    text.push_str(&format!("  {:<21}everything above, in order\n", "all"));
    text
}

fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// The value after the flag at `args[*i]`, parsed; a missing or
/// malformed one is a usage error.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    *i += 1;
    args.get(*i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // --quick selects the base scale wherever it appears; explicit
    // --runs/--vnodes/--seed always win over it.
    let quick = args.iter().any(|a| a == "--quick");
    let mut ctx = if quick { Ctx::quick("results") } else { Ctx::paper("results") };
    let mut opts = Opts { events: None, readers: 0 };
    let (mut cmd, mut rejoin) = (None, false);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {}
            "--rejoin" => rejoin = true,
            "--events" => opts.events = Some(value(&args, &mut i)),
            "--readers" => opts.readers = value(&args, &mut i),
            "--runs" => ctx.runs = value(&args, &mut i),
            "--vnodes" => ctx.n = value(&args, &mut i),
            "--seed" => ctx.seeds = domus_util::SeedSequence::new(value(&args, &mut i)),
            "--out" => ctx.out_dir = value(&args, &mut i),
            c if !c.starts_with('-') && cmd.is_none() => cmd = Some(c),
            _ => usage(),
        }
        i += 1;
    }
    let rows = cmd.and_then(|c| select(c, rejoin)).unwrap_or_else(|| usage());

    let started = std::time::Instant::now();
    let reports: Vec<ExpReport> = rows.iter().map(|(_, _, run)| run(&ctx, &opts)).collect();

    println!(
        "\n══ summary ({} experiments, {:.1}s, runs={}, n={}) ══",
        reports.len(),
        started.elapsed().as_secs_f64(),
        ctx.runs,
        ctx.n
    );
    let mut summary = String::new();
    for r in &reports {
        summary.push_str(&format!("[{}]\n", r.id));
        for line in &r.summary {
            summary.push_str(&format!("  {line}\n"));
        }
    }
    print!("{summary}");
    std::fs::create_dir_all(&ctx.out_dir).expect("results dir");
    let path = ctx.out_dir.join("summary.txt");
    std::fs::write(&path, summary).expect("write summary");
    println!("\nsummary written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_command_dispatches_and_all_is_the_registry() {
        let text = usage_text();
        let listed: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "commands:")
            .skip(1)
            .map(|l| l.trim_start().split("  ").next().expect("a name"))
            .collect();
        assert_eq!(listed.len(), REGISTRY.len() + 1, "one usage line per row, plus `all`");
        for name in listed {
            let mut words = name.split(' ');
            let (cmd, rejoin) = (words.next().expect("a command"), words.next().is_some());
            let rows = select(cmd, rejoin).unwrap_or_else(|| panic!("`{name}` does not dispatch"));
            assert!(cmd == "all" || rows[0].0 == name, "`{name}` dispatched to `{}`", rows[0].0);
        }

        let names = |rows: Vec<&Row>| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(names(select("all", false).unwrap()), names(REGISTRY.iter().collect()));
        assert_eq!(names(select("churn-repl", false).unwrap()), ["churn-repl"]);
        assert_eq!(names(select("fig4", true).unwrap()), ["fig4"], "--rejoin elsewhere is inert");
        assert!(select("fig10", false).is_none());
    }
}
