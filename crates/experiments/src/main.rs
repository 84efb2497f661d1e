//! `repro` — the reproduction CLI.
//!
//! ```text
//! repro [--quick] [--runs N] [--vnodes N] [--seed S] [--events N] [--out DIR] <command>
//!
//! commands:
//!   fig4 fig5 fig6 fig7 fig8 fig9      figure reproductions
//!   claim-pv claim-30 claim-8k         in-text claims (§4.1)
//!   claim-zone1 claim-g512             equivalence claims (§4.1.1, §4.2)
//!   abl-victim abl-container abl-splitsel   policy ablations
//!   het                                heterogeneous enrollment
//!   churn                              churn storm over all three backends
//!                                      (--events N truncates the stream;
//!                                      --readers N hammers snapshot reads
//!                                      from N threads during the replay)
//!   churn-repl                         crash failures + R=1/2/3 replication
//!                                      sweep: durability & quorum availability
//!                                      (--events N truncates the stream;
//!                                      --rejoin runs the crash-then-rejoin
//!                                      WAL durability drill instead)
//!   churn-route                        routing control plane: hot-spot shed +
//!                                      silent-stall failover via lease expiry,
//!                                      R=2, all backends
//!                                      (--events N truncates the stream)
//!   all                                everything above, sharing runs
//! ```

use domus_experiments::*;
use std::io::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--runs N] [--vnodes N] [--seed S] [--events N] [--readers N] [--rejoin] [--out DIR] <command>\n\
         commands: fig4 fig5 fig6 fig7 fig8 fig9 | claim-pv claim-30 claim-8k claim-zone1 claim-g512 |\n          \
         abl-victim abl-container abl-splitsel | het | sim-makespan sim-msgs sim-mem | kv-migrate |\n          \
         churn | churn-repl | churn-route | all"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Two-phase parse so flag order is free-form: --quick selects the base
    // scale, explicit --runs/--vnodes/--seed always win over it.
    let mut quick = false;
    let mut runs: Option<u64> = None;
    let mut vnodes: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut events: Option<usize> = None;
    let mut readers: usize = 0;
    let mut rejoin = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--events" => {
                i += 1;
                events = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--readers" => {
                i += 1;
                readers = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--rejoin" => rejoin = true,
            "--runs" => {
                i += 1;
                runs = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--vnodes" => {
                i += 1;
                vnodes = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                seed = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            c if !c.starts_with('-') && cmd.is_none() => cmd = Some(c.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let cmd = cmd.unwrap_or_else(|| usage());
    let out_dir = out_dir.unwrap_or_else(|| "results".into());
    let mut ctx = if quick { Ctx::quick(out_dir) } else { Ctx::paper(out_dir) };
    if let Some(r) = runs {
        ctx.runs = r;
    }
    if let Some(n) = vnodes {
        ctx.n = n;
    }
    if let Some(s) = seed {
        ctx.seeds = domus_util::SeedSequence::new(s);
    }

    let started = std::time::Instant::now();
    let mut reports: Vec<ExpReport> = Vec::new();
    match cmd.as_str() {
        "fig4" => reports.push(fig4::run(&ctx)),
        "fig5" => reports.push(fig5::run(&ctx, None)),
        "fig6" => reports.push(fig6::run(&ctx)),
        "fig7" => reports.push(fig7::run(&ctx)),
        "fig8" => reports.push(fig8::run(&ctx)),
        "fig9" => reports.push(fig9::run(&ctx)),
        "claim-pv" => reports.push(claims::claim_pv(&ctx)),
        "claim-30" => reports.push(claims::claim_30(&ctx, None)),
        "claim-8k" => reports.push(claims::claim_8k(&ctx)),
        "claim-zone1" => reports.push(claims::claim_zone1(&ctx)),
        "claim-g512" => reports.push(claims::claim_g512(&ctx)),
        "abl-victim" => reports.push(ablations::abl_victim(&ctx)),
        "abl-container" => reports.push(ablations::abl_container(&ctx)),
        "abl-splitsel" => reports.push(ablations::abl_splitsel(&ctx)),
        "het" => reports.push(het::run(&ctx)),
        "sim-makespan" => reports.push(simx::sim_makespan(&ctx)),
        "sim-msgs" => reports.push(simx::sim_msgs(&ctx)),
        "sim-mem" => reports.push(simx::sim_mem(&ctx)),
        "kv-migrate" => reports.push(kvx::run(&ctx)),
        "churn" => reports.push(churnx::run(&ctx, events, readers)),
        "churn-repl" => reports.push(if rejoin {
            replx::run_rejoin(&ctx, events)
        } else {
            replx::run(&ctx, events)
        }),
        "churn-route" => reports.push(routex::run(&ctx, events)),
        "all" => {
            // FIG4 feeds FIG5 and CLAIM-30, so compute it once.
            let fig4_data = fig4::compute(&ctx);
            reports.push(fig4::run(&ctx));
            reports.push(fig5::run(&ctx, Some(&fig4_data)));
            reports.push(fig6::run(&ctx));
            reports.push(fig7::run(&ctx));
            reports.push(fig8::run(&ctx));
            reports.push(fig9::run(&ctx));
            reports.push(claims::claim_pv(&ctx));
            reports.push(claims::claim_30(&ctx, Some(&fig4_data)));
            reports.push(claims::claim_8k(&ctx));
            reports.push(claims::claim_zone1(&ctx));
            reports.push(claims::claim_g512(&ctx));
            reports.push(ablations::abl_victim(&ctx));
            reports.push(ablations::abl_container(&ctx));
            reports.push(ablations::abl_splitsel(&ctx));
            reports.push(het::run(&ctx));
            reports.push(simx::sim_makespan(&ctx));
            reports.push(simx::sim_msgs(&ctx));
            reports.push(simx::sim_mem(&ctx));
            reports.push(kvx::run(&ctx));
            reports.push(churnx::run(&ctx, events, readers));
            reports.push(replx::run(&ctx, events));
            reports.push(replx::run_rejoin(&ctx, events));
            reports.push(routex::run(&ctx, events));
        }
        _ => usage(),
    }

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
        println!("[{}]", r.id);
        for line in &r.summary {
            println!("  {line}");
            summary.push_str(&format!("  {line}\n"));
        }
    }
    std::fs::create_dir_all(&ctx.out_dir).expect("results dir");
    let path = ctx.out_dir.join("summary.txt");
    let mut f = std::fs::File::create(&path).expect("summary file");
    f.write_all(summary.as_bytes()).expect("write summary");
    println!("\nsummary written to {}", path.display());
}
