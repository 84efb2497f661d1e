//! # domus-experiments
//!
//! The reproduction harness: one module per figure and per in-text claim
//! of Rufino et al., IPDPS 2004, plus the ablations and substrate
//! experiments. The `repro` binary dispatches to these modules through
//! one registry (`main.rs`); each writes
//! `results/<id>.csv`, prints the paper's series as a table and an ASCII
//! plot, and returns summary lines that the dispatcher collects into
//! `results/summary.txt` (the source for EXPERIMENTS.md).
//! Every three-backend comparison (`churnx`, `replx`, `routex`, `kvx`)
//! goes through [`compare`]: the backend table and the one replay protocol.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod churnx;
pub mod claims;
pub mod compare;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod het;
pub mod kvx;
pub mod output;
pub mod replx;
pub mod routex;
pub mod runner;
pub mod simx;

use domus_util::SeedSequence;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Shared experiment context: seeds, scale, output directory.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Deterministic seed root (CLI `--seed`, default 2004 — the paper's
    /// year).
    pub seeds: SeedSequence,
    /// Runs to average (paper: 100).
    pub runs: u64,
    /// Vnodes/nodes created per run (paper: 1024).
    pub n: usize,
    /// Where CSVs land.
    pub out_dir: PathBuf,
    /// The FIG4 sweep, which FIG5 and CLAIM-30 also read: filled by the
    /// first [`fig4::compute`] from the fields above, so set those first.
    fig4: OnceLock<fig4::Fig4Data>,
}

impl Ctx {
    /// The paper's parameters: 100 runs × 1024 creations.
    pub fn paper(out_dir: impl Into<PathBuf>) -> Self {
        Self { runs: 100, n: 1024, ..Self::quick(out_dir) }
    }

    /// A fast smoke-scale context for tests and `--quick`.
    pub fn quick(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            seeds: SeedSequence::new(2004),
            runs: 8,
            n: 192,
            out_dir: out_dir.into(),
            fig4: OnceLock::new(),
        }
    }

    /// The largest `(Pmin, Vmin)` diagonal value that still leaves room for
    /// several group generations at this scale — used by fig4/fig5 to trim
    /// the sweep under `--quick`.
    pub fn diagonal_values(&self) -> Vec<u64> {
        [8u64, 16, 32, 64, 128].into_iter().filter(|&v| 2 * v * 2 <= self.n as u64).collect()
    }
}

/// The result every experiment hands back to the dispatcher.
#[derive(Debug, Clone, Default)]
pub struct ExpReport {
    /// Experiment id (`FIG4`, `CLAIM-30`, ...).
    pub id: String,
    /// Lines for `results/summary.txt` / EXPERIMENTS.md.
    pub summary: Vec<String>,
}

impl ExpReport {
    /// A report for `id`.
    pub fn new(id: impl Into<String>) -> Self {
        Self { id: id.into(), summary: Vec::new() }
    }

    /// Appends a summary line (also echoed to stdout by the dispatcher).
    pub fn note(&mut self, line: impl Into<String>) {
        self.summary.push(line.into());
    }
}
