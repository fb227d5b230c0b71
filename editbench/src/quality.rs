//! The answer-quality pass: the paper's 50 Table 2 benchmarks under full
//! weights, counting how often the hand-written expected snippet ranks in
//! the top 10 and at rank 1. Runs outside every timed window.

use insynth_benchsuite::{all_benchmarks, run_benchmark, HarnessConfig};
use insynth_core::WeightMode;

/// The counts a known-good build reaches; any other count fails the run.
pub const RECORDED_TOP10: u64 = 49;
pub const RECORDED_RANK1: u64 = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    pub queries: u64,
    pub top10: u64,
    pub rank1: u64,
    /// Queries that hit a budget; each one fails the run.
    pub truncated: u64,
}

impl Quality {
    pub fn matches_recorded(&self) -> bool {
        self.top10 == RECORDED_TOP10 && self.rank1 == RECORDED_RANK1
    }
}

pub fn paper_pass() -> Quality {
    let config = HarnessConfig::default();
    let mut quality = Quality {
        queries: 0,
        top10: 0,
        rank1: 0,
        truncated: 0,
    };
    for bench in all_benchmarks() {
        let outcome = run_benchmark(&bench, WeightMode::Full, &config);
        quality.queries += 1;
        quality.truncated += outcome.stats.truncated as u64;
        match outcome.rank {
            Some(1) => {
                quality.top10 += 1;
                quality.rank1 += 1;
            }
            Some(rank) if rank <= 10 => quality.top10 += 1,
            _ => {}
        }
    }
    quality
}
