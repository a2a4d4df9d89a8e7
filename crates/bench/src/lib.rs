//! Shared plumbing for the chainiq benchmark harness: experiment
//! configuration, result tables, and text rendering used by the binaries
//! that regenerate the paper's tables and figures.

#![deny(missing_docs)]

pub mod knob;
pub mod pool;
pub mod runner;
pub mod sweep;
pub mod table;

pub use knob::{jobs, knob};
pub use runner::results_dir;
pub use sweep::{sweep_map, CkptTally, RunSpec, Sweep};
pub use table::TextTable;

use chainiq::{Bench, IqKind, PrescheduleConfig, SegmentedIqConfig};

/// The benchmarks Figure 2 / Table 2 report (gcc is omitted from
/// Figure 2 "for space reasons"; Figure 3 includes it).
pub const FIG2_BENCHES: [Bench; 7] = [
    Bench::Mgrid,
    Bench::Vortex,
    Bench::Twolf,
    Bench::Applu,
    Bench::Ammp,
    Bench::Swim,
    Bench::Equake,
];

/// Default committed-instruction sample per run. The paper simulates
/// 100M-instruction samples; the synthetic streams reach stable IPC
/// ratios far sooner (see `DESIGN.md` §5).
pub const DEFAULT_SAMPLE: u64 = 300_000;

/// Default RNG seed for all experiments (reproducibility).
pub const DEFAULT_SEED: u64 = 20020525; // the ISCA 2002 conference date

/// Reads the sample size from `CHAINIQ_SAMPLE` (committed instructions
/// per run), defaulting to [`DEFAULT_SAMPLE`]. The experiment binaries
/// honor this so CI can run them quickly. A set-but-unparsable value
/// warns on stderr and falls back to the default (see [`knob::knob`]).
#[must_use]
pub fn sample_size() -> u64 {
    knob::knob("CHAINIQ_SAMPLE", DEFAULT_SAMPLE)
}

/// The four predictor configurations of Figure 2, in bar order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorConfig {
    /// Chain per load, two-chain instructions tracked dynamically.
    Base,
    /// Hit/miss predictor only.
    Hmp,
    /// Left/right predictor only.
    Lrp,
    /// Both predictors ("comb" in the paper).
    Comb,
}

impl PredictorConfig {
    /// All four, in the paper's bar order.
    pub const ALL: [PredictorConfig; 4] =
        [PredictorConfig::Base, PredictorConfig::Hmp, PredictorConfig::Lrp, PredictorConfig::Comb];

    /// The paper's label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictorConfig::Base => "base",
            PredictorConfig::Hmp => "hmp",
            PredictorConfig::Lrp => "lrp",
            PredictorConfig::Comb => "comb",
        }
    }

    /// Whether the hit/miss predictor is on.
    #[must_use]
    pub fn hmp(self) -> bool {
        matches!(self, PredictorConfig::Hmp | PredictorConfig::Comb)
    }

    /// Whether the left/right predictor is on.
    #[must_use]
    pub fn lrp(self) -> bool {
        matches!(self, PredictorConfig::Lrp | PredictorConfig::Comb)
    }
}

/// The segmented queue of the paper's main experiments: 32-entry
/// segments, all enhancements on, the given total size and chain count.
#[must_use]
pub fn segmented(entries: usize, chains: Option<usize>) -> IqKind {
    IqKind::Segmented(SegmentedIqConfig::paper(entries, chains))
}

/// The ideal queue at a given size.
#[must_use]
pub fn ideal(entries: usize) -> IqKind {
    IqKind::Ideal(entries)
}

/// The prescheduled queue with the paper's §6.3 line counts.
#[must_use]
pub fn prescheduled(lines: usize) -> IqKind {
    IqKind::Prescheduled(PrescheduleConfig::paper(lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_configs() {
        assert!(!PredictorConfig::Base.hmp() && !PredictorConfig::Base.lrp());
        assert!(PredictorConfig::Hmp.hmp() && !PredictorConfig::Hmp.lrp());
        assert!(!PredictorConfig::Lrp.hmp() && PredictorConfig::Lrp.lrp());
        assert!(PredictorConfig::Comb.hmp() && PredictorConfig::Comb.lrp());
    }

    #[test]
    fn kind_builders() {
        assert_eq!(segmented(512, Some(128)).capacity(), 512);
        assert_eq!(ideal(256).capacity(), 256);
        assert_eq!(prescheduled(24).capacity(), 320);
    }
}
