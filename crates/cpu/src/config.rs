//! Machine configuration (Table 1 defaults).

use chainiq_mem::MemConfig;
use chainiq_predict::BranchPredictorConfig;

/// Processor parameters. `SimConfig::default()` reproduces Table 1 of the
/// paper exactly; every field can be overridden for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Instructions fetched per cycle (Table 1: up to 8).
    pub fetch_width: usize,
    /// Branches fetched per cycle (Table 1: max 3).
    pub max_branches_per_fetch: usize,
    /// Whether fetch stops at a predicted-taken branch within a cycle
    /// (line-based fetch, as in the 21264).
    pub fetch_stops_at_taken: bool,
    /// Front-end depth in cycles: fetch-to-decode plus decode-to-dispatch
    /// (Table 1: 10 + 5).
    pub front_end_depth: u64,
    /// Extra dispatch-stage cycle charged to the segmented and
    /// prescheduling queues "to account for added complexity" (§5).
    pub extra_dispatch_cycle: bool,
    /// Instructions renamed/dispatched per cycle (Table 1: 8).
    pub dispatch_width: usize,
    /// Instructions issued per cycle (Table 1: 8).
    pub issue_width: usize,
    /// Instructions committed per cycle (Table 1: 8).
    pub commit_width: usize,
    /// Function units of each kind (Table 1: 8).
    pub fus_per_kind: usize,
    /// Reorder-buffer entries. §5 sets the ROB to three times the IQ
    /// size; [`SimConfig::rob_for_iq`] applies that rule.
    pub rob_size: usize,
    /// Data-cache read ports per cycle (Table 1: 8).
    pub read_ports: usize,
    /// Data-cache write ports per cycle (Table 1: 8).
    pub write_ports: usize,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Branch predictor parameters.
    pub branch: BranchPredictorConfig,
    /// Consult the hit/miss predictor for chain-creation decisions
    /// (§4.4). The predictor always trains; this gates whether dispatch
    /// *uses* it.
    pub use_hmp: bool,
    /// Consult the left/right operand predictor and restrict instructions
    /// to a single chain (§4.3).
    pub use_lrp: bool,
    /// Hard cycle limit as a runaway guard.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 8,
            max_branches_per_fetch: 3,
            fetch_stops_at_taken: true,
            front_end_depth: 15,
            extra_dispatch_cycle: false,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            fus_per_kind: 8,
            rob_size: 3 * 512,
            read_ports: 8,
            write_ports: 8,
            mem: MemConfig::default(),
            branch: BranchPredictorConfig::default(),
            use_hmp: false,
            use_lrp: false,
            max_cycles: u64::MAX,
        }
    }
}

impl SimConfig {
    /// Applies the §5 rule "ROB three times the size of the IQ".
    #[must_use]
    pub fn rob_for_iq(mut self, iq_entries: usize) -> Self {
        self.rob_size = 3 * iq_entries;
        self
    }

    /// Enables the extra dispatch cycle charged to dependence-based
    /// queues (§5).
    #[must_use]
    pub fn with_extra_dispatch_cycle(mut self) -> Self {
        self.extra_dispatch_cycle = true;
        self
    }

    /// Total front-end latency from fetch to dispatch, including the
    /// extra complexity cycle if configured.
    #[must_use]
    pub fn dispatch_latency(&self) -> u64 {
        self.front_end_depth + u64::from(self.extra_dispatch_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.max_branches_per_fetch, 3);
        assert_eq!(c.front_end_depth, 15);
        assert_eq!(c.dispatch_width, 8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.fus_per_kind, 8);
        assert_eq!(c.read_ports, 8);
        assert_eq!(c.write_ports, 8);
        assert!(!c.use_hmp && !c.use_lrp);
    }

    #[test]
    fn rob_rule() {
        let c = SimConfig::default().rob_for_iq(128);
        assert_eq!(c.rob_size, 384);
    }

    #[test]
    fn dispatch_latency_includes_extra_cycle() {
        assert_eq!(SimConfig::default().dispatch_latency(), 15);
        assert_eq!(SimConfig::default().with_extra_dispatch_cycle().dispatch_latency(), 16);
    }
}
