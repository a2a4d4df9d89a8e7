//! The sweep executor's core guarantee: parallelism changes wall-clock,
//! never numbers. A small grid run serially and on four workers must
//! produce identical `RunResult`s at every submission index.

use chainiq::Bench;
use chainiq_bench::{ideal, segmented, PredictorConfig, RunSpec, Sweep};

const SAMPLE: u64 = 2_000;

fn grid() -> Sweep {
    // 2 benches × 2 configs: one ideal queue and one segmented queue
    // (the design with the most internal state to diverge).
    let mut sweep = Sweep::new();
    for bench in [Bench::Swim, Bench::Gcc] {
        sweep.add(bench, ideal(64), PredictorConfig::Base, SAMPLE);
        sweep.add(bench, segmented(64, Some(64)), PredictorConfig::Comb, SAMPLE);
    }
    sweep
}

/// Every counter a run reports, as one comparable string. `SimStats`
/// and `SegmentedStats` derive `Debug` over all fields (IPC, committed
/// counts, predictor/memory/queue stat counters), so the Debug
/// rendering is an exhaustive fingerprint.
fn fingerprints(results: &[chainiq::RunResult]) -> Vec<String> {
    results.iter().map(|r| format!("{:.12} {:?} {:?}", r.ipc(), r.stats, r.segmented)).collect()
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    let serial = grid().run_with_jobs_cached(1, None).0;
    let parallel = grid().run_with_jobs_cached(4, None).0;
    assert_eq!(serial.len(), parallel.len());
    let (s, p) = (fingerprints(&serial), fingerprints(&parallel));
    for (i, (a, b)) in s.iter().zip(&p).enumerate() {
        assert_eq!(a, b, "spec {i} diverged between 1 and 4 workers");
    }
}

#[test]
fn sweep_matches_direct_execution() {
    // The pool must run exactly the spec it was handed: results at index
    // i equal a plain serial `RunSpec::execute` of spec i.
    let sweep = grid();
    let specs: Vec<RunSpec> = sweep.specs().to_vec();
    let pooled = sweep.run_with_jobs_cached(4, None).0;
    for (i, spec) in specs.iter().enumerate() {
        let direct = spec.execute();
        assert_eq!(
            fingerprints(&[direct]),
            fingerprints(&[pooled[i].clone()]),
            "spec {i} ({}) diverged from direct execution",
            spec.label()
        );
    }
}
