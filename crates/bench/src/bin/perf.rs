//! Self-profiling perf gate: times the simulator itself over a fixed
//! (benchmark, queue-config) matrix and writes `BENCH_perf.json` —
//! the repo's perf-trajectory artifact, diffed across commits to catch
//! kernel regressions — plus one appended line per run in
//! `BENCH_perf_history.jsonl`, so the trajectory across commits survives
//! the snapshot file being overwritten.
//!
//! Unlike the experiment binaries this measures *simulator throughput*
//! (simulated kilocycles per wall-clock second), so every point runs
//! serially on the calling thread regardless of `CHAINIQ_JOBS`. The
//! matrix is fixed; only the per-run sample honors `CHAINIQ_SAMPLE` (so
//! CI can smoke it cheaply into a scratch `CHAINIQ_BENCH_DIR`). The
//! history line stamps the revision from `CHAINIQ_GIT_REV` (an input —
//! the binary never shells out to `git`).
//!
//! Refuses to write either file, and exits non-zero, if the aggregate
//! throughput is not a positive finite number — a malformed artifact
//! must fail loudly, not rot silently.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use std::fmt::Write as _;
use std::io::Write as _;
#[expect(
    clippy::disallowed_types,
    reason = "D2: perf measures host wall-clock time; it never feeds simulated state"
)]
use std::time::Instant;

use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{AddressSpace, Bench, SimConfig, SmtPipeline, SyntheticWorkload};
use chainiq_bench::knob::git_rev;
use chainiq_bench::{
    results_dir, sample_size, segmented, PredictorConfig, RunSpec, TextTable, DEFAULT_SEED,
};

/// One matrix point: either a plain single-thread run or an SMT thread
/// mix over a shared segmented queue (the SMT pipeline exercises the
/// multi-thread wakeup/bookkeeping paths the single-thread runs never
/// touch).
enum PointSpec {
    Single(RunSpec),
    Smt(Vec<Bench>),
}

/// The fixed matrix: a spread of queue geometries, chain budgets and
/// predictor settings so the gate exercises signal traffic, promotion
/// pressure and chain churn, not one lucky configuration. `swim` appears
/// both chain-free/base and chain-free/comb so predictor overhead on a
/// bandwidth-bound workload is its own point, and the SMT mix profiles
/// the shared-queue pipeline.
fn matrix(sample: u64) -> Vec<(String, PointSpec)> {
    let points = [
        (Bench::Equake, 512, Some(128), PredictorConfig::Comb),
        (Bench::Gcc, 512, Some(128), PredictorConfig::Comb),
        (Bench::Swim, 512, None, PredictorConfig::Base),
        (Bench::Swim, 512, None, PredictorConfig::Comb),
        (Bench::Ammp, 256, Some(64), PredictorConfig::Comb),
        (Bench::Vortex, 128, Some(64), PredictorConfig::Hmp),
        (Bench::Twolf, 256, Some(128), PredictorConfig::Lrp),
    ];
    let mut out: Vec<(String, PointSpec)> = points
        .iter()
        .map(|&(bench, entries, chains, pred)| {
            let chain_label = chains.map_or_else(|| "inf".to_string(), |c| c.to_string());
            let label = format!("{}/seg{}c{}/{}", bench.name(), entries, chain_label, pred.label());
            (
                label,
                PointSpec::Single(RunSpec::new(bench, segmented(entries, chains), pred, sample)),
            )
        })
        .collect();
    out.push((
        "smt2:swim+gcc/seg512c128/comb".to_string(),
        PointSpec::Smt(vec![Bench::Swim, Bench::Gcc]),
    ));
    out
}

// Not a multiple of any predictor-table size, so thread contexts do not
// alias exactly onto the same PHT/BTB/HMP slots (same layout as the smt
// experiment binary).
const STRIDE: u64 = (1 << 40) | 0x94_530;

fn run_smt(mix: &[Bench], insts: u64) -> (u64, u64) {
    let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    cfg.use_lrp = true;
    let mut qc = SegmentedIqConfig::paper(512, Some(128));
    qc.two_chain_tracking = false;
    let threads: Vec<AddressSpace<SyntheticWorkload>> = mix
        .iter()
        .enumerate()
        .map(|(t, b)| {
            AddressSpace::new(
                SyntheticWorkload::from_profile(b.profile(), DEFAULT_SEED + t as u64),
                t as u64 * STRIDE,
                t as u64 * STRIDE,
            )
        })
        .collect();
    let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads);
    let stats = smt.run(insts);
    (stats.cycles, stats.committed)
}

struct Point {
    label: String,
    wall_s: f64,
    sim_cycles: u64,
    committed_insts: u64,
}

impl Point {
    fn kcycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_cycles as f64 / self.wall_s / 1e3
        } else {
            0.0
        }
    }
}

fn point_json(p: &Point) -> String {
    format!(
        "{{\"point\": \"{}\", \"sim_kcycles_per_sec\": {:.3}, \"wall_s\": {:.6}, \
         \"sim_cycles\": {}, \"committed_insts\": {}}}",
        p.label,
        p.kcycles_per_sec(),
        p.wall_s,
        p.sim_cycles,
        p.committed_insts,
    )
}

fn json(sample: u64, points: &[Point], agg: &Point) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"perf\",");
    let _ = writeln!(s, "  \"sample\": {sample},");
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(s, "    {}", point_json(p));
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"aggregate\": {{\"sim_kcycles_per_sec\": {:.3}, \"wall_s\": {:.6}, \
         \"sim_cycles\": {}, \"committed_insts\": {}}}",
        agg.kcycles_per_sec(),
        agg.wall_s,
        agg.sim_cycles,
        agg.committed_insts,
    );
    s.push_str("}\n");
    s
}

/// One self-contained JSON object — a single line, so the history file
/// stays `jsonl` and plain `grep`/`tail` keep working on it.
fn history_line(rev: &str, sample: u64, points: &[Point], agg: &Point) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\"suite\": \"perf\", \"rev\": \"{rev}\", \"sample\": {sample}, ");
    let _ = write!(
        s,
        "\"aggregate\": {{\"sim_kcycles_per_sec\": {:.3}, \"wall_s\": {:.6}, \
         \"sim_cycles\": {}, \"committed_insts\": {}}}, ",
        agg.kcycles_per_sec(),
        agg.wall_s,
        agg.sim_cycles,
        agg.committed_insts,
    );
    s.push_str("\"points\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&point_json(p));
    }
    s.push_str("]}\n");
    s
}

fn main() -> std::process::ExitCode {
    let sample = sample_size();
    println!("perf: simulator self-profile ({sample} committed instructions per point)\n");

    let mut points = Vec::new();
    for (label, spec) in matrix(sample) {
        eprintln!("  running {label} ...");
        #[expect(clippy::disallowed_types, reason = "D2: host time of one perf point")]
        let t0 = Instant::now();
        let (sim_cycles, committed_insts) = match spec {
            PointSpec::Single(spec) => {
                let result = spec.execute();
                (result.stats.cycles, result.stats.committed)
            }
            PointSpec::Smt(mix) => run_smt(&mix, sample),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        points.push(Point { label, wall_s, sim_cycles, committed_insts });
    }

    let agg = Point {
        label: "aggregate".to_string(),
        wall_s: points.iter().map(|p| p.wall_s).sum(),
        sim_cycles: points.iter().map(|p| p.sim_cycles).sum(),
        committed_insts: points.iter().map(|p| p.committed_insts).sum(),
    };

    let mut t = TextTable::new(&["point", "kcycles/s", "wall", "sim cycles", "committed"]);
    for p in points.iter().chain(std::iter::once(&agg)) {
        t.row(&[
            p.label.clone(),
            format!("{:.1}", p.kcycles_per_sec()),
            format!("{:.2} s", p.wall_s),
            p.sim_cycles.to_string(),
            p.committed_insts.to_string(),
        ]);
    }
    println!("{}", t.render());

    let throughput = agg.kcycles_per_sec();
    if !(throughput.is_finite() && throughput > 0.0) {
        eprintln!("error: aggregate throughput is {throughput}; refusing to write the artifact");
        return std::process::ExitCode::from(1);
    }

    let dir = results_dir();
    let path = dir.join("BENCH_perf.json");
    let body = json(sample, &points, &agg);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &body)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            return std::process::ExitCode::from(2);
        }
    }

    let history_path = dir.join("BENCH_perf_history.jsonl");
    let line = history_line(&git_rev(), sample, &points, &agg);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => {
            println!("appended {}", history_path.display());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not append {}: {e}", history_path.display());
            std::process::ExitCode::from(2)
        }
    }
}
