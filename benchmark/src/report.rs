//! The result line, summary statistics, and the per-layer metric set.
//!
//! Every workload prints the same metric names: the end-to-end set in an
//! untraced run and the per-layer set in a traced run. A layer a workload
//! never calls reports 0 there (the prediction for that workload is that
//! its layer metrics read 0).

use chainiq::RunResult;

use crate::grid::{Interval, PoolShape};
use crate::probe::Speed;
use crate::trace::{ratio, Acc, CkptTrace, IqTrace, QueueLayer, Span};
use crate::Ctx;

/// The one-line JSON result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (hung, wrong output, refused or errored).
    pub failed: u64,
    /// Whole-run checks that failed (not tied to one operation).
    broken: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Counts one operation and whether it passed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks `n` operations already counted as failed, after a check that
    /// can only be made once the operations have run.
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
        self.attempted = self.attempted.max(self.failed);
    }

    /// Records a failed whole-run check.
    pub fn broken(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.broken.push(what);
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The result object, on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        // A run that attempted nothing reports one failed operation.
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `values` (linear interpolation between ranks).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// This process's resident-set high-water mark (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one run, at the reference host speed.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Pass wall clock, seconds.
    pub wall_s: f64,
    /// Simulated kilo-instructions per busy host second.
    pub sim_kinst_per_s: f64,
}

impl EndToEnd {
    /// Writes the end-to-end set, with this process's peak RSS.
    pub fn put(&self, r: &mut Report) {
        r.put("setup_s", self.setup_s, "s");
        r.put("wall_s", self.wall_s, "s");
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        r.put("sim_kinst_per_s", self.sim_kinst_per_s, "kinst/s");
    }
}

/// One pass's end-to-end figures, before the run's median is taken.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassFigures {
    /// Pass wall clock, seconds.
    pub wall_s: f64,
    /// Simulated kilo-instructions per busy host second.
    pub sim_kinst_per_s: f64,
}

impl PassFigures {
    /// Figures of a pass from its wall clock, and simulated instructions
    /// over their busy seconds.
    #[must_use]
    pub fn new(wall_s: f64, sim_insts: u64, sim_busy_s: f64) -> Self {
        PassFigures { wall_s, sim_kinst_per_s: ratio(sim_insts as f64 / 1e3, sim_busy_s) }
    }

    /// Each figure's median over the run's passes, with the set-up time,
    /// scaled to the reference host speed: times multiplied and rates
    /// divided by `factor` ([`crate::probe::Speed::factor`]; 1 leaves host
    /// time).
    #[must_use]
    pub fn of_run(passes: &[PassFigures], setup_s: f64, factor: f64) -> EndToEnd {
        let m = |f: fn(&PassFigures) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        EndToEnd {
            setup_s: setup_s * factor,
            wall_s: m(|p| p.wall_s) * factor,
            sim_kinst_per_s: m(|p| p.sim_kinst_per_s) / factor,
        }
    }
}

/// Host time of traced spans, summed per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSums {
    /// Σ span durations.
    pub total_ns: u64,
    /// Instruction-stream calls.
    pub workload: Acc,
    /// Segmented-queue calls and simulated cycles.
    pub seg: IqTrace,
    seg_cycles: u64,
    ideal_ns: u64,
    ideal_cycles: u64,
    presched_ns: u64,
    presched_cycles: u64,
    baseline_ns: u64,
    cpu_self_ns: u64,
    cpu_cycles: u64,
    smt_self_ns: u64,
    smt_cycles: u64,
    /// Checkpoint children.
    pub ckpt: CkptTrace,
    images: u64,
}

impl SpanSums {
    /// Folds one span in.
    pub fn add(&mut self, s: &Span) {
        self.total_ns += s.dur_ns();
        self.workload.add(s.workload);
        let iq_ns = s.iq.total_ns();
        match s.queue {
            QueueLayer::Segmented => {
                self.seg.add(&s.iq);
                self.seg_cycles += s.cycles;
            }
            QueueLayer::Ideal => {
                self.ideal_ns += iq_ns;
                self.ideal_cycles += s.cycles;
            }
            QueueLayer::Prescheduled => {
                self.presched_ns += iq_ns;
                self.presched_cycles += s.cycles;
            }
            QueueLayer::Distance => {}
        }
        if s.queue != QueueLayer::Segmented {
            self.baseline_ns += iq_ns;
        }
        if s.smt {
            self.smt_self_ns += s.cpu_self_ns();
            self.smt_cycles += s.cycles;
        } else {
            self.cpu_self_ns += s.cpu_self_ns();
            self.cpu_cycles += s.cycles;
        }
        let c = &s.ckpt;
        for (sum, part) in [
            (&mut self.ckpt.read, c.read),
            (&mut self.ckpt.decode, c.decode),
            (&mut self.ckpt.encode, c.encode),
            (&mut self.ckpt.write, c.write),
        ] {
            sum.add(part);
        }
        self.ckpt.image_bytes += c.image_bytes;
        self.images += u64::from(c.image_bytes > 0);
    }
}

/// Simulated statistics summed over runs: exact sentinels that must not
/// move, and the segmented queue's volume counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimSums {
    committed: u64,
    cycles: u64,
    l1d_misses: u64,
    l1d_accesses: u64,
    l2_misses: u64,
    mshr_rejections: u64,
    branch_lookups: u64,
    branch_correct: u64,
    hmp_predicted_hit: u64,
    hmp_predicted_hit_was_hit: u64,
    seg_cycles: u64,
    signal_hops: u64,
    promotions: u64,
    pushdowns: u64,
    occupancy_accum: u64,
    occupancy_cycles: u64,
    dispatch_attempts: u64,
    dispatch_rejects: u64,
    deadlock_cycles: u64,
}

impl SimSums {
    /// Sums over `results`.
    pub fn of<'a>(results: impl Iterator<Item = &'a RunResult>) -> Self {
        let mut sums = SimSums::default();
        results.for_each(|r| sums.add(r));
        sums
    }

    /// Folds one run in.
    pub fn add(&mut self, r: &RunResult) {
        let s = &r.stats;
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.l1d_misses += s.mem.l1d.misses;
        self.l1d_accesses += s.mem.l1d.accesses();
        self.l2_misses += s.mem.l2.misses;
        self.mshr_rejections += s.mem.mshr_rejections;
        self.branch_lookups += s.branch_lookups;
        self.branch_correct += s.branch_correct;
        self.hmp_predicted_hit += s.hmp.predicted_hit;
        self.hmp_predicted_hit_was_hit += s.hmp.predicted_hit_was_hit;
        if let Some(seg) = &r.segmented {
            self.seg_cycles += s.cycles;
            self.signal_hops += seg.wire_signal_hops;
            self.promotions += seg.promotions;
            self.pushdowns += seg.pushdowns;
            self.occupancy_accum += seg.iq.occupancy_accum;
            self.occupancy_cycles += seg.iq.cycles;
            let rejects = seg.iq.stalls_full + seg.iq.stalls_no_chain;
            self.dispatch_attempts += seg.iq.dispatched + rejects;
            self.dispatch_rejects += rejects;
            self.deadlock_cycles += seg.deadlock_cycles;
        }
    }
}

/// Pool figures of the bench layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolFigures {
    /// Median spec busy time, ms.
    pub spec_p50_ms: f64,
    /// Slowest spec, ms.
    pub spec_max_ms: f64,
    /// Share of worker time without a job.
    pub idle_frac: f64,
    /// Wall clock after the first worker ran dry, seconds.
    pub tail_s: f64,
}

impl PoolFigures {
    /// Figures per fan-out (each the intervals of its jobs), then the
    /// median across fan-outs.
    pub fn of(fan_outs: impl Iterator<Item = Vec<Interval>>) -> Self {
        let per: Vec<PoolFigures> = fan_outs
            .map(|iv| {
                let shape = PoolShape::of(&iv);
                let ms: Vec<f64> = iv.iter().map(|i| 1e3 * i.secs()).collect();
                PoolFigures {
                    spec_p50_ms: median(&ms),
                    spec_max_ms: ms.iter().copied().fold(0.0, f64::max),
                    idle_frac: shape.idle_frac(),
                    tail_s: shape.tail_s,
                }
            })
            .collect();
        let m = |f: fn(&PoolFigures) -> f64| median(&per.iter().map(f).collect::<Vec<_>>());
        PoolFigures {
            spec_p50_ms: m(|p| p.spec_p50_ms),
            spec_max_ms: m(|p| p.spec_max_ms),
            idle_frac: m(|p| p.idle_frac),
            tail_s: m(|p| p.tail_s),
        }
    }
}

/// Checkpoint figures that are not span sums.
#[derive(Debug, Default, Clone, Copy)]
pub struct CkptFigures {
    /// Warm-pass restores ÷ warm-pass specs.
    pub hit_frac: f64,
    /// (read + decode) ÷ warm-pass span time.
    pub warm_self_frac: f64,
    /// Untraced cold-with-save pass, seconds.
    pub cold_save_s: f64,
    /// Untraced restore pass, seconds.
    pub warm_s: f64,
    /// Image bytes on disk after a pass, MiB.
    pub disk_mb: f64,
}

/// Serve-path figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeFigures {
    /// Median `ClientMsg::Submit` encode of one job, µs.
    pub request_encode_us: f64,
    /// Median `proto::decode_result` of one image, µs.
    pub result_decode_us: f64,
    /// Median `CacheDir::load` of one hit's entry, µs.
    pub cache_load_us: f64,
    /// Median hit latency minus request encode and cache load, µs.
    pub hit_wire_us: f64,
    /// Median in-process simulation of one miss, ms.
    pub miss_sim_ms: f64,
    /// Median miss latency minus its simulation, ms.
    pub miss_wait_ms: f64,
    /// Hits ÷ submitted jobs (server counters).
    pub hit_frac: f64,
    /// Busy refusals ÷ submitted grids.
    pub busy_frac: f64,
    /// Jobs joined onto an in-flight identical job.
    pub joined: f64,
    /// Untraced hit latency percentiles, µs.
    pub hit_p50_us: f64,
    /// Untraced hit latency percentiles, µs.
    pub hit_p99_us: f64,
    /// Untraced miss latency percentiles, ms.
    pub miss_p50_ms: f64,
    /// Untraced miss latency percentiles, ms.
    pub miss_p90_ms: f64,
}

/// Everything the per-layer set is computed from.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// Traced spans.
    pub spans: SpanSums,
    /// Simulated statistics of the traced runs.
    pub sim: SimSums,
    /// Bench pool shape (untraced).
    pub pool: PoolFigures,
    /// Checkpoint figures.
    pub ckpt: CkptFigures,
    /// Serve figures.
    pub serve: ServeFigures,
    /// Traced ÷ untraced median pass wall clock − 1.
    pub overhead_frac: f64,
    /// The run's median host-speed probe, ms.
    pub probe_ms: f64,
}

impl Layers {
    /// Writes the per-layer set, in a fixed order.
    #[allow(clippy::too_many_lines)]
    pub fn put(&self, r: &mut Report) {
        let sp = &self.spans;
        let total = sp.total_ns as f64;
        let frac = |ns: u64| ratio(ns as f64, total);
        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        let seg_ns = sp.seg.total_ns();

        r.put("workload.ns_per_inst", sp.workload.ns_per_call(), "ns");
        r.put("workload.self_frac", frac(sp.workload.ns), "frac");

        r.put("core.ns_per_cycle", per(seg_ns, sp.seg_cycles), "ns");
        r.put("core.self_frac", frac(seg_ns), "frac");
        r.put("core.tick_ns_per_cycle", sp.seg.tick.ns_per_call(), "ns");
        r.put("core.select_ns_per_cycle", sp.seg.select.ns_per_call(), "ns");
        r.put("core.dispatch_ns_per_call", sp.seg.dispatch.ns_per_call(), "ns");
        r.put("core.announce_ns_per_call", sp.seg.announce.ns_per_call(), "ns");
        r.put("core.writeback_ns_per_call", sp.seg.writeback.ns_per_call(), "ns");
        r.put("core.load_hook_ns_per_call", sp.seg.load_hook.ns_per_call(), "ns");

        let sim = &self.sim;
        let per_kcycle = |n: u64| ratio(1e3 * n as f64, sim.seg_cycles as f64);
        r.put("core.signal_hops_per_kcycle", per_kcycle(sim.signal_hops), "count");
        r.put("core.promotions_per_kcycle", per_kcycle(sim.promotions), "count");
        r.put("core.pushdowns_per_kcycle", per_kcycle(sim.pushdowns), "count");
        r.put(
            "core.mean_occupancy",
            ratio(sim.occupancy_accum as f64, sim.occupancy_cycles as f64),
            "entries",
        );
        r.put(
            "core.dispatch_reject_frac",
            ratio(sim.dispatch_rejects as f64, sim.dispatch_attempts as f64),
            "frac",
        );
        r.put(
            "core.deadlock_cycle_frac",
            ratio(sim.deadlock_cycles as f64, sim.seg_cycles as f64),
            "frac",
        );

        r.put("baseline.ideal_ns_per_cycle", per(sp.ideal_ns, sp.ideal_cycles), "ns");
        r.put("baseline.presched_ns_per_cycle", per(sp.presched_ns, sp.presched_cycles), "ns");
        r.put("baseline.self_frac", frac(sp.baseline_ns), "frac");

        r.put("cpu.self_ns_per_cycle", per(sp.cpu_self_ns, sp.cpu_cycles), "ns");
        r.put("cpu.self_frac", frac(sp.cpu_self_ns + sp.smt_self_ns), "frac");
        r.put("cpu.smt_self_ns_per_cycle", per(sp.smt_self_ns, sp.smt_cycles), "ns");

        let per_kinst = |n: u64| ratio(1e3 * n as f64, sim.committed as f64);
        r.put("mem.l1d_mpki", per_kinst(sim.l1d_misses), "count");
        r.put("mem.l2_mpki", per_kinst(sim.l2_misses), "count");
        r.put(
            "mem.mshr_reject_frac",
            ratio(sim.mshr_rejections as f64, sim.l1d_accesses as f64),
            "ratio",
        );
        r.put(
            "predict.branch_accuracy",
            ratio(sim.branch_correct as f64, sim.branch_lookups as f64),
            "frac",
        );
        r.put(
            "predict.hmp_accuracy",
            ratio(sim.hmp_predicted_hit_was_hit as f64, sim.hmp_predicted_hit as f64),
            "frac",
        );
        r.put("cpu.ipc", ratio(sim.committed as f64, sim.cycles as f64), "inst/cycle");

        let pool = &self.pool;
        r.put("bench.spec_p50_ms", pool.spec_p50_ms, "ms");
        r.put("bench.spec_max_ms", pool.spec_max_ms, "ms");
        r.put("bench.pool_idle_frac", pool.idle_frac, "frac");
        r.put("bench.tail_s", pool.tail_s, "s");

        let ck = &sp.ckpt;
        let ms_per = |a: Acc| 1e-6 * a.ns_per_call();
        r.put("ckpt.encode_ms", ms_per(ck.encode), "ms");
        r.put("ckpt.write_ms", ms_per(ck.write), "ms");
        r.put("ckpt.read_ms", ms_per(ck.read), "ms");
        r.put("ckpt.decode_ms", ms_per(ck.decode), "ms");
        r.put("ckpt.image_kb", ratio(ck.image_bytes as f64 / 1024.0, sp.images as f64), "KiB");
        let cf = &self.ckpt;
        r.put("ckpt.hit_frac", cf.hit_frac, "frac");
        r.put("ckpt.warm_self_frac", cf.warm_self_frac, "frac");
        r.put("ckpt.cold_save_s", cf.cold_save_s, "s");
        r.put("ckpt.warm_s", cf.warm_s, "s");
        r.put("ckpt.disk_mb", cf.disk_mb, "MiB");

        let sv = &self.serve;
        r.put("serve.request_encode_us", sv.request_encode_us, "us");
        r.put("serve.result_decode_us", sv.result_decode_us, "us");
        r.put("serve.cache_load_us", sv.cache_load_us, "us");
        r.put("serve.hit_wire_us", sv.hit_wire_us, "us");
        r.put("serve.miss_sim_ms", sv.miss_sim_ms, "ms");
        r.put("serve.miss_wait_ms", sv.miss_wait_ms, "ms");
        r.put("serve.hit_frac", sv.hit_frac, "frac");
        r.put("serve.busy_frac", sv.busy_frac, "frac");
        r.put("serve.joined", sv.joined, "count");
        r.put("serve.hit_p50_us", sv.hit_p50_us, "us");
        r.put("serve.hit_p99_us", sv.hit_p99_us, "us");
        r.put("serve.miss_p50_ms", sv.miss_p50_ms, "ms");
        r.put("serve.miss_p90_ms", sv.miss_p90_ms, "ms");

        r.put("trace.overhead_frac", self.overhead_frac, "frac");
        r.put("host.probe_ms", self.probe_ms, "ms");
    }
}

/// Median host seconds of `n` set-ups, each after a host-speed probe, and
/// the last set-up's result.
pub fn timed_setups<T>(n: usize, speed: &Speed, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        speed.sample();
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.3} s", times.len(), times[times.len() - 1]);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Writes a traced run's spans, one JSON object per line, to
/// `.bench_work/spans/<workload>-seed<n>.jsonl`.
pub fn write_spans(ctx: &Ctx, workload: &str, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_work").join("spans");
    let path = dir.join(format!("{workload}-seed{}.jsonl", ctx.seed));
    let text: String = spans.iter().map(|s| s.to_json() + "\n").collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_result_line_names_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.op(true);
        r.put("wall_s", 1.25, "s");
        r.put("bad", f64::NAN, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        r.op(false);
        assert!(!r.correct());
        r.fail(1);
        assert_eq!((r.attempted, r.failed), (2, 2));
        r.fail(1);
        assert_eq!((r.attempted, r.failed), (3, 3), "never more failed than attempted");
    }

    #[test]
    fn every_workload_prints_the_same_layer_names() {
        let mut a = Report::default();
        Layers::default().put(&mut a);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.0).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
        assert!(names.contains(&"trace.overhead_frac") && names.contains(&"core.ns_per_cycle"));
    }
}
