//! `ckpt-rerun`: the 275 grid specs through the checkpoint cache, from an
//! empty cache directory each pass — once cold-with-save (every image
//! written), then once warm (every image restored), on two workers.

use std::path::Path;
use std::time::Instant;

use chainiq::{CkptOutcome, RunResult};
use chainiq_bench::RunSpec;

use crate::grid::{fan_out, paper_grid, warm_up_specs, Interval, GRID_SAMPLE};
use crate::paper_grid::{parse_default_digest, SETUPS};
use crate::report::{
    median, timed_setups, write_spans, Layers, PassFigures, PoolFigures, Report, SimSums,
};
use crate::trace::{run_spec_traced, stats_digest, Span};
use crate::{Ctx, DEFAULT_SEED};

/// Results of one fan-out through the cache.
type Runs = Vec<((RunResult, CkptOutcome), Interval)>;

struct Pass {
    cold_s: f64,
    warm_s: f64,
    disk_mb: f64,
    cold: Runs,
    warm: Runs,
    /// Traced spans of the cold and the warm fan-out.
    spans: (Vec<Span>, Vec<Span>),
}

impl Pass {
    fn figures(&self) -> PassFigures {
        let runs = || self.cold.iter().chain(&self.warm);
        let busy: f64 = runs().map(|(_, i)| i.secs()).sum();
        let insts: u64 = runs().map(|((r, _), _)| r.stats.committed).sum();
        PassFigures::new(self.cold_s + self.warm_s, insts, busy)
    }
}

/// Total bytes of the files in `dir`, MiB.
fn dir_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0);
    bytes as f64 / (1024.0 * 1024.0)
}

fn one_pass(specs: &[RunSpec], dir: &Path, traced: bool) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let run = |t0: Instant| -> (Runs, Vec<Span>, f64) {
        let mut spans = Vec::new();
        let runs = if traced {
            fan_out(specs, t0, |s| run_spec_traced(s, Some(dir), t0))
                .into_iter()
                .map(|((r, o, span), i)| {
                    spans.push(span);
                    ((r, o), i)
                })
                .collect()
        } else {
            fan_out(specs, t0, |s| s.execute_cached(Some(dir)))
        };
        (runs, spans, t0.elapsed().as_secs_f64())
    };
    let (cold, cold_spans, cold_s) = run(Instant::now());
    let (warm, warm_spans, warm_s) = run(Instant::now());
    let disk_mb = dir_mb(dir);
    let _ = std::fs::remove_dir_all(dir);
    Pass { cold_s, warm_s, disk_mb, cold, warm, spans: (cold_spans, warm_spans) }
}

fn check(report: &mut Report, pass: &Pass, reference: &[u64]) {
    for (i, (((c, co), _), ((w, wo), _))) in pass.cold.iter().zip(&pass.warm).enumerate() {
        let dc = stats_digest(&c.stats, c.segmented.as_ref());
        let dw = stats_digest(&w.stats, w.segmented.as_ref());
        // Specs repeated inside the grid may restore the image their twin
        // saved moments earlier, even in the cold pass.
        let cold_ok = matches!(co, CkptOutcome::MissSaved | CkptOutcome::Hit);
        let sane = !c.stats.hung && c.stats.committed >= GRID_SAMPLE;
        report.op(sane
            && cold_ok
            && *wo == CkptOutcome::Hit
            && dc == dw
            && reference.get(i) == Some(&dc));
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let (setup_s, (specs, expected)) = timed_setups(SETUPS, &ctx.speed, || setup(ctx));
    let share = if ctx.trace { 0.5 } else { 1.0 };
    let untraced =
        ctx.passes(share, 2, |k| one_pass(&specs, &ctx.work.join(format!("pass-{k}")), false));
    let reference = expected.unwrap_or_else(|| {
        untraced[0]
            .cold
            .iter()
            .map(|((r, _), _)| stats_digest(&r.stats, r.segmented.as_ref()))
            .collect()
    });
    for pass in &untraced {
        check(report, pass, &reference);
    }
    let figures: Vec<PassFigures> = untraced.iter().map(Pass::figures).collect();
    if !ctx.trace {
        PassFigures::of_run(&figures, setup_s, ctx.speed.factor()).put(report);
        return;
    }
    let traced =
        ctx.passes(0.5, 1, |k| one_pass(&specs, &ctx.work.join(format!("traced-{k}")), true));
    let mut layers = Layers::default();
    let mut warm_ckpt_ns = 0;
    let mut warm_total_ns = 0;
    let (mut hits, mut warm_runs) = (0, 0);
    for pass in &traced {
        check(report, pass, &reference);
        for s in pass.spans.0.iter().chain(&pass.spans.1) {
            layers.spans.add(s);
        }
        for s in &pass.spans.1 {
            warm_ckpt_ns += s.ckpt.read.ns + s.ckpt.decode.ns;
            warm_total_ns += s.dur_ns();
        }
        hits += pass.warm.iter().filter(|((_, o), _)| *o == CkptOutcome::Hit).count();
        warm_runs += pass.warm.len();
    }
    let mut spans = traced[0].spans.0.clone();
    spans.extend(traced[0].spans.1.iter().cloned());
    write_spans(ctx, "ckpt-rerun", &spans);
    layers.sim = SimSums::of(traced[0].cold.iter().map(|((r, _), _)| r));
    layers.pool = PoolFigures::of(
        untraced
            .iter()
            .flat_map(|p| [&p.cold, &p.warm])
            .map(|runs| runs.iter().map(|(_, i)| *i).collect()),
    );
    let m = |f: fn(&Pass) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    layers.ckpt.hit_frac = hits as f64 / warm_runs.max(1) as f64;
    layers.ckpt.warm_self_frac = warm_ckpt_ns as f64 / warm_total_ns.max(1) as f64;
    layers.ckpt.cold_save_s = m(|p| p.cold_s);
    layers.ckpt.warm_s = m(|p| p.warm_s);
    layers.ckpt.disk_mb = m(|p| p.disk_mb);
    let traced_wall = median(&traced.iter().map(|p| p.cold_s + p.warm_s).collect::<Vec<_>>());
    layers.overhead_frac = traced_wall / PassFigures::of_run(&figures, setup_s, 1.0).wall_s - 1.0;
    layers.probe_ms = 1e3 * ctx.speed.probe_s();
    layers.put(report);
}

/// Inputs plus a warm-up that saves and restores one small image, so the
/// checkpoint code paths are warm before timing.
fn setup(ctx: &Ctx) -> (Vec<RunSpec>, Option<Vec<u64>>) {
    let specs = paper_grid(GRID_SAMPLE, ctx.seed);
    let expected = (ctx.seed == DEFAULT_SEED).then(|| {
        let mut d = parse_default_digest();
        d.truncate(specs.len());
        d
    });
    let scratch = ctx.work.join("warm-up");
    let _ = std::fs::remove_dir_all(&scratch);
    let picks = warm_up_specs(&specs);
    for _ in 0..2 {
        let _ = fan_out(&picks, Instant::now(), |s| s.execute_cached(Some(&scratch)));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    (specs, expected)
}
