//! `paper-grid`: the F2+T2+F3 grid cold on two workers, then the nine SMT
//! mixes — the job users run. Never touches `ckpt` or `serve`.

use std::time::Instant;

use chainiq::RunResult;
use chainiq_bench::RunSpec;

use crate::grid::{
    fan_out, paper_grid, run_mix, run_mix_traced, smt_mixes, warm_up_specs, Interval, Mix,
    MixResult, GRID_SAMPLE, SMT_SAMPLE,
};
use crate::report::{
    median, timed_setups, write_spans, Layers, PassFigures, PoolFigures, Report, SimSums,
};
use crate::trace::{run_spec_traced, stats_digest, Span};
use crate::{Ctx, DEFAULT_SEED};

/// Set-up repetitions per run; the median is reported.
pub const SETUPS: usize = 7;

/// Digest of every default-seed result, one line per operation.
const DEFAULT_DIGEST: &str = include_str!("../digest/default-seed.txt");

/// The operations of one run, built during set-up.
pub struct Inputs {
    /// The 275 grid specs.
    pub specs: Vec<RunSpec>,
    /// The nine SMT mixes.
    pub mixes: Vec<Mix>,
    /// Expected digest per operation (specs, then mixes) at the default
    /// seed; `None` at any other seed.
    pub expected: Option<Vec<u64>>,
}

/// Builds the inputs and runs a small warm-up fan-out (code and allocator
/// warm, lazy set-up done) — the benchmark's set-up.
pub fn setup(seed: u64) -> Inputs {
    let specs = paper_grid(GRID_SAMPLE, seed);
    let mixes = smt_mixes();
    let expected = (seed == DEFAULT_SEED).then(parse_default_digest);
    warm_up(&specs, &mixes, seed);
    Inputs { specs, mixes, expected }
}

/// Short runs of every queue design and one SMT mix, on both workers.
pub fn warm_up(specs: &[RunSpec], mixes: &[Mix], seed: u64) {
    let _ = fan_out(&warm_up_specs(specs), Instant::now(), RunSpec::execute);
    let _ = run_mix(&mixes[1], 2_000, seed);
}

/// The committed default-seed digest, one entry per operation.
pub fn parse_default_digest() -> Vec<u64> {
    DEFAULT_DIGEST
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|h| u64::from_str_radix(h, 16).ok())
        .collect()
}

/// The committed digest text for `seed`: one line per grid spec, then one
/// per SMT mix.
#[must_use]
pub fn digest_text(seed: u64) -> String {
    let specs = paper_grid(GRID_SAMPLE, seed);
    let mixes = smt_mixes();
    let t0 = Instant::now();
    let grid = fan_out(&specs, t0, RunSpec::execute);
    let smt = fan_out(&mixes, t0, |m| run_mix(m, SMT_SAMPLE, seed));
    let mut out = String::new();
    for (spec, (r, _)) in specs.iter().zip(&grid) {
        out.push_str(&format!(
            "{} {:016x}\n",
            spec.label(),
            stats_digest(&r.stats, r.segmented.as_ref())
        ));
    }
    for (mix, (m, _)) in mixes.iter().zip(&smt) {
        out.push_str(&format!("smt:{} {:016x}\n", mix.label.replace(' ', "_"), m.digest()));
    }
    out
}

/// One pass's outputs.
struct Pass {
    wall_s: f64,
    grid: Vec<(RunResult, Interval)>,
    smt: Vec<(MixResult, Interval)>,
    spans: Vec<Span>,
}

impl Pass {
    fn digests(&self) -> Vec<u64> {
        let grid = self.grid.iter().map(|(r, _)| stats_digest(&r.stats, r.segmented.as_ref()));
        grid.chain(self.smt.iter().map(|(m, _)| m.digest())).collect()
    }

    fn figures(&self) -> PassFigures {
        let busy: f64 = self
            .grid
            .iter()
            .map(|(_, i)| i.secs())
            .chain(self.smt.iter().map(|(_, i)| i.secs()))
            .sum();
        let insts: u64 = self.grid.iter().map(|(r, _)| r.stats.committed).sum::<u64>()
            + self.smt.iter().map(|(m, _)| m.committed()).sum::<u64>();
        PassFigures::new(self.wall_s, insts, busy)
    }
}

fn untraced_pass(inp: &Inputs, seed: u64) -> Pass {
    let t0 = Instant::now();
    let grid = fan_out(&inp.specs, t0, RunSpec::execute);
    let t1 = Instant::now();
    let smt = fan_out(&inp.mixes, t1, |m| run_mix(m, SMT_SAMPLE, seed));
    Pass { wall_s: t0.elapsed().as_secs_f64(), grid, smt, spans: Vec::new() }
}

fn traced_pass(inp: &Inputs, seed: u64) -> Pass {
    let t0 = Instant::now();
    let traced = fan_out(&inp.specs, t0, |s| run_spec_traced(s, None, t0));
    let t1 = Instant::now();
    let smt_traced = fan_out(&inp.mixes, t1, |m| run_mix_traced(m, SMT_SAMPLE, seed, t1));
    let wall_s = t0.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let grid = traced
        .into_iter()
        .map(|((r, _, span), i)| {
            spans.push(span);
            (r, i)
        })
        .collect();
    let smt = smt_traced
        .into_iter()
        .map(|((m, s), i)| {
            spans.extend(s);
            (m, i)
        })
        .collect();
    Pass { wall_s, grid, smt, spans }
}

/// Checks every operation of `pass` against `reference` and counts it.
fn check(report: &mut Report, pass: &Pass, reference: &[u64]) {
    let digests = pass.digests();
    for (i, d) in digests.iter().enumerate() {
        let sane = match pass.grid.get(i) {
            Some((r, _)) => !r.stats.hung && r.stats.committed >= GRID_SAMPLE,
            None => pass.smt[i - pass.grid.len()].0.ok(SMT_SAMPLE),
        };
        report.op(sane && reference.get(i) == Some(d));
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let (setup_s, inp) = timed_setups(SETUPS, &ctx.speed, || setup(ctx.seed));
    let share = if ctx.trace { 0.5 } else { 1.0 };
    let untraced = ctx.passes(share, 2, |_| untraced_pass(&inp, ctx.seed));
    let reference = inp.expected.clone().unwrap_or_else(|| untraced[0].digests());
    if reference.len() != inp.specs.len() + inp.mixes.len() {
        report.broken(format!("digest has {} entries", reference.len()));
    }
    for pass in &untraced {
        check(report, pass, &reference);
    }
    let figures: Vec<PassFigures> = untraced.iter().map(Pass::figures).collect();
    if !ctx.trace {
        PassFigures::of_run(&figures, setup_s, ctx.speed.factor()).put(report);
        return;
    }
    let traced = ctx.passes(0.5, 1, |_| traced_pass(&inp, ctx.seed));
    let mut layers = Layers::default();
    for pass in &traced {
        check(report, pass, &reference);
        pass.spans.iter().for_each(|s| layers.spans.add(s));
    }
    write_spans(ctx, "paper-grid", &traced[0].spans);
    layers.sim = SimSums::of(traced[0].grid.iter().map(|(r, _)| r));
    layers.pool =
        PoolFigures::of(untraced.iter().map(|p| p.grid.iter().map(|(_, i)| *i).collect()));
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    layers.overhead_frac = traced_wall / PassFigures::of_run(&figures, setup_s, 1.0).wall_s - 1.0;
    layers.probe_ms = 1e3 * ctx.speed.probe_s();
    layers.put(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_digest_covers_every_operation() {
        let n = paper_grid(GRID_SAMPLE, DEFAULT_SEED).len() + smt_mixes().len();
        assert_eq!(parse_default_digest().len(), n);
    }
}
