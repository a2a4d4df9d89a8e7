//! `chainiq-benchmark` — the host-time benchmark of the chainiq stack.
//!
//! ```text
//! chainiq-benchmark --workload <paper-grid|ckpt-rerun|serve-mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! chainiq-benchmark --print-digest      # regenerate digest/default-seed.txt
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Scratch
//! files go under `.bench_work/` in the working directory. See
//! `benchmark/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]

mod ckpt_rerun;
mod grid;
mod paper_grid;
mod probe;
mod report;
mod serve_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// The workload seed when `--seed` is not given: the repository's
/// experiment seed, at which results must match the committed digest.
pub const DEFAULT_SEED: u64 = chainiq_bench::DEFAULT_SEED;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    /// Host-speed probes taken before every set-up and pass.
    pub speed: probe::Speed,
}

impl Ctx {
    /// Runs passes for `share` of the measurement window: at least `min`
    /// of them, and no further pass once the median pass so far would end
    /// past the window. A host-speed probe runs before each pass. Pass
    /// times go to stderr.
    pub fn passes<T>(&self, share: f64, min: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
        let window = self.seconds * share;
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut times = Vec::new();
        while out.len() < min || t0.elapsed().as_secs_f64() + report::median(&times) <= window {
            let probe_s = self.speed.sample();
            let t = Instant::now();
            out.push(pass(out.len()));
            times.push(t.elapsed().as_secs_f64());
            eprintln!(
                "pass {}: {:.3} s (probe {:.1} ms)",
                out.len(),
                times[times.len() - 1],
                1e3 * probe_s
            );
        }
        out
    }
}

const USAGE: &str = "usage: chainiq-benchmark --workload <paper-grid|ckpt-rerun|serve-mix> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] | --print-digest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-digest") {
        print!("{}", paper_grid::digest_text(DEFAULT_SEED));
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| seed = v).map_err(|e| e.to_string()),
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => {
                    seconds = v;
                    Ok(())
                }
                _ => Err("must be a positive number".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    Ok(())
                }
                _ => Err("must be 0 or 1".to_string()),
            },
            _ => Err("unknown flag".to_string()),
        };
        if let Err(e) = parsed {
            eprintln!("{flag} {value}: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run: fn(&Ctx, &mut Report) = match workload.as_str() {
        "paper-grid" => paper_grid::run,
        "ckpt-rerun" => ckpt_rerun::run,
        "serve-mix" => serve_mix::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let ctx = Ctx { seed, seconds, trace, work, speed: probe::Speed::default() };
    let mut report = Report::default();
    run(&ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.work);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
