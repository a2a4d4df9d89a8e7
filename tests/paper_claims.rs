//! The paper-vs-measured verdicts of EXPERIMENTS.md, asserted against the
//! committed `results/` tables as they are written. Nothing here
//! simulates: a model change that regenerates `results/` fails these
//! tests until EXPERIMENTS.md's verdicts (and the bands below) are
//! updated with it.
//!
//! Each band is the one stated next to its verdict in EXPERIMENTS.md. A
//! "~ partial" verdict is pinned as partial, so a flip either way fails.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code: a failed unwrap is the test failing"
)]

use std::path::PathBuf;

/// The committed `results/` table `file`.
fn results(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

/// The paper's §6.2 average chain-count reductions, in percent.
const PAPER_HMP_CUT: i64 = 33;
const PAPER_LRP_CUT: i64 = 58;
const PAPER_COMB_CUT: i64 = 67;

/// Half-width of the band around each paper cut, in percentage points.
const CUT_BAND: i64 = 5;

/// One benchmark row of Table 2: mean and peak live chains per column.
#[derive(Debug)]
struct Table2Row {
    bench: String,
    base_avg: u64,
    base_peak: u64,
    hmp_avg: u64,
}

/// `results/table2.txt`: the benchmark rows and the printed
/// "Reductions vs base" percentages, keyed by column name.
struct Table2 {
    rows: Vec<Table2Row>,
    cuts: Vec<(String, i64)>,
}

impl Table2 {
    fn load() -> Table2 {
        Table2::parse(&results("table2.txt"))
    }

    fn parse(text: &str) -> Table2 {
        let mut lines = text.lines();
        lines.by_ref().find(|l| l.starts_with("bench ")).expect("no Table 2 header row");
        lines.next().expect("no rule under the header");
        let rows: Vec<Table2Row> = lines
            .by_ref()
            .map_while(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                (cells.len() == 9 && cells[0] != "average").then(|| Table2Row {
                    bench: cells[0].to_string(),
                    base_avg: cells[1].parse().expect("base avg"),
                    base_peak: cells[2].parse().expect("base peak"),
                    hmp_avg: cells[3].parse().expect("hmp avg"),
                })
            })
            .collect();
        lines.find(|l| l.starts_with("Reductions vs base")).expect("no reductions block");
        let cuts = lines
            .map_while(|l| {
                let (name, pct) = l.trim().split_once(": ")?;
                Some((name.to_string(), pct.strip_suffix('%')?.parse().ok()?))
            })
            .collect();
        Table2 { rows, cuts }
    }

    fn cut(&self, column: &str) -> i64 {
        self.cuts
            .iter()
            .find(|(name, _)| name == column)
            .map(|&(_, pct)| pct)
            .unwrap_or_else(|| panic!("no {column} reduction in {:?}", self.cuts))
    }

    fn row(&self, bench: &str) -> &Table2Row {
        self.rows.iter().find(|r| r.bench == bench).unwrap_or_else(|| panic!("no {bench} row"))
    }
}

fn within_band(measured: i64, paper: i64) -> bool {
    (measured - paper).abs() <= CUT_BAND
}

#[test]
fn table2_has_every_benchmark() {
    let t = Table2::load();
    let benches: Vec<&str> = t.rows.iter().map(|r| r.bench.as_str()).collect();
    assert_eq!(benches, ["ammp", "applu", "equake", "gcc", "mgrid", "swim", "twolf", "vortex"]);
}

/// ✔ LRP cuts average chains (paper −58%) and ✔ combined cut (−67%).
#[test]
fn table2_lrp_and_combined_cuts_match_the_paper() {
    let t = Table2::load();
    let (lrp, comb) = (t.cut("lrp"), t.cut("comb"));
    assert!(within_band(lrp, PAPER_LRP_CUT), "LRP cut {lrp}% vs paper {PAPER_LRP_CUT}%");
    assert!(within_band(comb, PAPER_COMB_CUT), "combined cut {comb}% vs paper {PAPER_COMB_CUT}%");
}

/// ~ HMP cut (paper −33%): the direction is right but the cut falls short
/// of the paper's band. Reaching the band, or losing the direction, is a
/// verdict change.
#[test]
fn table2_hmp_cut_is_partial() {
    let hmp = Table2::load().cut("hmp");
    assert!(hmp > 0, "HMP cut {hmp}% lost its direction");
    assert!(
        hmp < PAPER_HMP_CUT - CUT_BAND,
        "HMP cut {hmp}% reached the paper's band around {PAPER_HMP_CUT}%"
    );
}

/// ✔ Peak usage can exceed what 64 chain wires cover.
#[test]
fn table2_every_base_peak_exceeds_64() {
    for r in &Table2::load().rows {
        assert!(r.base_peak > 64, "{}: base peak {}", r.bench, r.base_peak);
    }
}

/// ✔ exact: swim sees no HMP decrease (more than 90% of its loads miss).
#[test]
fn table2_swim_hmp_equals_base() {
    let t = Table2::load();
    let swim = t.row("swim");
    assert_eq!(swim.hmp_avg, swim.base_avg);
}

/// ✔ FP benchmarks need the most chains: swim, applu and mgrid have the
/// three largest base averages.
#[test]
fn table2_fp_benchmarks_need_the_most_chains() {
    let t = Table2::load();
    let mut rows: Vec<&Table2Row> = t.rows.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.base_avg));
    let mut top: Vec<&str> = rows[..3].iter().map(|r| r.bench.as_str()).collect();
    top.sort_unstable();
    assert_eq!(top, ["applu", "mgrid", "swim"]);
}

/// Figure 2's benchmark blocks and chain-count rows, in file order.
const FIG2_BENCHES: [&str; 8] =
    ["mgrid", "vortex", "twolf", "applu", "ammp", "swim", "equake", "average"];
const FIG2_CHAINS: [&str; 3] = ["unlimited", "128 chains", "64 chains"];

/// Figure 2's predictor columns.
const BASE: usize = 0;
const HMP: usize = 1;
const LRP: usize = 2;
const COMB: usize = 3;

/// The paper's §6.1 base-predictor averages, in percent of ideal IPC:
/// unlimited chains, then 128 and 64 chains.
const PAPER_BASE_UNLIMITED: f64 = 84.0;
const PAPER_BASE_FINITE: [(&str, f64); 2] = [("128 chains", 71.0), ("64 chains", 61.0)];

/// The paper's average HMP gain at finite chains, in percentage points
/// (+9 at 128 chains, +10 at 64); a gain below this is not the paper's.
const PAPER_HMP_GAIN: f64 = 9.0;

/// One row of Figure 2: a benchmark (or the average) at one chain count,
/// with the % of ideal IPC under each predictor column.
#[derive(Debug)]
struct Fig2Row {
    bench: String,
    chains: String,
    pct: [f64; 4],
}

/// `results/fig2.txt`'s table rows.
struct Fig2 {
    rows: Vec<Fig2Row>,
}

impl Fig2 {
    fn load() -> Fig2 {
        Fig2::parse(&results("fig2.txt"))
    }

    fn parse(text: &str) -> Fig2 {
        let mut lines = text.lines();
        lines.by_ref().find(|l| l.starts_with("bench ")).expect("no Figure 2 header row");
        lines.next().expect("no rule under the header");
        let rows = lines
            .map_while(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                // "unlimited" is one cell, "128 chains" two.
                let at = if cells.get(1) == Some(&"unlimited") { 2 } else { 3 };
                let nums: Vec<f64> = cells.get(at..)?.iter().map(|c| c.parse().unwrap()).collect();
                Some(Fig2Row {
                    bench: cells[0].to_string(),
                    chains: cells[1..at].join(" "),
                    pct: nums.try_into().expect("four predictor columns"),
                })
            })
            .collect();
        Fig2 { rows }
    }

    fn pct(&self, bench: &str, chains: &str) -> [f64; 4] {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.chains == chains)
            .unwrap_or_else(|| panic!("no {bench} {chains} row"))
            .pct
    }

    /// The benchmark rows (not the average) at `chains`.
    fn benches<'a>(&'a self, chains: &'a str) -> impl Iterator<Item = &'a Fig2Row> {
        self.rows.iter().filter(move |r| r.chains == chains && r.bench != "average")
    }
}

#[test]
fn fig2_has_every_benchmark_and_chain_count() {
    let rows: Vec<(String, String)> =
        Fig2::load().rows.into_iter().map(|r| (r.bench, r.chains)).collect();
    let want: Vec<(String, String)> = FIG2_BENCHES
        .iter()
        .flat_map(|b| FIG2_CHAINS.iter().map(|c| (b.to_string(), c.to_string())))
        .collect();
    assert_eq!(rows, want);
}

/// ✔ Base/unlimited is within 16% of ideal on average (paper 84%); ours
/// is tighter.
#[test]
fn fig2_base_unlimited_average_is_within_16_percent() {
    let avg = Fig2::load().pct("average", "unlimited")[BASE];
    assert!(avg >= PAPER_BASE_UNLIMITED, "base/unlimited average {avg}%");
}

/// ~ partial: mgrid is the best base performer in the paper (99.4%).
/// Here it is near-ideal, at 95% or more, but another benchmark edges
/// it.
#[test]
fn fig2_mgrid_near_ideal_but_not_best_is_partial() {
    let fig = Fig2::load();
    let mgrid = fig.pct("mgrid", "unlimited")[BASE];
    assert!(mgrid >= 95.0, "mgrid base/unlimited {mgrid}%");
    let best = fig.benches("unlimited").map(|r| r.pct[BASE]).fold(f64::MIN, f64::max);
    assert!(best > mgrid, "mgrid became the best base performer");
}

/// ✔ vortex and twolf do well: both at 90% of ideal or more at base and
/// unlimited chains.
#[test]
fn fig2_vortex_and_twolf_do_well() {
    let fig = Fig2::load();
    for bench in ["vortex", "twolf"] {
        let pct = fig.pct(bench, "unlimited")[BASE];
        assert!(pct >= 90.0, "{bench} base/unlimited {pct}%");
    }
}

/// ✔ Finite chains hurt the base average (paper: 71% at 128 chains,
/// 61% at 64), each step fewer hurting more, but milder than the
/// paper's: both stay above its levels.
#[test]
fn fig2_finite_chains_hurt_but_milder() {
    let fig = Fig2::load();
    let mut prev = fig.pct("average", "unlimited")[BASE];
    for (chains, paper) in PAPER_BASE_FINITE {
        let avg = fig.pct("average", chains)[BASE];
        assert!(avg < prev, "base average at {chains} ({avg}%) did not drop");
        assert!(avg > paper, "base average at {chains} {avg}% vs paper {paper}%");
        prev = avg;
    }
}

/// ✔ swim suffers most from finite chains: its base drop from unlimited
/// chains is the largest of any benchmark at both 128 and 64 chains.
#[test]
fn fig2_swim_suffers_most_from_finite_chains() {
    let fig = Fig2::load();
    let drop = |bench: &str, chains: &str| {
        fig.pct(bench, "unlimited")[BASE] - fig.pct(bench, chains)[BASE]
    };
    for (chains, _) in PAPER_BASE_FINITE {
        let swim = drop("swim", chains);
        for r in fig.benches(chains).filter(|r| r.bench != "swim") {
            assert!(drop(&r.bench, chains) < swim, "{} drops more than swim at {chains}", r.bench);
        }
    }
}

/// ✔ LRP recovers chain-starved configs: its average beats base at 128
/// and 64 chains.
#[test]
fn fig2_lrp_recovers_chain_starved_configs() {
    let fig = Fig2::load();
    for (chains, _) in PAPER_BASE_FINITE {
        let pct = fig.pct("average", chains);
        assert!(pct[LRP] > pct[BASE], "LRP average {}% at {chains}", pct[LRP]);
    }
}

/// ~ partial: LRP mispredictions cost ammp and twolf in the paper. At
/// unlimited chains twolf loses two points or more; ammp stays within
/// one.
#[test]
fn fig2_lrp_cost_on_ammp_and_twolf_is_partial() {
    let fig = Fig2::load();
    let cost = |bench: &str| {
        let pct = fig.pct(bench, "unlimited");
        pct[BASE] - pct[LRP]
    };
    let (twolf, ammp) = (cost("twolf"), cost("ammp"));
    assert!(twolf >= 2.0, "twolf LRP cost {twolf:.1} points");
    assert!(ammp.abs() < 1.0, "ammp LRP cost {ammp:.1} points");
}

/// ~ partial: HMP helps at finite chains (paper +9/+10 points on
/// average). Here it helps mgrid at 64 chains by two points or more,
/// while the averages at 128 and 64 chains move by less than the
/// paper's gain in either direction.
#[test]
fn fig2_hmp_at_finite_chains_is_partial() {
    let fig = Fig2::load();
    let mgrid = fig.pct("mgrid", "64 chains");
    assert!(
        mgrid[HMP] - mgrid[BASE] >= 2.0,
        "mgrid@64 HMP {}% vs base {}%",
        mgrid[HMP],
        mgrid[BASE]
    );
    for (chains, _) in PAPER_BASE_FINITE {
        let pct = fig.pct("average", chains);
        let gain = pct[HMP] - pct[BASE];
        assert!(gain.abs() < PAPER_HMP_GAIN, "average HMP gain {gain:.1} points at {chains}");
    }
}

/// ~ HMP is neutral-positive at unlimited chains in the paper (a slight
/// gain). Here it costs the average a little: less than zero, by under
/// five points.
#[test]
fn fig2_hmp_at_unlimited_chains_is_partial() {
    let pct = Fig2::load().pct("average", "unlimited");
    let gain = pct[HMP] - pct[BASE];
    assert!(gain < 0.0 && gain > -5.0, "average HMP gain {gain:.1} points at unlimited chains");
}

/// ~ partial: comb is about additive and best overall at 64 chains in
/// the paper. Here its average beats base and HMP there, but LRP alone
/// beats comb.
#[test]
fn fig2_comb_at_64_chains_is_partial() {
    let pct = Fig2::load().pct("average", "64 chains");
    assert!(pct[COMB] > pct[BASE] && pct[COMB] > pct[HMP], "comb {}% at 64 chains", pct[COMB]);
    assert!(pct[LRP] > pct[COMB], "comb became the best at 64 chains");
}

/// ✔ exact: swim is insensitive to HMP — the HMP column equals base and
/// comb equals LRP at every chain count.
#[test]
fn fig2_swim_is_insensitive_to_hmp() {
    let fig = Fig2::load();
    for chains in FIG2_CHAINS {
        let pct = fig.pct("swim", chains);
        assert_eq!((pct[HMP], pct[COMB]), (pct[BASE], pct[LRP]), "swim at {chains}");
    }
}

/// The SPEC2000 integer benchmarks of the grid; the other five are FP.
const INT_BENCHES: [&str; 3] = ["gcc", "twolf", "vortex"];

/// The paper's largest ideal-queue gains from 32 to 512 entries, in
/// percent (§6.1).
const PAPER_INT_GAIN: f64 = 69.0;
const PAPER_FP_GAIN: f64 = 398.0;

/// Half-width of the band around the paper's largest FP gain, in
/// percentage points.
const FP_GAIN_BAND: f64 = 50.0;

/// The paper's average comb retention of ideal IPC at 256 and 512
/// entries, and how far above it ours may sit, in percentage points.
const PAPER_RETENTION: [(usize, f64); 2] = [(256, 85.0), (512, 81.0)];
const RETENTION_BAND: f64 = 10.0;

/// A prescheduling curve whose IPC gains less than this, in percent,
/// from 128 to 1472 slots is "flat".
const FLAT_GAIN: f64 = 5.0;

/// Queue sizes of Figure 3's columns; the prescheduled row has no 512
/// column.
const SIZES: [usize; 5] = [32, 64, 128, 256, 512];

/// One benchmark block of Figure 3: IPC per queue size for each curve.
#[derive(Debug)]
struct Fig3Bench {
    bench: String,
    ideal: Vec<f64>,
    comb128: Vec<f64>,
    presched: Vec<f64>,
}

impl Fig3Bench {
    fn col(size: usize) -> usize {
        SIZES.iter().position(|&s| s == size).unwrap_or_else(|| panic!("no {size} column"))
    }

    /// Comb-128 IPC as a percentage of ideal IPC at `size` entries.
    fn retention(&self, size: usize) -> f64 {
        let c = Fig3Bench::col(size);
        100.0 * self.comb128[c] / self.ideal[c]
    }
}

/// Percent gain from the first to the last value of a curve.
fn gain(curve: &[f64]) -> f64 {
    100.0 * (curve[curve.len() - 1] / curve[0] - 1.0)
}

/// `results/fig3.txt`, one entry per `== bench ==` block.
fn load_fig3() -> Vec<Fig3Bench> {
    parse_fig3(&results("fig3.txt"))
}

fn parse_fig3(text: &str) -> Vec<Fig3Bench> {
    let mut benches = Vec::new();
    let mut lines = text.lines();
    while let Some(head) = lines.find(|l| l.starts_with("== ")) {
        let bench = head.trim_matches(|c| c == '=' || c == ' ').to_string();
        let mut curve = |name: &str| -> Vec<f64> {
            let line = lines.find(|l| l.starts_with(name)).unwrap_or_else(|| {
                panic!("{bench}: no {name} row");
            });
            line.split_whitespace()
                .skip(1)
                .filter(|c| *c != "-")
                .map(|c| c.parse().unwrap())
                .collect()
        };
        let (ideal, comb128, presched) =
            (curve("ideal "), curve("comb-128ch "), curve("presched "));
        assert_eq!([ideal.len(), comb128.len()], [5; 2], "{bench}: queue sizes");
        assert_eq!(presched.len(), 4, "{bench}: prescheduled sizes");
        benches.push(Fig3Bench { bench, ideal, comb128, presched });
    }
    benches
}

fn is_int(b: &Fig3Bench) -> bool {
    INT_BENCHES.contains(&b.bench.as_str())
}

#[test]
fn fig3_has_every_benchmark() {
    let benches: Vec<String> = load_fig3().into_iter().map(|b| b.bench).collect();
    assert_eq!(benches, ["ammp", "applu", "equake", "gcc", "mgrid", "swim", "twolf", "vortex"]);
}

/// ✔ Ideal-queue gains from 32 to 512 entries (paper: int up to 69%, FP
/// up to 398%): our integer profiles gain less than SPEC int, and the
/// largest FP gain lies within the band around the paper's.
#[test]
fn fig3_ideal_gains_match_the_paper() {
    let fig = load_fig3();
    let max_gain = |int: bool| {
        fig.iter().filter(|b| is_int(b) == int).map(|b| gain(&b.ideal)).fold(f64::MIN, f64::max)
    };
    let (int, fp) = (max_gain(true), max_gain(false));
    assert!(int > 0.0 && int < PAPER_INT_GAIN, "largest int gain {int:.1}%");
    assert!(
        (fp - PAPER_FP_GAIN).abs() <= FP_GAIN_BAND,
        "largest FP gain {fp:.1}% vs paper {PAPER_FP_GAIN}%"
    );
}

/// ✔ Segmented reaches 55–98% of ideal in the paper; every comb-128
/// point here lies between 75% and 102% of ideal, a tighter range.
#[test]
fn fig3_segmented_stays_close_to_ideal() {
    for b in &load_fig3() {
        for size in SIZES {
            let r = b.retention(size);
            assert!(
                (75.0..=102.0).contains(&r),
                "{}@{size}: comb-128 at {r:.1}% of ideal",
                b.bench
            );
        }
    }
}

/// ✔ Average comb retention (paper 85% at 256, 81% at 512): ours is
/// higher, by at most the band.
#[test]
fn fig3_average_retention_is_slightly_above_the_paper() {
    let fig = load_fig3();
    for (size, paper) in PAPER_RETENTION {
        let avg = fig.iter().map(|b| b.retention(size)).sum::<f64>() / fig.len() as f64;
        assert!(
            avg > paper && avg <= paper + RETENTION_BAND,
            "average retention at {size}: {avg:.1}% vs paper {paper}%"
        );
    }
}

/// ✔ gcc is flat (misprediction-bound): its ideal curve gains under 20%
/// and the least of the integer benchmarks.
#[test]
fn fig3_gcc_is_the_flattest_integer_curve() {
    let fig = load_fig3();
    let gcc = gain(&fig.iter().find(|b| b.bench == "gcc").expect("no gcc block").ideal);
    assert!(gcc < 20.0, "gcc ideal gain {gcc:.1}%");
    for b in fig.iter().filter(|b| is_int(b) && b.bench != "gcc") {
        assert!(gain(&b.ideal) > gcc, "{} is flatter than gcc", b.bench);
    }
}

/// ✔ Some segmented curves dip from 256 to 512 entries (pipeline depth,
/// predictors): at least two comb-128 curves do, and no ideal curve.
#[test]
fn fig3_segmented_curves_dip_where_ideal_does_not() {
    let fig = load_fig3();
    let (at256, at512) = (Fig3Bench::col(256), Fig3Bench::col(512));
    let dips = fig.iter().filter(|b| b.comb128[at512] < b.comb128[at256]).count();
    assert!(dips >= 2, "{dips} comb-128 curves dip from 256 to 512");
    for b in &fig {
        assert!(b.ideal[at512] >= b.ideal[at256], "{}: ideal dips from 256 to 512", b.bench);
    }
}

/// ~ partial: prescheduling barely improves with array size in the
/// paper, vortex the only exception. Here at least one curve is flat
/// from 128 to 1472 slots, but fewer than seven are.
#[test]
fn fig3_prescheduling_flatness_is_partial() {
    let fig = load_fig3();
    let flat = fig.iter().filter(|b| gain(&b.presched) < FLAT_GAIN).count();
    assert!((1..7).contains(&flat), "{flat} of 8 prescheduling curves are flat");
}

/// ~ partial: the 128-slot prescheduled queue beats the 64-entry
/// segmented one on every benchmark in the paper; here on some, not all.
#[test]
fn fig3_presched_128_vs_segmented_64_is_partial() {
    let fig = load_fig3();
    let at64 = Fig3Bench::col(64);
    let wins = fig.iter().filter(|b| b.presched[0] > b.comb128[at64]).count();
    assert!((1..fig.len()).contains(&wins), "prescheduled-128 wins on {wins} of {}", fig.len());
}

/// ~ partial: the 128-entry segmented queue beats every prescheduling
/// size on all benchmarks but vortex in the paper; here on some, but
/// fewer than seven.
#[test]
fn fig3_segmented_128_vs_any_prescheduling_is_partial() {
    let fig = load_fig3();
    let at128 = Fig3Bench::col(128);
    let wins = fig.iter().filter(|b| b.presched.iter().all(|&p| b.comb128[at128] > p)).count();
    assert!((1..7).contains(&wins), "segmented-128 wins on {wins} of {}", fig.len());
}

// ---------------------------------------------------------------------------
// rivals: §6.3's structural-similarity conjecture (EXPERIMENTS.md,
// "Extensions beyond the paper's evaluation")
// ---------------------------------------------------------------------------

/// The two quasi-static rivals "agree within ~5%" when the higher IPC of
/// the pair exceeds the lower by at most this many percent. Swim is the
/// widest agreeing pair, at 1.011 vs 1.066 (5.4%).
const RIVALS_AGREE: f64 = 6.0;

/// The rivals "diverge" when the higher IPC exceeds the lower by at least
/// this many percent.
const RIVALS_DIVERGE: f64 = 20.0;

/// The segmented queue is "within 3%" of the better rival when it trails
/// that rival's IPC by at most this many percent.
const RIVALS_CLOSE: f64 = 3.0;

/// One benchmark row of `results/rivals.txt`: the IPC of each queue at
/// about 320 slots.
#[derive(Debug)]
struct RivalsRow {
    bench: String,
    presched: f64,
    distance: f64,
    seg320: f64,
}

impl RivalsRow {
    /// Percent by which the better quasi-static rival beats the other.
    fn spread(&self) -> f64 {
        100.0 * (self.presched.max(self.distance) / self.presched.min(self.distance) - 1.0)
    }

    /// Percent by which segmented-320 trails the better rival (negative
    /// when it beats both).
    fn seg_gap(&self) -> f64 {
        100.0 * (1.0 - self.seg320 / self.presched.max(self.distance))
    }
}

/// `results/rivals.txt`, one row per benchmark.
fn load_rivals() -> Vec<RivalsRow> {
    parse_rivals(&results("rivals.txt"))
}

fn parse_rivals(text: &str) -> Vec<RivalsRow> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with("bench "));
    let head: Vec<&str> = lines.next().expect("a header row").split_whitespace().collect();
    assert_eq!(
        head,
        ["bench", "ideal-512", "presched-320", "distance-320", "segmented-320*", "seg-512-128ch"]
    );
    let rows: Vec<RivalsRow> = lines
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cells.len(), head.len(), "row {l:?}");
            let ipc = |i: usize| -> f64 { cells[i].parse().unwrap() };
            RivalsRow {
                bench: cells[0].to_string(),
                presched: ipc(2),
                distance: ipc(3),
                seg320: ipc(4),
            }
        })
        .collect();
    let benches: Vec<&str> = rows.iter().map(|r| r.bench.as_str()).collect();
    assert_eq!(benches, ["ammp", "applu", "equake", "gcc", "mgrid", "swim", "twolf", "vortex"]);
    rows
}

/// The benchmarks whose row satisfies `keep`, in table order.
fn rivals_where(keep: impl Fn(&RivalsRow) -> bool) -> Vec<String> {
    load_rivals().into_iter().filter(|r| keep(r)).map(|r| r.bench).collect()
}

/// ✔ supported: prescheduled-320 and distance-320 agree within ~5% on
/// exactly five of eight benchmarks.
#[test]
fn rivals_agree_on_exactly_five_benchmarks() {
    let agree = rivals_where(|r| r.spread() <= RIVALS_AGREE);
    assert_eq!(agree, ["ammp", "applu", "gcc", "mgrid", "swim"]);
}

/// The rivals diverge by 20% or more on equake, twolf and vortex, where
/// the buffer's placement matters.
#[test]
fn rivals_diverge_on_equake_twolf_and_vortex() {
    let diverge = rivals_where(|r| r.spread() >= RIVALS_DIVERGE);
    assert_eq!(diverge, ["equake", "twolf", "vortex"]);
}

/// The size-matched segmented queue beats both quasi-static schemes
/// outright on exactly ammp, gcc, swim and vortex.
#[test]
fn segmented_320_beats_both_rivals_on_four_benchmarks() {
    let beats = rivals_where(|r| r.seg_gap() < 0.0);
    assert_eq!(beats, ["ammp", "gcc", "swim", "vortex"]);
}

/// It sits within 3% of the better rival on applu, equake and twolf.
#[test]
fn segmented_320_is_within_3_percent_on_applu_equake_and_twolf() {
    for row in load_rivals().iter().filter(|r| ["applu", "equake", "twolf"].contains(&&*r.bench)) {
        assert!(row.seg_gap() <= RIVALS_CLOSE, "{row:?} trails by {:.1}%", row.seg_gap());
    }
}

/// Loop-regular mgrid clearly rewards the static order: prescheduling is
/// the better rival and segmented-320 trails it by more than 3%.
#[test]
fn mgrid_rewards_the_static_order() {
    let rows = load_rivals();
    let mgrid = rows.iter().find(|r| r.bench == "mgrid").unwrap();
    assert!(mgrid.presched > mgrid.distance, "{mgrid:?}");
    assert!(mgrid.seg_gap() > RIVALS_CLOSE, "{mgrid:?} trails by {:.1}%", mgrid.seg_gap());
}

// ---------------------------------------------------------------------------
// clock: IPC × scheduler-limited clock (EXPERIMENTS.md, "Extensions beyond
// the paper's evaluation")
// ---------------------------------------------------------------------------

/// "Break-even" in clock-adjusted throughput: within this much of 1.00×.
const CLOCK_BREAK_EVEN: f64 = 0.03;

/// `results/clock.txt`'s seg-512/best-mono column, per benchmark in table
/// order.
fn load_clock() -> Vec<(String, f64)> {
    let text = results("clock.txt");
    let mut lines = text.lines().skip_while(|l| !l.starts_with("bench "));
    let head: Vec<&str> = lines.next().expect("a header row").split_whitespace().collect();
    assert_eq!(head.last(), Some(&"seg-512/best-mono"), "header {head:?}");
    let rows: Vec<(String, f64)> = lines
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cells.len(), 5, "row {l:?}");
            (cells[0].to_string(), cells[4].strip_suffix('x').unwrap().parse().unwrap())
        })
        .collect();
    let benches: Vec<&str> = rows.iter().map(|(b, _)| b.as_str()).collect();
    assert_eq!(benches, ["swim", "mgrid", "equake", "applu", "vortex", "gcc"]);
    rows
}

/// The benchmarks whose seg-512/best-mono ratio satisfies `keep`, in
/// table order.
fn clock_where(keep: impl Fn(f64) -> bool) -> Vec<String> {
    load_clock().into_iter().filter(|&(_, ratio)| keep(ratio)).map(|(b, _)| b).collect()
}

/// ✔ In IPC × clock the segmented-512 queue beats the best monolithic
/// queue on exactly 5/6 benchmarks: all but applu.
#[test]
fn clock_segmented_512_beats_the_best_monolithic_queue_on_five_of_six() {
    assert_eq!(clock_where(|ratio| ratio > 1.0), ["swim", "mgrid", "equake", "vortex", "gcc"]);
}

/// applu and gcc are the break-even pair (0.98× and 1.01×); every other
/// benchmark is a clear win.
#[test]
fn clock_applu_and_gcc_break_even() {
    assert_eq!(clock_where(|ratio| (ratio - 1.0).abs() <= CLOCK_BREAK_EVEN), ["applu", "gcc"]);
}

// ---------------------------------------------------------------------------
// smt: §7's SMT hypothesis (EXPERIMENTS.md, "Extensions beyond the paper's
// evaluation")
// ---------------------------------------------------------------------------

/// One mix of `results/smt.txt`: segmented aggregate IPC and retention
/// against the shared ideal queue, in percent.
#[derive(Debug)]
struct SmtRow {
    mix: String,
    seg: f64,
    retention: i64,
}

/// `results/smt.txt`, one row per mix.
fn load_smt() -> Vec<SmtRow> {
    let text = results("smt.txt");
    let mut lines = text.lines().skip_while(|l| !l.starts_with("mix "));
    lines.next().expect("a header row");
    let rows: Vec<SmtRow> = lines
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            // The mix name may hold a space ("gcc x2"); four columns follow.
            let cells: Vec<&str> = l.split_whitespace().collect();
            let [.., _ideal, seg, retention, _chains] = cells[..] else { panic!("row {l:?}") };
            SmtRow {
                mix: cells[..cells.len() - 4].join(" "),
                seg: seg.parse().unwrap(),
                retention: retention.strip_suffix('%').unwrap().parse().unwrap(),
            }
        })
        .collect();
    assert_eq!(rows.len(), 9, "{rows:?}");
    rows
}

/// ✔ Retention against the shared ideal queue stays between 67% and 92%
/// on every mix, both ends reached.
#[test]
fn smt_retention_stays_between_67_and_92_percent() {
    let rows = load_smt();
    let lo = rows.iter().map(|r| r.retention).min();
    let hi = rows.iter().map(|r| r.retention).max();
    assert_eq!((lo, hi), (Some(67), Some(92)), "{rows:?}");
}

/// ✔ Going from one thread to four raises segmented aggregate IPC: gcc
/// 1.18→1.41 and ammp 0.50→0.71, to the two decimals written.
#[test]
fn smt_gcc_and_ammp_gain_from_one_to_four_threads() {
    let rows = load_smt();
    for (mix, written) in [("gcc x1", 1.18), ("gcc x4", 1.41), ("ammp x1", 0.50), ("ammp x4", 0.71)]
    {
        let row = rows.iter().find(|r| r.mix == mix).unwrap_or_else(|| panic!("no {mix} row"));
        assert!((row.seg - written).abs() <= 0.005 + 1e-9, "{row:?} is not {written}");
    }
}
