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
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/table2.txt");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
        Table2::parse(&text)
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
