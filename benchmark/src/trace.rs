//! Benchmark-side tracing: timed wrappers around the simulator's public
//! seams, and the traced twin of the checkpoint-cached run.
//!
//! Nothing here reaches inside a simulator crate. [`Timed`] implements the
//! public [`IssueQueue`] trait around any queue and [`TimedWorkload`]
//! wraps the instruction stream; both accumulate host nanoseconds and call
//! counts per span instead of recording one event per cycle. Both
//! implement [`Snapshot`] by delegation with the inner component's section
//! name and version, so a traced machine writes and reads checkpoint
//! images byte-identical to an untraced one.
//!
//! [`run_spec_traced`] rebuilds exactly the machine `chainiq::run_one_ckpt`
//! builds (same configuration, same cache key, same image path) around the
//! wrappers, and times the checkpoint read, decode, encode and write as
//! children of the spec's span.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use chainiq::ckpt::{
    CkptError, CkptHeader, FpHasher, ImageReader, ImageWriter, Reader, Snapshot, Writer,
};
use chainiq::core::{IqStats, IssuedInst};
use chainiq::{
    CkptOutcome, Cycle, DispatchInfo, DispatchStall, DistanceIq, FuPool, IdealIq, Inst, InstTag,
    IqKind, IssueQueue, Pipeline, PrescheduledIq, RunResult, SegmentedIq, SimConfig, SimStats,
    SyntheticWorkload,
};
use chainiq_bench::RunSpec;

/// Host time and call count accumulated at one boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    /// Host nanoseconds spent inside the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Acc {
    /// Runs `f`, charging its host time and one call to this accumulator.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += elapsed_ns(t);
        self.calls += 1;
        r
    }

    /// Folds another accumulator into this one.
    pub fn add(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call (0 when never called).
    #[must_use]
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Host nanoseconds since `t`.
#[must_use]
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-method host time of one instruction queue.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IqTrace {
    /// `tick`: promotion, signal climb, countdowns (once per cycle).
    pub tick: Acc,
    /// `select_issue` (once per cycle).
    pub select: Acc,
    /// `dispatch` attempts, accepted or rejected.
    pub dispatch: Acc,
    /// `announce_ready` broadcasts.
    pub announce: Acc,
    /// `on_writeback` notifications.
    pub writeback: Acc,
    /// `on_load_miss` plus `on_load_fill`.
    pub load_hook: Acc,
}

impl IqTrace {
    /// Host nanoseconds across every method.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        [self.tick, self.select, self.dispatch, self.announce, self.writeback, self.load_hook]
            .iter()
            .map(|a| a.ns)
            .sum()
    }

    /// Folds another trace into this one.
    pub fn add(&mut self, o: &IqTrace) {
        self.tick.add(o.tick);
        self.select.add(o.select);
        self.dispatch.add(o.dispatch);
        self.announce.add(o.announce);
        self.writeback.add(o.writeback);
        self.load_hook.add(o.load_hook);
    }
}

/// An instruction queue whose every scheduling call is timed.
#[derive(Debug)]
pub struct Timed<Q> {
    inner: Q,
    trace: IqTrace,
}

impl<Q> Timed<Q> {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: Q) -> Self {
        Timed { inner, trace: IqTrace::default() }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Host time accumulated so far.
    pub fn trace(&self) -> IqTrace {
        self.trace
    }
}

impl<Q: IssueQueue> IssueQueue for Timed<Q> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        let q = &mut self.inner;
        self.trace.tick.time(|| q.tick(now, execution_idle));
    }
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        let q = &mut self.inner;
        self.trace.dispatch.time(|| q.dispatch(now, info))
    }
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let q = &mut self.inner;
        self.trace.select.time(|| q.select_issue(now, fus))
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let q = &mut self.inner;
        self.trace.announce.time(|| q.announce_ready(producer, ready_at));
    }
    fn on_load_miss(&mut self, tag: InstTag) {
        let q = &mut self.inner;
        self.trace.load_hook.time(|| q.on_load_miss(tag));
    }
    fn on_load_fill(&mut self, tag: InstTag) {
        let q = &mut self.inner;
        self.trace.load_hook.time(|| q.on_load_fill(tag));
    }
    fn on_writeback(&mut self, tag: InstTag) {
        let q = &mut self.inner;
        self.trace.writeback.time(|| q.on_writeback(tag));
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
    fn stats(&self) -> IqStats {
        self.inner.stats()
    }
}

impl<Q: Snapshot> Snapshot for Timed<Q> {
    const COMPONENT: &'static str = Q::COMPONENT;
    const VERSION: u16 = Q::VERSION;
    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

/// An instruction stream whose every `next` is timed. The accumulator is
/// shared with the caller, because the pipeline owns the stream.
#[derive(Debug)]
pub struct TimedWorkload<W> {
    inner: W,
    acc: Rc<Cell<Acc>>,
}

impl<W> TimedWorkload<W> {
    /// Wraps `inner`, charging its time to `acc`.
    pub fn new(inner: W, acc: Rc<Cell<Acc>>) -> Self {
        TimedWorkload { inner, acc }
    }
}

impl<W: Iterator<Item = Inst>> Iterator for TimedWorkload<W> {
    type Item = Inst;
    fn next(&mut self) -> Option<Inst> {
        let mut acc = self.acc.get();
        let inst = acc.time(|| self.inner.next());
        self.acc.set(acc);
        inst
    }
}

impl<W: Snapshot> Snapshot for TimedWorkload<W> {
    const COMPONENT: &'static str = W::COMPONENT;
    const VERSION: u16 = W::VERSION;
    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

/// Which layer the queue of a span belongs to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum QueueLayer {
    /// `core`: the segmented dependence-chain queue.
    #[default]
    Segmented,
    /// `baseline`: the ideal monolithic queue.
    Ideal,
    /// `baseline`: the prescheduled queue.
    Prescheduled,
    /// `baseline`: the distance queue.
    Distance,
}

impl QueueLayer {
    /// The layer of `kind`.
    #[must_use]
    pub fn of(kind: &IqKind) -> Self {
        match kind {
            IqKind::Segmented(_) => QueueLayer::Segmented,
            IqKind::Ideal(_) => QueueLayer::Ideal,
            IqKind::Prescheduled(_) => QueueLayer::Prescheduled,
            IqKind::Distance(_) => QueueLayer::Distance,
        }
    }
}

/// Checkpoint children of one span.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CkptTrace {
    /// `chainiq_ckpt::read_image`.
    pub read: Acc,
    /// `ImageReader::parse` + key check + section restore + finish.
    pub decode: Acc,
    /// `ImageWriter` section + finish.
    pub encode: Acc,
    /// `chainiq_ckpt::write_image_atomic`.
    pub write: Acc,
    /// Bytes of the image encoded or read.
    pub image_bytes: u64,
}

impl CkptTrace {
    /// Host nanoseconds across the four children.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.read.ns + self.decode.ns + self.encode.ns + self.write.ns
    }
}

/// One operation's span: its interval on the host clock and the host time
/// of the layers called inside it.
#[derive(Debug, Default, Clone)]
pub struct Span {
    /// Operation label, e.g. `swim/seg512/comb` or `smt:gcc x2/ideal`.
    pub op: String,
    /// Small integer naming the thread that ran the span.
    pub worker: usize,
    /// Start, in nanoseconds since the enclosing pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the enclosing pass began.
    pub end_ns: u64,
    /// Whether the machine was the SMT pipeline.
    pub smt: bool,
    /// The queue's layer.
    pub queue: QueueLayer,
    /// Queue calls (zero in untraced spans).
    pub iq: IqTrace,
    /// Instruction-stream calls (zero in untraced spans).
    pub workload: Acc,
    /// Checkpoint children.
    pub ckpt: CkptTrace,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Committed instructions of the run.
    pub committed: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Host time of the children measured inside the span.
    #[must_use]
    pub fn children_ns(&self) -> u64 {
        self.iq.total_ns() + self.workload.ns + self.ckpt.total_ns()
    }

    /// The pipeline's own time: the span minus its queue, stream and
    /// checkpoint children.
    #[must_use]
    pub fn cpu_self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.children_ns())
    }

    /// One JSON object (one line of the span file).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"op\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{},\"smt\":{},\"queue\":\"{:?}\",\
             \"iq_ns\":{},\"workload_ns\":{},\"ckpt_read_ns\":{},\"ckpt_decode_ns\":{},\
             \"ckpt_encode_ns\":{},\"ckpt_write_ns\":{},\"cycles\":{},\"committed\":{}}}",
            self.op,
            self.worker,
            self.start_ns,
            self.end_ns,
            self.smt,
            self.queue,
            self.iq.total_ns(),
            self.workload.ns,
            self.ckpt.read.ns,
            self.ckpt.decode.ns,
            self.ckpt.encode.ns,
            self.ckpt.write.ns,
            self.cycles,
            self.committed,
        )
    }
}

/// A small integer naming the calling thread, stable for its lifetime.
#[must_use]
pub fn worker_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// The machine `chainiq::run_one_ckpt` builds for a spec, and its
/// checkpoint cache key.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Pipeline configuration.
    pub config: SimConfig,
    /// The queue, with the queue-level predictor knobs applied.
    pub kind: IqKind,
    /// Identity of the instruction stream.
    pub workload_fp: u64,
    /// Identity of the configuration.
    pub config_hash: u64,
}

/// The [`Machine`] `chainiq::run_one_ckpt` uses for `spec`.
#[must_use]
pub fn machine_for(spec: &RunSpec) -> Machine {
    let (use_hmp, use_lrp) = (spec.pred.hmp(), spec.pred.lrp());
    let mut config = SimConfig::default().rob_for_iq(spec.iq.capacity());
    config.extra_dispatch_cycle = spec.iq.pays_extra_dispatch_cycle();
    config.use_hmp = use_hmp;
    config.use_lrp = use_lrp;
    let kind = match spec.iq {
        IqKind::Segmented(mut qc) => {
            qc.two_chain_tracking = !use_lrp;
            IqKind::Segmented(qc)
        }
        other => other,
    };
    let profile = spec.bench.profile();
    let workload_fp = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{profile:?}"));
        h.write_u64(spec.seed);
        h.finish()
    };
    let config_hash = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{config:?}"));
        h.write_str(&format!("{kind:?}"));
        h.write_u64(u64::from(chainiq::ckpt::FORMAT_VERSION));
        h.finish()
    };
    Machine { config, kind, workload_fp, config_hash }
}

/// Runs `spec` (through the checkpoint cache at `cache`, if any) on a
/// machine built from timed wrappers, returning the result, what the
/// cache did, and the spec's span (its interval counted from `t0`).
/// Results and images are identical to `spec.execute_cached(cache)`.
#[must_use]
pub fn run_spec_traced(
    spec: &RunSpec,
    cache: Option<&Path>,
    t0: Instant,
) -> (RunResult, CkptOutcome, Span) {
    let start_ns = elapsed_ns(t0);
    let m = machine_for(spec);
    let mut span = Span {
        op: spec.label(),
        worker: worker_id(),
        start_ns,
        queue: QueueLayer::of(&m.kind),
        ..Span::default()
    };
    let (result, outcome) = match m.kind {
        IqKind::Ideal(n) => run_kind(spec, &m, || IdealIq::new(n), cache, &mut span, |_| None),
        IqKind::Segmented(qc) => {
            run_kind(spec, &m, || SegmentedIq::new(qc), cache, &mut span, |q| Some(q.full_stats()))
        }
        IqKind::Prescheduled(pc) => {
            run_kind(spec, &m, || PrescheduledIq::new(pc), cache, &mut span, |_| None)
        }
        IqKind::Distance(dc) => {
            run_kind(spec, &m, || DistanceIq::new(dc), cache, &mut span, |_| None)
        }
    };
    span.cycles = result.stats.cycles;
    span.committed = result.stats.committed;
    span.end_ns = elapsed_ns(t0);
    (result, outcome, span)
}

/// The traced twin of the harness's private `run_kind`: same step
/// sequence, same image bytes, same fallback on a rejected image.
fn run_kind<Q>(
    spec: &RunSpec,
    m: &Machine,
    make_iq: impl Fn() -> Q,
    cache: Option<&Path>,
    span: &mut Span,
    segmented: impl Fn(&Q) -> Option<chainiq::SegmentedStats>,
) -> (RunResult, CkptOutcome)
where
    Q: IssueQueue + Snapshot,
{
    let wl = Rc::new(Cell::new(Acc::default()));
    let profile = spec.bench.profile();
    let fresh = || {
        Pipeline::new(
            m.config,
            Timed::new(make_iq()),
            TimedWorkload::new(
                SyntheticWorkload::from_profile(profile.clone(), spec.seed),
                Rc::clone(&wl),
            ),
        )
    };
    let warmup = spec.sample / 2;
    let mut ck = CkptTrace::default();
    let mut sim = fresh();
    let (stats, outcome) = match cache.filter(|_| warmup > 0 && warmup < spec.sample) {
        None => (sim.run(spec.sample), CkptOutcome::Disabled),
        Some(dir) => {
            let header =
                CkptHeader { workload_fp: m.workload_fp, config_hash: m.config_hash, warmup };
            let path = dir
                .join(format!("ckpt-{:016x}-{:016x}-{warmup}.bin", m.workload_fp, m.config_hash));
            let attempt = ck.read.time(|| chainiq::ckpt::read_image(&path)).and_then(|bytes| {
                ck.image_bytes = bytes.len() as u64;
                ck.decode.time(|| -> Result<(), CkptError> {
                    let mut img = ImageReader::parse(&bytes)?;
                    img.expect_key(header)?;
                    img.section(&mut sim)?;
                    img.finish()
                })
            });
            match attempt {
                Ok(()) => (sim.run(spec.sample), CkptOutcome::Hit),
                Err(err) => {
                    let rejected = !matches!(&err, CkptError::Io(e) if e.kind() == std::io::ErrorKind::NotFound);
                    if rejected {
                        eprintln!("warning: rejecting checkpoint {}: {err}", path.display());
                        sim = fresh();
                    }
                    let _ = sim.run(warmup);
                    let image = ck.encode.time(|| {
                        let mut image = ImageWriter::new(header);
                        image.section(&sim);
                        image.finish()
                    });
                    ck.image_bytes = image.len() as u64;
                    let outcome =
                        match ck.write.time(|| chainiq::ckpt::write_image_atomic(&path, &image)) {
                            Ok(()) if rejected => CkptOutcome::Rejected,
                            Ok(()) => CkptOutcome::MissSaved,
                            Err(werr) => {
                                eprintln!(
                                    "warning: could not save checkpoint {}: {werr}",
                                    path.display()
                                );
                                CkptOutcome::MissSaveFailed
                            }
                        };
                    (sim.run(spec.sample), outcome)
                }
            }
        }
    };
    span.iq = sim.iq().trace();
    span.workload = wl.get();
    span.ckpt = ck;
    let result = RunResult { stats, segmented: segmented(sim.iq().inner()) };
    (result, outcome)
}

/// A run's simulated statistics, as one comparable string.
#[must_use]
pub fn stats_digest(stats: &SimStats, segmented: Option<&chainiq::SegmentedStats>) -> u64 {
    chainiq::ckpt::fingerprint(format!("{stats:?} {segmented:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq::{Bench, DistanceConfig};
    use chainiq_bench::{ideal, prescheduled, segmented, PredictorConfig};

    /// One spec per queue design and predictor hook, at a small sample.
    fn small_grid() -> Vec<RunSpec> {
        vec![
            RunSpec::new(Bench::Swim, ideal(64), PredictorConfig::Base, 1_500),
            RunSpec::new(Bench::Gcc, segmented(128, Some(64)), PredictorConfig::Comb, 1_500),
            RunSpec::new(Bench::Twolf, segmented(64, None), PredictorConfig::Base, 1_500)
                .with_seed(7),
            RunSpec::new(Bench::Ammp, prescheduled(8), PredictorConfig::Hmp, 1_500),
            RunSpec::new(
                Bench::Vortex,
                IqKind::Distance(DistanceConfig::paper_sized(8)),
                PredictorConfig::Lrp,
                1_500,
            ),
        ]
    }

    fn digest(r: &RunResult) -> u64 {
        stats_digest(&r.stats, r.segmented.as_ref())
    }

    /// Children are timed inside the span, one after another, so they can
    /// never add up to more than the span itself.
    fn assert_children_fit(span: &Span) {
        assert!(span.end_ns >= span.start_ns, "{span:?}");
        assert!(span.children_ns() <= span.dur_ns(), "children exceed their span: {span:?}");
        assert!(span.iq.tick.calls > 0 && span.workload.calls > 0, "{span:?}");
    }

    /// A scratch directory, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("chainiq-benchmark-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }

        fn files(&self) -> Vec<(String, Vec<u8>)> {
            let mut out: Vec<_> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
                })
                .collect();
            out.sort();
            out
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn traced_runs_match_execute() {
        for spec in small_grid() {
            let t0 = Instant::now();
            let (traced, outcome, span) = run_spec_traced(&spec, None, t0);
            assert_eq!(outcome, CkptOutcome::Disabled);
            assert_eq!(digest(&traced), digest(&spec.execute()), "{}", spec.label());
            assert_eq!(span.cycles, traced.stats.cycles);
            assert!(span.workload.calls >= traced.stats.committed);
            assert_children_fit(&span);
        }
    }

    #[test]
    fn traced_checkpoint_miss_writes_the_same_image_and_restores_the_same_run() {
        let untraced_dir = Scratch::new("untraced");
        let traced_dir = Scratch::new("traced");
        for spec in small_grid() {
            let cold = spec.execute();
            let (u, uo) = spec.execute_cached(Some(&untraced_dir.0));
            let (t, to, span) = run_spec_traced(&spec, Some(&traced_dir.0), Instant::now());
            assert_eq!((uo, to), (CkptOutcome::MissSaved, CkptOutcome::MissSaved));
            assert_eq!(digest(&u), digest(&cold));
            assert_eq!(digest(&t), digest(&cold), "{}", spec.label());
            assert!(
                span.ckpt.encode.calls == 1
                    && span.ckpt.write.calls == 1
                    && span.ckpt.image_bytes > 0
            );
            assert_children_fit(&span);
        }
        assert_eq!(untraced_dir.files(), traced_dir.files(), "images must be byte-identical");

        // Hit path, crossed over: each side restores the other's images.
        for spec in small_grid() {
            let cold = digest(&spec.execute());
            let (t, to, span) = run_spec_traced(&spec, Some(&untraced_dir.0), Instant::now());
            let (u, uo) = spec.execute_cached(Some(&traced_dir.0));
            assert_eq!((uo, to), (CkptOutcome::Hit, CkptOutcome::Hit));
            assert_eq!((digest(&u), digest(&t)), (cold, cold), "{}", spec.label());
            assert!(
                span.ckpt.read.calls == 1
                    && span.ckpt.decode.calls == 1
                    && span.ckpt.encode.calls == 0
            );
            assert_children_fit(&span);
        }
    }

    #[test]
    fn machine_key_matches_the_harness_image_name() {
        let dir = Scratch::new("key");
        let spec = RunSpec::new(Bench::Gcc, segmented(64, Some(64)), PredictorConfig::Lrp, 1_000);
        let _ = spec.execute_cached(Some(&dir.0));
        let Machine { workload_fp: wfp, config_hash: chash, .. } = machine_for(&spec);
        let names: Vec<String> = dir.files().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec![format!("ckpt-{wfp:016x}-{chash:016x}-500.bin")]);
    }

    #[test]
    fn accumulators_count_and_divide() {
        let mut a = Acc::default();
        assert_eq!(a.ns_per_call(), 0.0);
        assert_eq!(a.time(|| 7), 7);
        assert_eq!(a.calls, 1);
        a.add(Acc { ns: 10, calls: 1 });
        assert_eq!(a.calls, 2);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
