//! The two workloads, their rounds of ops, verification and metrics.
//!
//! An op is one goal in one mode: a `Synthesizer::synthesize` call for
//! `synth-cold`, a `Synthesizer::check` call on a recorded program for
//! `check-programs`. Ops run one at a time, each on its own fresh
//! `Synthesizer` and `SolverCache`. A run repeats rounds over its fixed op
//! set, each round in an order shuffled by the seed, for about `--seconds`;
//! every end-to-end time is the per-op median over the op's executions, each
//! scaled by the reference kernel run around it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use resyn::analysis::analyze;
use resyn::eval::measure::classify;
use resyn::eval::suite::{table1, table2, Benchmark};
use resyn::lang::Expr;
use resyn::parse::parse_expr;
use resyn::parse::surface::expr_to_surface;
use resyn::synth::{Mode, SynthOutcome, Synthesizer};
use resyn::ty::Datatypes;

use crate::expect::{modes, Expectations, Verdict};
use crate::heap;
use crate::refkernel::Calibration;
use crate::stats::{geomean, median, quantile, Rng};
use crate::trace::{SpanId, Tracer};

/// Synthesis budget of one op. Every timed op finishes far inside it; an op
/// that hits it fails.
const OP_BUDGET: Duration = Duration::from_secs(60);

/// After the set-up the run needs, the set-up is repeated after every this
/// many op slots of the rounds (25 or more times per run, since every run
/// has at least 152 slots), so that `setup_s`, their median, is taken
/// across the run rather than at process start.
const SETUP_EVERY: usize = 6;

/// Round tags of set-up spans start here, one tag per set-up.
const SETUP_ROUNDS: u32 = 1 << 20;

/// In an untraced round, an op that took less than this is repeated (each
/// time from scratch) until its executions in the round add up to it, so
/// the many millisecond ops get enough samples for a steady median.
const MIN_OP_SECONDS: f64 = 0.01;

/// The most executions of one op in one round.
const MAX_REPS: usize = 10;

/// Goals recorded in the expectations but left out of the synthesis
/// workloads (see `README.md` for their times): `sslist-insert` finds no
/// program within any budget tried (it would be a failed op, not a time);
/// the next six took more than 2.5 s for their two cold ops together, too
/// long to repeat within a run; the last four repeat, counter for counter,
/// the search of a goal that stays in (`cs11-take`, `cs12-drop`,
/// `cs10-replicate`, `list-member`).
const UNTIMED_SYNTH: &[&str] = &[
    "sslist-insert",
    "list-compress",
    "cs9-insert-fine",
    "sorted-insert",
    "sorted-delete",
    "cs7-insert",
    "list-delete",
    "list-take",
    "list-drop",
    "list-replicate",
    "sorted-member",
];

/// Goals whose programs `check-programs` leaves out: `sslist-insert` has no
/// program, and the four checks of `list-compress` take about three times
/// as long as a whole round of the other 186 checks.
const UNTIMED_CHECK: &[&str] = &["sslist-insert", "list-compress"];

/// Which benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `synthesize` on a cold cache.
    SynthCold,
    /// `check` of each recorded program in both modes on a cold cache.
    CheckPrograms,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "synth-cold" => Ok(Workload::SynthCold),
            "check-programs" => Ok(Workload::CheckPrograms),
            other => Err(format!(
                "unknown workload `{other}` (expected synth-cold or check-programs)"
            )),
        }
    }
}

/// The paper's suites, Table 1 then Table 2.
pub fn benchmarks() -> Vec<Benchmark> {
    table1().into_iter().chain(table2()).collect()
}

/// One timed op.
struct Op {
    /// `goal/mode` for synthesis, `goal/program-mode>mode` for checks.
    id: String,
    bench: usize,
    mode: Mode,
    /// Whether `mode` is the goal's resource mode (ReSyn or constant-time).
    resource: bool,
    /// The op's resource-mode/Synquid-mode pair: the goal, or for checks
    /// the goal and the program's mode.
    pair: String,
    /// The recorded verdict (always `Solved` for checks).
    verdict: Verdict,
    /// The recorded program, parsed and as text: the expected output, or the
    /// program to check.
    program: Option<(Expr, String)>,
    bound: String,
    /// For checks: whether the program must be accepted.
    accept: Option<bool>,
}

/// Counters read at the op boundary; they must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    candidates: u64,
    skeletons: u64,
    rechecks: u64,
    hits: u64,
    misses: u64,
    interned: u64,
    library: u64,
    pruned_library: u64,
}

impl Counters {
    fn of_synth(outcome: &SynthOutcome) -> Counters {
        let s = &outcome.stats;
        Counters {
            candidates: s.candidates_checked as u64,
            skeletons: s.skeletons as u64,
            rechecks: s.resource_rechecks as u64,
            hits: s.solver_cache_hits,
            misses: s.solver_cache_misses,
            interned: s.interned_terms as u64,
            library: s.library_size as u64,
            pruned_library: s.pruned_library_size as u64,
        }
    }

    fn of_check(before: resyn::solver::HandleStats, after: resyn::solver::HandleStats) -> Counters {
        Counters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            interned: (after.interned_terms - before.interned_terms) as u64,
            ..Counters::default()
        }
    }

    fn pairs(&self) -> [(&'static str, u64); 8] {
        [
            ("candidates", self.candidates),
            ("skeletons", self.skeletons),
            ("resource_rechecks", self.rechecks),
            ("hits", self.hits),
            ("misses", self.misses),
            ("interned_terms", self.interned),
            ("library", self.library),
            ("pruned_library", self.pruned_library),
        ]
    }

    fn render(&self) -> String {
        let values: Vec<String> = self.pairs().iter().map(|(_, v)| v.to_string()).collect();
        values.join(" ")
    }
}

/// Everything observed of one op over the run.
#[derive(Default)]
struct OpLog {
    /// Timed seconds per untraced execution, with its calibration epoch, and
    /// per traced round.
    untraced: Vec<(f64, usize)>,
    traced: Vec<f64>,
    /// Seconds of a traced round's whole op slot: the timed execution with
    /// its spans, plus the layer calls only a traced round makes.
    traced_slot: Vec<(f64, usize)>,
    /// Seconds of the same op repeated on its now-warm cache (traced rounds).
    warm: Vec<f64>,
    /// Counters of every timed execution.
    counters: Vec<Counters>,
    /// Growth of live heap bytes from just before the op built its
    /// synthesizer to the op's high-water mark, per execution.
    heap: Vec<usize>,
    /// Library sizes from `analysis::analyze` (traced rounds).
    library: (u64, u64),
    /// Re-checks of the synthesized program (traced rounds): done, rejected.
    checks: (u64, u64),
    failures: Vec<String>,
}

/// Build the op set of a workload: the suites, the expectations, and every
/// recorded program parsed back with `parse_expr`.
fn setup(workload: Workload, tracer: &mut Tracer) -> Result<(Vec<Benchmark>, Vec<Op>), String> {
    let benches = benchmarks();
    let exp = Expectations::parse(crate::EXPECTATIONS)?;
    let mut ops = Vec::new();
    for (b, bench) in benches.iter().enumerate() {
        let untimed = match workload {
            Workload::SynthCold => UNTIMED_SYNTH,
            Workload::CheckPrograms => UNTIMED_CHECK,
        };
        if untimed.contains(&bench.id.as_str()) {
            continue;
        }
        let [resource_mode, _] = modes(bench);
        // (program mode, op mode, expected check verdict)
        let plan: Vec<(Mode, Mode, Option<bool>)> = match workload {
            Workload::SynthCold => modes(bench).iter().map(|&m| (m, m, None)).collect(),
            Workload::CheckPrograms => exp
                .check
                .iter()
                .filter(|c| c.goal == bench.id)
                .map(|c| (c.program_mode, c.mode, Some(c.accept)))
                .collect(),
        };
        if plan.is_empty() {
            return Err(format!("no expectations recorded for `{}`", bench.id));
        }
        for (program_mode, mode, accept) in plan {
            let e = exp
                .synth(&bench.id, program_mode)
                .filter(|e| e.verdict != Verdict::Budget)
                .ok_or(format!(
                    "no verdict recorded for {}/{}",
                    bench.id,
                    program_mode.as_str()
                ))?;
            let program = match &e.program {
                Some(text) => {
                    let parsed = tracer
                        .span("parse.expr", "setup", None, || parse_expr(text))
                        .map_err(|err| {
                            format!("{}: recorded program does not parse: {err}", bench.id)
                        })?;
                    Some((parsed, text.clone()))
                }
                None => None,
            };
            let (id, pair) = match accept {
                None => (format!("{}/{}", bench.id, mode.as_str()), bench.id.clone()),
                Some(_) => {
                    let pair = format!("{}/{}", bench.id, program_mode.as_str());
                    (format!("{pair}>{}", mode.as_str()), pair)
                }
            };
            ops.push(Op {
                id,
                bench: b,
                mode,
                resource: mode == resource_mode,
                pair,
                verdict: e.verdict,
                program,
                bound: e.bound.clone(),
                accept,
            });
        }
    }
    Ok((benches, ops))
}

/// Run the set-up once, timing it into `times` with its calibration epoch;
/// `round` is the round to tag spans with afterwards.
fn timed_setup(
    workload: Workload,
    tracer: &mut Tracer,
    round: u32,
    times: &mut Vec<(f64, usize)>,
    epoch: usize,
) -> Result<(Vec<Benchmark>, Vec<Op>), String> {
    tracer.set_round(SETUP_ROUNDS + times.len() as u32);
    let t = Instant::now();
    let built = setup(workload, tracer)?;
    times.push((t.elapsed().as_secs_f64(), epoch));
    tracer.set_round(round);
    Ok(built)
}

/// The metrics of one run and its correctness verdict.
pub struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Run one workload for `seconds` and compute its metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced_run: bool,
) -> Result<Report, String> {
    let mut tracer = Tracer::new(traced_run);
    let mut setup_times = Vec::new();
    let mut cal = Calibration::new();
    let (benches, ops) = timed_setup(workload, &mut tracer, 0, &mut setup_times, cal.epoch())?;
    let datatypes = Datatypes::standard();
    let mut logs: Vec<OpLog> = ops.iter().map(|_| OpLog::default()).collect();

    // Rounds. A traced run alternates traced and untraced rounds so the
    // tracing overhead can be read off the two.
    // At least two rounds, so every op's counters are compared across two
    // orders; after that, start a round only if it should end by about
    // `seconds`.
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    let mut round = 0u32;
    let mut last_round = 0.0;
    let mut slot = 0;
    while round < 2 || start.elapsed().as_secs_f64() + last_round / 2.0 < seconds {
        let round_start = Instant::now();
        let traced = traced_run && round.is_multiple_of(2);
        tracer.set_on(traced);
        tracer.set_round(round);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let op = &ops[i];
            let bench = &benches[op.bench];
            let log = &mut logs[i];
            cal.tick();
            let epoch = cal.epoch();
            let slot_start = Instant::now();
            let root = tracer.open("op", &op.id, None);
            let mut spent = 0.0;
            for rep in 1..=MAX_REPS {
                let result = match op.accept {
                    None => run_synth(op, bench, traced, epoch, &mut tracer, root, log),
                    Some(_) => run_check(op, bench, traced, epoch, &mut tracer, root, log),
                };
                if let Err(e) = result {
                    log.failures.push(e);
                    break;
                }
                spent += log.untraced.last().map_or(0.0, |&(secs, _)| secs);
                if traced || spent >= MIN_OP_SECONDS || rep == MAX_REPS {
                    break;
                }
            }
            if traced {
                let report = tracer.span("analysis.analyze", &op.id, Some(root), || {
                    analyze(&bench.goal.schema, &bench.goal.components, &datatypes)
                });
                log.library = (report.library_size as u64, report.pruned_size() as u64);
            }
            tracer.close(root, &[]);
            if traced {
                log.traced_slot
                    .push((slot_start.elapsed().as_secs_f64(), epoch));
            }
            slot += 1;
            if slot % SETUP_EVERY == 0 {
                timed_setup(workload, &mut tracer, round, &mut setup_times, epoch)?;
            }
        }
        last_round = round_start.elapsed().as_secs_f64();
        eprintln!(
            "round {round}: {last_round:.3} s{}",
            if traced { " (traced)" } else { "" }
        );
        round += 1;
    }
    tracer.set_on(false);
    cal.finish();

    // Exact-counter self-check: within the run across rounds (each in its
    // own seeded order), and against an earlier run of the same binary.
    for log in &mut logs {
        if log.counters.windows(2).any(|w| w[0] != w[1]) {
            log.failures
                .push("counters differ between rounds".to_string());
        }
    }
    compare_counters(workload, &ops, &mut logs).map_err(|e| format!("counter file: {e}"))?;
    if traced_run {
        write_trace(workload, seed, &tracer)?;
    }

    // Every execution of an op that failed at all counts as failed: its
    // times and counters stay out of the metrics.
    let (mut attempted, mut failed) = (0, 0);
    for (op, log) in ops.iter().zip(&logs) {
        let executions = (log.untraced.len() + log.traced.len()).max(1);
        attempted += executions;
        if !log.failures.is_empty() {
            failed += executions;
        }
        for f in &log.failures {
            eprintln!("FAILED {}: {f}", op.id);
        }
    }
    diagnostics(workload, &ops, &logs, &setup_times, &cal);
    let metrics = if traced_run {
        per_layer(&ops, &logs, &tracer, &cal)
    } else {
        end_to_end(&ops, &logs, &setup_times, &cal)
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn run_synth(
    op: &Op,
    bench: &Benchmark,
    traced: bool,
    epoch: usize,
    tracer: &mut Tracer,
    root: SpanId,
    log: &mut OpLog,
) -> Result<(), String> {
    let base = heap::reset_peak();
    let synth = Synthesizer::with_timeout(OP_BUDGET);
    let span = tracer.open("synth.synthesize", &op.id, Some(root));
    let t = Instant::now();
    let outcome = synth.synthesize(&bench.goal, op.mode);
    let secs = t.elapsed().as_secs_f64();
    log.heap.push(heap::peak() - base);
    let counters = Counters::of_synth(&outcome);
    tracer.close(span, &counters.pairs());
    if traced {
        log.traced.push(secs);
    } else {
        log.untraced.push((secs, epoch));
    }
    log.counters.push(counters);
    verify_synth(op, &outcome)?;
    if traced {
        let t = Instant::now();
        synth.synthesize(&bench.goal, op.mode);
        log.warm.push(t.elapsed().as_secs_f64());
    }
    let Some((program, _)) = &op.program else {
        return Ok(());
    };
    check_bound(op, bench, program, tracer, root)?;
    if traced {
        // The synthesized program must pass the acceptance check of its own
        // mode on a fresh cache.
        let accepted = tracer.span("ty.check", &op.id, Some(root), || {
            Synthesizer::new().check(&bench.goal, op.mode, program)
        });
        log.checks.0 += 1;
        if !accepted {
            log.checks.1 += 1;
            return Err("synthesized program rejected by its own mode's check".to_string());
        }
    }
    Ok(())
}

/// The verdict and program must be the recorded ones.
fn verify_synth(op: &Op, outcome: &SynthOutcome) -> Result<(), String> {
    let verdict = Verdict::of(outcome);
    if verdict != op.verdict {
        return Err(format!("verdict {verdict:?}, expected {:?}", op.verdict));
    }
    match (&outcome.program, &op.program) {
        (Some(got), Some((expected, text))) if got != expected || expr_to_surface(got) != *text => {
            Err(format!(
                "program changed: got `{}`, expected `{text}`",
                expr_to_surface(got)
            ))
        }
        _ => Ok(()),
    }
}

/// The program's bound class under the cost interpreter must be the
/// recorded one.
fn check_bound(
    op: &Op,
    bench: &Benchmark,
    program: &Expr,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<(), String> {
    let bound = tracer.span("lang.classify", &op.id, Some(root), || {
        classify(&bench.goal, program).to_string()
    });
    if bound != op.bound {
        return Err(format!("bound class {bound}, expected {}", op.bound));
    }
    Ok(())
}

fn run_check(
    op: &Op,
    bench: &Benchmark,
    traced: bool,
    epoch: usize,
    tracer: &mut Tracer,
    root: SpanId,
    log: &mut OpLog,
) -> Result<(), String> {
    let Some((program, _)) = &op.program else {
        return Err("no recorded program to check".to_string());
    };
    let base = heap::reset_peak();
    let synth = Synthesizer::with_timeout(OP_BUDGET);
    let before = synth.cache_stats();
    let span = tracer.open("ty.check", &op.id, Some(root));
    let t = Instant::now();
    let accepted = synth.check(&bench.goal, op.mode, program);
    let secs = t.elapsed().as_secs_f64();
    log.heap.push(heap::peak() - base);
    let counters = Counters::of_check(before, synth.cache_stats());
    tracer.close(span, &counters.pairs());
    if traced {
        log.traced.push(secs);
        log.checks.0 += 1;
        log.checks.1 += u64::from(!accepted);
        let t = Instant::now();
        synth.check(&bench.goal, op.mode, program);
        log.warm.push(t.elapsed().as_secs_f64());
    } else {
        log.untraced.push((secs, epoch));
    }
    log.counters.push(counters);
    if Some(accepted) != op.accept {
        return Err(format!(
            "check verdict {accepted}, expected {:?}",
            op.accept
        ));
    }
    check_bound(op, bench, program, tracer, root)
}

/// Where counters and traces are written, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// A cheap fingerprint of the running executable, so counters recorded by a
/// different build are never compared.
fn exe_fingerprint() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(exe).map_err(|e| e.to_string())?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Record this run's per-op counters, or compare them exactly with those an
/// earlier run of the same executable recorded (another seed, so another op
/// order). A mismatch is a failure of that op.
fn compare_counters(workload: Workload, ops: &[Op], logs: &mut [OpLog]) -> Result<(), String> {
    let mut mine = String::new();
    for (op, log) in ops.iter().zip(logs.iter()) {
        let counters = log
            .counters
            .first()
            .map(Counters::render)
            .unwrap_or_default();
        let _ = writeln!(mine, "{}\t{counters}", op.id);
    }
    let path = format!(
        "{OUT_DIR}/counters-{workload:?}-{:016x}.tsv",
        exe_fingerprint()?
    );
    match std::fs::read_to_string(&path) {
        Ok(earlier) => {
            let earlier: BTreeMap<&str, &str> =
                earlier.lines().filter_map(|l| l.split_once('\t')).collect();
            for ((op, log), line) in ops.iter().zip(logs.iter_mut()).zip(mine.lines()) {
                let now = line.split_once('\t').map_or("", |(_, rest)| rest);
                if earlier.get(op.id.as_str()) != Some(&now) {
                    log.failures.push(format!("counters differ from {path}"));
                }
            }
            Ok(())
        }
        Err(_) => {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, mine).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &path).map_err(|e| e.to_string())
        }
    }
}

fn write_trace(workload: Workload, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let path = format!("{OUT_DIR}/trace-{workload:?}-seed{seed}.jsonl");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace written to {path}");
    Ok(())
}

/// Per-op p50 and tail, on standard error only: the per-op time distribution
/// has gaps (many ops under 10 ms, the rest 0.1–9 s) that rank statistics
/// fall into, so they are too unsteady to gate on. Also the unscaled times
/// and the reference kernel's median.
fn diagnostics(
    workload: Workload,
    ops: &[Op],
    logs: &[OpLog],
    setup_times: &[(f64, usize)],
    cal: &Calibration,
) {
    let samples: Vec<f64> = logs
        .iter()
        .flat_map(|l| {
            unscaled(&l.untraced)
                .into_iter()
                .chain(l.traced.iter().copied())
        })
        .collect();
    let n = samples.len();
    // The highest percentile with at least ten samples beyond it.
    let tail = if n > 10 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    eprintln!(
        "diagnostic {workload:?}: per-op p50 {:.6} s, p{:.1} {:.6} s, {n} samples",
        quantile(&samples, 0.5),
        tail * 100.0,
        quantile(&samples, tail)
    );
    eprintln!(
        "diagnostic {workload:?}: unscaled total {:.6} s, setup {:.6} s; \
         reference kernel median {:.6} s",
        sum_per_op(ops, logs, |_| true, |l| median(&unscaled(&l.untraced))),
        median(&unscaled(setup_times)),
        cal.median()
    );
}

/// The seconds of timed executions, without their calibration epochs.
fn unscaled(times: &[(f64, usize)]) -> Vec<f64> {
    times.iter().map(|&(secs, _)| secs).collect()
}

/// Per-op values, summed over the ops `pick` keeps that did not fail.
fn sum_per_op(
    ops: &[Op],
    logs: &[OpLog],
    pick: impl Fn(&Op) -> bool,
    value: impl Fn(&OpLog) -> f64,
) -> f64 {
    ops.iter()
        .zip(logs)
        .filter(|(op, log)| pick(op) && log.failures.is_empty())
        .map(|(_, log)| value(log))
        .sum()
}

/// The end-to-end metrics. Every time is scaled to the reference kernel's
/// nominal speed at the moment it was measured (see [`Calibration`]).
fn end_to_end(
    ops: &[Op],
    logs: &[OpLog],
    setup_times: &[(f64, usize)],
    cal: &Calibration,
) -> Vec<(&'static str, f64, &'static str)> {
    let op_median = |l: &OpLog| median(&cal.scaled(&l.untraced));
    let medians: Vec<f64> = logs
        .iter()
        .filter(|l| l.failures.is_empty())
        .map(op_median)
        .collect();
    let peak_heap = logs
        .iter()
        .flat_map(|l| l.heap.iter())
        .max()
        .copied()
        .unwrap_or(0) as f64;
    let resyn = sum_per_op(ops, logs, |op| op.resource, op_median);
    let synquid = sum_per_op(ops, logs, |op| !op.resource, op_median);
    vec![
        ("setup_s", median(&cal.scaled(setup_times)), "s"),
        ("total_s", resyn + synquid, "s"),
        ("resyn_s", resyn, "s"),
        ("synquid_s", synquid, "s"),
        ("resyn_over_synquid", resyn / synquid, "ratio"),
        ("op_geomean_s", geomean(&medians), "s"),
        ("peak_heap_mb", peak_heap / (1024.0 * 1024.0), "MB"),
    ]
}

fn per_layer(
    ops: &[Op],
    logs: &[OpLog],
    tracer: &Tracer,
    cal: &Calibration,
) -> Vec<(&'static str, f64, &'static str)> {
    let ok: Vec<(&Op, &OpLog)> = ops
        .iter()
        .zip(logs)
        .filter(|(_, l)| l.failures.is_empty())
        .collect();
    let first = |v: &[Counters]| v.first().copied().unwrap_or_default();
    let sum = |f: &dyn Fn(&OpLog) -> u64| ok.iter().map(|(_, l)| f(l)).sum::<u64>() as f64;
    let timed = |l: &OpLog| first(&l.counters);

    let hits = sum(&|l| timed(l).hits);
    let misses = sum(&|l| timed(l).misses);
    let candidates = sum(&|l| timed(l).candidates);
    // What an op costs in a traced round (spans and the traced round's extra
    // layer calls included) against its untraced time, both scaled so that
    // a change of machine speed between the rounds does not show.
    let scaled_total = |times: fn(&OpLog) -> &[(f64, usize)]| -> f64 {
        ok.iter().map(|(_, l)| median(&cal.scaled(times(l)))).sum()
    };
    let traced_total = scaled_total(|l| &l.traced_slot);
    let untraced_total = scaled_total(|l| &l.untraced);
    // Solver-miss time: the cold op minus the same op on its warm cache.
    let miss_s: f64 = ok
        .iter()
        .map(|(_, l)| median(&l.traced) - median(&l.warm))
        .sum();
    // Resource-mode minus Synquid-mode time over op pairs of one goal (and
    // one program, for checks) whose candidate counts agree.
    let mut pairs: BTreeMap<String, [Option<(f64, u64)>; 2]> = BTreeMap::new();
    for (op, log) in &ok {
        pairs.entry(op.pair.clone()).or_default()[usize::from(!op.resource)] =
            Some((median(&log.traced), timed(log).candidates));
    }
    let overhead: f64 = pairs
        .values()
        .filter_map(|p| match p {
            [Some((r, rc)), Some((s, sc))] if rc == sc => Some(r - s),
            _ => None,
        })
        .sum();
    let solved = ok
        .iter()
        .filter(|(op, _)| op.accept.is_none() && op.verdict == Verdict::Solved)
        .count() as f64;
    let self_times = tracer.self_times();
    let layer = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("solver.misses", misses, "count"),
        ("solver.hits", hits, "count"),
        ("solver.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("solver.miss_s", miss_s, "s"),
        ("solver.s_per_miss", ratio(miss_s, misses), "s"),
        ("synth.candidates", candidates, "count"),
        ("synth.skeletons", sum(&|l| timed(l).skeletons), "count"),
        (
            "synth.resource_rechecks",
            sum(&|l| timed(l).rechecks),
            "count",
        ),
        (
            "synth.candidates_per_s",
            ratio(candidates, layer("synth.synthesize")),
            "1/s",
        ),
        ("synth.useful_ratio", ratio(solved, candidates), "ratio"),
        ("analysis.analyze_s", layer("analysis.analyze"), "s"),
        ("analysis.library", sum(&|l| l.library.0), "count"),
        ("analysis.pruned_library", sum(&|l| l.library.1), "count"),
        ("ty.check_s", layer("ty.check"), "s"),
        (
            "ty.checks",
            sum(&|l| l.checks.0) / traced_rounds(logs),
            "count",
        ),
        (
            "ty.rejected",
            sum(&|l| l.checks.1) / traced_rounds(logs),
            "count",
        ),
        ("rescon.overhead_s", overhead, "s"),
        ("logic.interned_terms", sum(&|l| timed(l).interned), "count"),
        ("parse.expr_s", layer("parse.expr"), "s"),
        ("lang.classify_s", layer("lang.classify"), "s"),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced_total - untraced_total, untraced_total),
            "%",
        ),
        ("bench.kernel_s", cal.median(), "s"),
    ]
}

fn traced_rounds(logs: &[OpLog]) -> f64 {
    logs.first().map_or(1.0, |l| l.traced.len().max(1) as f64)
}
