//! The expectations file: the recorded verdict, surface program and bound
//! class of every goal × mode, and the verdict of every program check.
//!
//! Format (`expectations.tsv`, tab-separated, `#` starts a comment):
//!
//! ```text
//! synth  <goal>  <mode>  <solved|budget|exhausted>  <bound class>  <surface program or ->
//! check  <goal>  <program's mode>  <check mode>  <accept|reject>
//! ```
//!
//! `--bless` regenerates the file (see [`bless`]).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use resyn::eval::measure::classify;
use resyn::eval::suite::Benchmark;
use resyn::parse::surface::expr_to_surface;
use resyn::synth::{Mode, SynthOutcome, Synthesizer};

/// The recorded outcome of a synthesis op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A program was found.
    Solved,
    /// The per-op budget ran out.
    Budget,
    /// The search space was exhausted without a program.
    Exhausted,
}

impl Verdict {
    pub fn of(outcome: &SynthOutcome) -> Verdict {
        match (&outcome.program, outcome.stats.timed_out) {
            (Some(_), _) => Verdict::Solved,
            (None, true) => Verdict::Budget,
            (None, false) => Verdict::Exhausted,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Solved => "solved",
            Verdict::Budget => "budget",
            Verdict::Exhausted => "exhausted",
        }
    }

    fn parse(s: &str) -> Result<Verdict, String> {
        match s {
            "solved" => Ok(Verdict::Solved),
            "budget" => Ok(Verdict::Budget),
            "exhausted" => Ok(Verdict::Exhausted),
            other => Err(format!("unknown verdict `{other}`")),
        }
    }
}

/// Expected outcome of `Synthesizer::synthesize` on one goal in one mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthExpect {
    pub goal: String,
    pub mode: Mode,
    pub verdict: Verdict,
    /// `measure::classify` of the program, as displayed (`-` if none).
    pub bound: String,
    /// `expr_to_surface` of the program.
    pub program: Option<String>,
}

/// Expected verdict of `Synthesizer::check` on the program that `goal`
/// synthesized in `program_mode`, checked in `mode`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckExpect {
    pub goal: String,
    pub program_mode: Mode,
    pub mode: Mode,
    pub accept: bool,
}

/// The whole expectations file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectations {
    pub synth: Vec<SynthExpect>,
    pub check: Vec<CheckExpect>,
}

/// The two modes every goal runs in: its resource mode (constant-resource
/// for constant-time goals, ReSyn otherwise) and resource-agnostic Synquid.
pub fn modes(bench: &Benchmark) -> [Mode; 2] {
    let resource = if bench.constant_time {
        Mode::ConstantTime
    } else {
        Mode::ReSyn
    };
    [resource, Mode::Synquid]
}

fn mode(s: &str) -> Result<Mode, String> {
    s.parse()
}

impl Expectations {
    pub fn parse(text: &str) -> Result<Expectations, String> {
        let mut out = Expectations::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let err = |e: String| format!("expectations line {}: {e}", n + 1);
            match f.as_slice() {
                ["synth", goal, m, verdict, bound, program] => out.synth.push(SynthExpect {
                    goal: goal.to_string(),
                    mode: mode(m).map_err(err)?,
                    verdict: Verdict::parse(verdict).map_err(err)?,
                    bound: bound.to_string(),
                    program: (*program != "-").then(|| program.to_string()),
                }),
                ["check", goal, pm, m, verdict] => out.check.push(CheckExpect {
                    goal: goal.to_string(),
                    program_mode: mode(pm).map_err(err)?,
                    mode: mode(m).map_err(err)?,
                    accept: match *verdict {
                        "accept" => true,
                        "reject" => false,
                        other => return Err(err(format!("unknown check verdict `{other}`"))),
                    },
                }),
                _ => return Err(err(format!("malformed line `{line}`"))),
            }
        }
        Ok(out)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Recorded outcomes of every Table-1/Table-2 goal x mode; regenerate with\n\
             # `cargo run --release --manifest-path benchmark/Cargo.toml -- --bless`.\n\
             # synth\tgoal\tmode\tverdict\tbound\tprogram\n\
             # check\tgoal\tprogram-mode\tcheck-mode\tverdict\n",
        );
        for s in &self.synth {
            let _ = writeln!(
                out,
                "synth\t{}\t{}\t{}\t{}\t{}",
                s.goal,
                s.mode.as_str(),
                s.verdict.as_str(),
                s.bound,
                s.program.as_deref().unwrap_or("-")
            );
        }
        for c in &self.check {
            let _ = writeln!(
                out,
                "check\t{}\t{}\t{}\t{}",
                c.goal,
                c.program_mode.as_str(),
                c.mode.as_str(),
                if c.accept { "accept" } else { "reject" }
            );
        }
        out
    }

    pub fn synth(&self, goal: &str, mode: Mode) -> Option<&SynthExpect> {
        self.synth.iter().find(|s| s.goal == goal && s.mode == mode)
    }
}

/// Regenerate the expectations: synthesize every goal in both modes on a
/// cold cache under `budget`, check every synthesized program in both modes,
/// and cross-check the programs against the golden files and the bounds
/// against the committed evaluation report in `repo`. Per-op cold and warm
/// timings go to standard error. Refuses to write on a cross-check mismatch.
pub fn bless(
    benches: &[Benchmark],
    budget: Duration,
    repo: &Path,
    out: &Path,
) -> Result<(), String> {
    let bench_eval = std::fs::read_to_string(repo.join("BENCH_eval.json"))
        .map_err(|e| format!("cannot read BENCH_eval.json: {e}"))?;
    let mut exp = Expectations::default();
    let mut mismatches = Vec::new();
    let mut programs = Vec::new();
    eprintln!("op\tverdict\tcold_s\twarm_s\tcandidates\tmisses\thits_warm");
    for bench in benches {
        for mode in modes(bench) {
            let synth = Synthesizer::with_timeout(budget);
            let t = Instant::now();
            let outcome = synth.synthesize(&bench.goal, mode);
            let cold = t.elapsed().as_secs_f64();
            let verdict = Verdict::of(&outcome);
            let (warm, warm_hits) = if verdict == Verdict::Solved {
                let t = Instant::now();
                let again = synth.synthesize(&bench.goal, mode);
                (t.elapsed().as_secs_f64(), again.stats.solver_cache_hits)
            } else {
                (0.0, 0)
            };
            eprintln!(
                "{}/{}\t{}\t{cold:.4}\t{warm:.4}\t{}\t{}\t{warm_hits}",
                bench.id,
                mode.as_str(),
                verdict.as_str(),
                outcome.stats.candidates_checked,
                outcome.stats.solver_cache_misses
            );
            let program = outcome.program.as_ref().map(expr_to_surface);
            let bound = outcome
                .program
                .as_ref()
                .map_or("-".to_string(), |p| classify(&bench.goal, p).to_string());
            if let (Some(p), Some(text)) = (&outcome.program, &program) {
                if resyn::parse::parse_expr(text).as_ref() != Ok(p) {
                    mismatches.push(format!(
                        "{}/{}: surface program does not round-trip",
                        bench.id,
                        mode.as_str()
                    ));
                }
                programs.push((bench, mode, p.clone()));
            }
            if mode == Mode::ReSyn {
                cross_check(
                    bench,
                    program.as_deref(),
                    &bound,
                    repo,
                    &bench_eval,
                    &mut mismatches,
                );
            }
            exp.synth.push(SynthExpect {
                goal: bench.id.clone(),
                mode,
                verdict,
                bound,
                program,
            });
        }
    }
    eprintln!("check\taccept\ttime_s");
    for (bench, program_mode, program) in &programs {
        for mode in modes(bench) {
            let t = Instant::now();
            let accept = Synthesizer::new().check(&bench.goal, mode, program);
            eprintln!(
                "{}/{}>{}\t{accept}\t{:.4}",
                bench.id,
                program_mode.as_str(),
                mode.as_str(),
                t.elapsed().as_secs_f64()
            );
            exp.check.push(CheckExpect {
                goal: bench.id.clone(),
                program_mode: *program_mode,
                mode,
                accept,
            });
        }
    }
    if !mismatches.is_empty() {
        return Err(format!("cross-check failed:\n{}", mismatches.join("\n")));
    }
    std::fs::write(out, exp.render()).map_err(|e| format!("cannot write {}: {e}", out.display()))
}

/// Compare a ReSyn-mode outcome with `tests/golden/<id>.golden` (where one
/// exists) and with the `bound_resyn` that `BENCH_eval.json` records.
fn cross_check(
    bench: &Benchmark,
    program: Option<&str>,
    bound: &str,
    repo: &Path,
    bench_eval: &str,
    mismatches: &mut Vec<String>,
) {
    let golden = repo
        .join("tests/golden")
        .join(format!("{}.golden", bench.id));
    if let Ok(text) = std::fs::read_to_string(&golden) {
        if Some(text.trim_end()) != program {
            mismatches.push(format!(
                "{}: program differs from {}",
                bench.id,
                golden.display()
            ));
        }
    }
    let row = format!("{{\"id\": \"{}\",", bench.id);
    if let Some(at) = bench_eval.find(&row) {
        let rest = &bench_eval[at..];
        let end = rest.find('\n').unwrap_or(rest.len());
        let key = "\"bound_resyn\": \"";
        if let Some(k) = rest[..end].find(key) {
            let value = &rest[k + key.len()..end];
            let recorded = &value[..value.find('"').unwrap_or(0)];
            if recorded != bound {
                mismatches.push(format!(
                    "{}: bound {bound} but BENCH_eval.json records {recorded}",
                    bench.id
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_round_trip() {
        let exp = Expectations {
            synth: vec![
                SynthExpect {
                    goal: "list-id".into(),
                    mode: Mode::ReSyn,
                    verdict: Verdict::Solved,
                    bound: "O(n)".into(),
                    program: Some("fix id xs. xs".into()),
                },
                SynthExpect {
                    goal: "slow".into(),
                    mode: Mode::Synquid,
                    verdict: Verdict::Budget,
                    bound: "-".into(),
                    program: None,
                },
            ],
            check: vec![CheckExpect {
                goal: "list-id".into(),
                program_mode: Mode::ReSyn,
                mode: Mode::ConstantTime,
                accept: false,
            }],
        };
        assert_eq!(Expectations::parse(&exp.render()), Ok(exp));
    }

    #[test]
    fn committed_expectations_parse() {
        let exp = Expectations::parse(crate::EXPECTATIONS).expect("committed file parses");
        assert!(!exp.synth.is_empty() && !exp.check.is_empty());
    }
}
