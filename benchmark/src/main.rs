//! The ReSyn-rs benchmark: cold synthesis and program checking over the
//! paper's Tables 1 and 2.
//!
//! ```console
//! $ cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!       --workload synth-cold --seed 1 --seconds 45 --trace 0
//! $ cargo run --release --manifest-path benchmark/Cargo.toml -- --bless
//! ```
//!
//! A run prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). `--bless` regenerates `expectations.tsv`. See `README.md`.

mod expect;
mod heap;
mod refkernel;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The recorded expectations, compiled in so a run reads no repository file.
pub const EXPECTATIONS: &str = include_str!("../expectations.tsv");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.parse()?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.bless {
            let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            let benches = workload::benchmarks();
            return expect::bless(
                &benches,
                Duration::from_secs(30),
                &dir.join(".."),
                &dir.join("expectations.tsv"),
            );
        }
        let workload = args.workload.ok_or("--workload is required")?;
        let seconds = args.seconds.ok_or("--seconds is required")?;
        let report = workload::run(workload, args.seed, seconds, args.trace)?;
        println!("{}", report.to_json());
        Ok(())
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
