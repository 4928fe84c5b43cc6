//! The repository benchmark: four workloads run through the public APIs of
//! the CAM crates, with end-to-end metrics (`--trace 0`) or per-layer
//! metrics timed from this crate's own calls into each layer (`--trace 1`).
//!
//! ```text
//! cam-perfbench --workload <repair_sim|repair_mem|publish_udp|paper_trees>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Lines starting with `#` are notes; the last line of standard output is
//! the result object. A traced run reports the layers its workload
//! exercises; `run.py` completes the set from `BENCHMARK.json`. See
//! `perfbench/README.md` for why each workload exists and what each metric
//! predicts.

mod layers;
mod publish;
mod repair;
mod report;
mod trees;

use std::process::ExitCode;

use layers::push;
use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cam-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::new();
    let (seed, secs) = (args.seed, args.seconds);
    if !args.trace {
        match args.workload.as_str() {
            "repair_sim" => repair::run(repair::Which::Sim, seed, secs, &mut rep),
            "repair_mem" => repair::run(repair::Which::Mem, seed, secs, &mut rep),
            "publish_udp" => publish::run(seed, secs, &mut rep),
            "paper_trees" => trees::run(seed, secs, &mut rep),
            w => {
                eprintln!("cam-perfbench: unknown workload {w}");
                return ExitCode::from(2);
            }
        }
        rep.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    } else {
        let (mut layers, closure, overhead) = match args.workload.as_str() {
            "repair_sim" => repair::traced_sim(seed, &mut rep),
            "repair_mem" => repair::traced_mem(seed, &mut rep),
            "publish_udp" => publish::traced(seed, secs, &mut rep),
            "paper_trees" => trees::traced(seed, secs, &mut rep),
            w => {
                eprintln!("cam-perfbench: unknown workload {w}");
                return ExitCode::from(2);
            }
        };
        push(&mut layers, "trace.overhead_frac", overhead, "1");
        push(&mut layers, "trace.closure_frac", closure, "1");
        for (name, value, unit) in layers {
            rep.metric(name, value, unit);
        }
    }
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
