//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metadata line (seed, host, engine threads) and, as its last
//! line, the result object `{correct, attempted, failed, metrics}`. A
//! traced run also writes its spans to `perfbench/out/`.

use perfbench::{RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use trq_bench::HostMeta;

const USAGE: &str = "usage: perfbench --workload <batch-resnet20|serve-mlp|bringup-mlp> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", cfg.seconds));
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostMeta::capture(workload.engine_threads(), "pool");
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"engine_threads\": {}, \"host\": {}}}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        workload.engine_threads(),
        serde_json::to_string(&host).unwrap_or_else(|e| format!("\"{e}\""))
    );
    println!("{{\"meta\": {meta}}}");
    let outcome = match workload.run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.checks.notes {
        eprintln!("check failed: {note}");
    }
    let line = match outcome.result_line(cfg.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let traces: Vec<String> = outcome
            .traces
            .iter()
            .map(|(name, t)| format!("\"{name}\": {}", t.spans_json()))
            .collect();
        let path = cfg.out_dir.join(format!("trace-{}-seed{}.json", workload.name(), cfg.seed));
        let body = format!(
            "{{\"meta\": {meta}, \"result\": {line}, \"spans\": {{{}}}}}\n",
            traces.join(", ")
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
