//! Command line: `heidl-perfbench --workload <echo|routed|bulk> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints a readable report, then one JSON
//! line with the result. Exits 1 when an output check fails and 2 on a
//! usage or set-up error (without a result line).

use heidl_perfbench::{result_json, run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Settings that would change what the benchmark measures.
const REFUSED_ENV: [&str; 3] = ["HEIDL_TRANSPORT", "HEIDL_FAULT_PLAN", "HEIDL_BENCH_HEARTBEAT"];

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Echo,
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_echo: false,
        spans_path: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-echo" {
            cfg.corrupt_echo = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("echo, routed or bulk"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if cfg.trace {
        let name = format!("spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed);
        cfg.spans_path = Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(name));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "heidl-perfbench: refusing to run with {var} set; unset it to measure the defaults"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("heidl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("heidl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
