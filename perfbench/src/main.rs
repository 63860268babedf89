//! Command-line entry of the layered benchmark. Runs one workload in this
//! process and prints the metrics, then one JSON result line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's thread budget is fixed through `DYNNET_RAYON_THREADS`
//! before the vendored rayon shim first reads it.

use perfbench::{run, Plan, Report, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The shim resolves its budget once, on first use; nothing has used it
    // yet, and no other thread exists to race the write.
    std::env::set_var("DYNNET_RAYON_THREADS", perfbench::THREADS.to_string());
    let threads = rayon::max_threads();
    if threads != perfbench::THREADS {
        eprintln!("perfbench: the thread budget resolved to {threads} before it was set");
        return ExitCode::from(2);
    }
    let report = run(&plan);
    print_report(&plan, &report);
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn print_report(plan: &Plan, r: &Report) {
    println!(
        "# {}: n={} T={} threads={} (available {}) seed={} trace={}",
        plan.workload.name(),
        r.n,
        r.window,
        r.threads,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        plan.seed,
        u8::from(plan.traced),
    );
    println!(
        "# rounds: executed={} steady={} (r >= T); guaranteed={} failed={} failed_round_share={} ratio",
        r.rounds_executed,
        r.steady_rounds,
        r.guaranteed_rounds,
        r.failed_rounds,
        r.failed_rounds as f64 / r.guaranteed_rounds.max(1) as f64,
    );
    for note in &r.notes {
        println!("# {note}");
    }
    for problem in &r.problems {
        println!("# FAILED CHECK: {problem}");
    }
    for m in &r.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.guaranteed_rounds.max(1),
        r.failed_rounds,
        metrics.join(", ")
    );
}

/// JSON has no NaN or infinity; a non-finite value is reported as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}
