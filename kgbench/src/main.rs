//! `kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run context and one line per metric, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--scale tiny` runs every phase at the side-probe
//! sizes (for quick checks).

use kgbench::{run, Config, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("kgbench: {msg}");
    eprintln!(
        "usage: kgbench --workload <materialize|update_publish|serve_lookup|serve_graph> \
         --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The JSON result must be the last line: no span output on stdout.
    std::env::remove_var("KGM_LOG");
    // The chase of Algorithm 2 takes its worker count from the environment;
    // set it before any thread starts.
    std::env::set_var(
        "KGM_THREADS",
        kgbench::materialize::ENGINE_THREADS.to_string(),
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: Workload::Materialize,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
        perturb: None,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("`{}` has no value", pair[0]));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| cfg.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--scale" => match value.as_str() {
                "full" => true,
                "tiny" => {
                    cfg.scale = Scale::TINY;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        };
        if !ok {
            return usage(&format!("bad value `{value}` for {flag}"));
        }
    }
    let Some(w) = workload else {
        return usage("--workload is required");
    };
    cfg.workload = w;
    match run(&cfg) {
        Ok(outcome) => {
            for n in &outcome.notes {
                println!("# {n}");
            }
            for m in &outcome.metrics {
                println!("# {:<40} {:>16} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kgbench: {e}");
            ExitCode::FAILURE
        }
    }
}
