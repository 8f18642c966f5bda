//! Self-tests of the benchmark: a tiny run of every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and checks its answers;
//! a deliberately wrong expected answer is caught.

use kgbench::{run, Config, Perturb, Scale, Workload};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no `{section}` section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let from = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[from..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The last line of a tiny run of the benchmark binary.
fn tiny_run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kgbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty());
        for w in Workload::ALL {
            let line = tiny_run(w.name(), trace);
            kgm_runtime::json::validate(&line).expect("the result line is JSON");
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{}: {line}",
                w.name()
            );
            assert!(line.contains("\"failed\": 0, "), "{}: {line}", w.name());
            for (name, unit) in &want {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} --trace {trace} lacks {name}", w.name()));
                let rest = &line[at + entry.len()..];
                assert!(
                    rest.split('}')
                        .next()
                        .is_some_and(|v| v.ends_with(&format!("\"unit\": \"{unit}\""))),
                    "{}: {name} is not in {unit}",
                    w.name()
                );
            }
            let printed = line.matches("\"unit\": ").count();
            assert_eq!(
                printed,
                want.len(),
                "{} --trace {trace} prints undeclared metrics",
                w.name()
            );
        }
    }
}

fn tiny(workload: Workload, perturb: Option<Perturb>) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: true,
        scale: Scale::TINY,
        perturb,
    }
}

#[test]
fn a_wrong_control_count_is_caught() {
    let clean = run(&tiny(Workload::Materialize, None)).expect("clean run");
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.get("error_rate"), Some(0.0));
    let wrong = run(&tiny(Workload::Materialize, Some(Perturb::ControlCount))).expect("run");
    assert!(wrong.failed > 0);
    assert!(wrong.get("error_rate").is_some_and(|e| e > 0.0));
    assert!(!wrong.to_json().contains("\"correct\": true"));
}

#[test]
fn a_dropped_path_pair_is_caught() {
    let wrong = run(&tiny(Workload::ServeGraph, Some(Perturb::DropPathPair))).expect("run");
    assert!(wrong.failed > 0);
    assert!(wrong.get("error_rate").is_some_and(|e| e > 0.0));
}
