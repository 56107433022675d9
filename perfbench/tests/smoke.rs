//! Smoke test: every workload, in both modes, at `--smoke` size, must
//! exit 0 with a correct result that carries exactly the metrics
//! BENCHMARK.json declares for that mode.

use std::process::Command;

/// The `end_to_end` or `per_layer` metric names BENCHMARK.json declares.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// The `metric <name> <value> <unit>` lines of a run, in order.
fn metrics(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut parts = l.split(' ');
            let name = parts.next().unwrap().to_string();
            (name, parts.next().unwrap().parse().unwrap())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    (stdout, stderr)
}

#[test]
fn every_workload_reports_its_declared_metrics_correctly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for workload in ["freq-pts-d1024", "topk-jd-csv", "freq-cp-dist-d64"] {
        for (trace, names) in [(0, &end_to_end), (1, &per_layer)] {
            let (stdout, stderr) = run(workload, trace);
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{workload} trace={trace}: {result}\n{stderr}"
            );
            assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
            let metrics = metrics(&stdout);
            let printed: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
            assert_eq!(
                printed,
                names.iter().collect::<Vec<_>>(),
                "{workload} trace={trace}"
            );
            for (name, value) in &metrics {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": {value}, ")),
                    "{name}"
                );
            }
            assert!(
                stdout.lines().any(|l| l.starts_with("manifest {")),
                "{workload}: no manifest"
            );
            let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
            if trace == 0 {
                for (name, value) in &metrics {
                    assert!(*value > 0.0, "{workload}: {name} is not positive");
                }
            } else {
                let reconcile = get("trace.reconcile");
                assert!(
                    (0.5..2.0).contains(&reconcile),
                    "{workload}: reconcile {reconcile}"
                );
                assert_eq!(get("error_rate"), 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "topk-jd-csv",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "topk-jd-csv",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
