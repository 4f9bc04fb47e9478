//! `slsbench`: one two-clock benchmark for the checkpoint → durable →
//! restore path.
//!
//! *Virtual time* is the modelled Aurora; *host wall time* is what the
//! simulator costs to run. Four closed-loop workloads stress different
//! layers; see README.md for the metric glossary and the layer →
//! end-to-end table.
//!
//! ```text
//! slsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result object
//!     (end-to-end metrics with --trace 0, per-layer metrics with 1)
//! slsbench [--seed <n>] [--seconds <s>] [--out <file>]
//!     every workload, untraced then traced, each in its own process;
//!     prints every metric and writes a run document for --compare
//! slsbench --compare <a.json> <b.json>
//!     each end-to-end metric's change against its bound
//! ```
//!
//! Further flags: `--smoke` (tiny footprints), `--trace-out <file>`
//! (write the spans) and the test-only `--corrupt-digest`.

mod compare;
mod gen;
mod json;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Value;
use metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Options, Outcome};
use workloads::{
    bulk_flush::BulkFlush, cold_start::ColdStart, fleet_16::Fleet16, kv_churn::KvChurn, Size,
};

/// Host seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;
/// Default seed.
const SEED: u64 = 42;

struct Args {
    workload: Option<String>,
    compare: Option<(String, String)>,
    out: Option<String>,
    opts: Options,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        compare: None,
        out: None,
        opts: Options {
            seed: SEED,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            trace_out: None,
            size: Size::Full,
            corrupt_digest: false,
        },
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.opts.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.opts.seconds = s;
            }
            "--trace" => {
                a.opts.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => a.opts.trace_out = Some(value(&mut it, flag)?),
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--smoke" => a.opts.size = Size::Smoke,
            "--corrupt-digest" => a.opts.corrupt_digest = true,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn run_named(name: &str, opts: &Options) -> Result<Outcome, String> {
    let r = match name {
        "kv_churn" => run::run::<KvChurn>(opts),
        "bulk_flush" => run::run::<BulkFlush>(opts),
        "cold_start" => run::run::<ColdStart>(opts),
        "fleet_16" => run::run::<Fleet16>(opts),
        other => return Err(format!("unknown workload {other}")),
    };
    r.map_err(|e| format!("{name}: {e}"))
}

/// The result object the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_object(o: &Outcome) -> Value {
    let metrics = o
        .defs
        .iter()
        .zip(&o.values)
        .map(|(d, &v)| {
            (
                d.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(o.correct)),
        ("attempted".into(), Value::Num(o.attempted as f64)),
        ("failed".into(), Value::Num(o.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

fn print_table(workload: &str, defs: &[Def], values: impl Iterator<Item = f64>) {
    for (d, v) in defs.iter().zip(values) {
        println!("{workload:<11} {:<44} {v:>20.6} {}", d.name, d.unit);
    }
}

/// One workload, one mode, in this process.
fn single(name: &str, opts: &Options) -> ExitCode {
    let outcome = match run_named(name, opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("slsbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_table(
        outcome.workload,
        outcome.defs,
        outcome.values.iter().copied(),
    );
    for f in &outcome.failures {
        eprintln!("slsbench: {}: FAILED: {f}", outcome.workload);
    }
    println!("detail {}", outcome.detail.to_json());
    println!("{}", result_object(&outcome).to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `slsbench --workload … --trace …` as a child, so that each run's
/// `VmHWM` is its own; returns its detail and result objects.
fn child(name: &str, a: &Args, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.opts.seed.to_string()])
        .args(["--seconds", &a.opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.opts.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if a.opts.corrupt_digest {
        cmd.arg("--corrupt-digest");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no output"))?;
    let detail = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{name}: no detail line"))?;
    let parsed = (json::parse(detail)?, json::parse(result)?);
    if !out.status.success() {
        return Err(format!("{name}: run failed ({})", out.status));
    }
    Ok(parsed)
}

fn metric_values<'a>(result: &'a Value, defs: &'a [Def]) -> impl Iterator<Item = f64> + 'a {
    defs.iter().map(move |d| {
        result
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .and_then(Value::num)
            .unwrap_or(f64::NAN)
    })
}

/// Every workload, untraced then traced; prints every metric by name
/// and unit and writes the run document.
fn all(a: &Args) -> ExitCode {
    let mut workloads = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let runs = child(name, a, false).and_then(|plain| Ok((plain, child(name, a, true)?)));
        let ((e2e_detail, e2e), (layer_detail, layers)) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("slsbench: {e}");
                ok = false;
                continue;
            }
        };
        print_table(name, &END_TO_END, metric_values(&e2e, &END_TO_END));
        print_table(name, &PER_LAYER, metric_values(&layers, &PER_LAYER));
        for (label, r) in [("untraced", &e2e), ("traced", &layers)] {
            let n = |k: &str| r.get(k).and_then(Value::num).unwrap_or(f64::NAN);
            println!(
                "{name:<11} {label}: attempted {} failed {}",
                n("attempted"),
                n("failed")
            );
            ok &= r.get("correct") == Some(&Value::Bool(true));
        }
        workloads.push((
            name.to_string(),
            Value::Obj(vec![
                ("end_to_end".into(), e2e),
                ("end_to_end_detail".into(), e2e_detail),
                ("per_layer".into(), layers),
                ("per_layer_detail".into(), layer_detail),
            ]),
        ));
    }
    let doc = Value::Obj(vec![
        ("benchmark".into(), Value::Str("slsbench".into())),
        ("seed".into(), Value::Num(a.opts.seed as f64)),
        ("seconds".into(), Value::Num(a.opts.seconds)),
        ("workloads".into(), Value::Obj(workloads)),
        ("claim".into(), Value::Null),
    ]);
    let text = doc.to_json();
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("slsbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{text}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| json::parse(t.trim()).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => ExitCode::from(compare::report(&compare::compare(&a, &b)) as u8),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("slsbench: {e}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slsbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    match &args.workload {
        Some(name) => single(name, &args.opts),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, trace: bool, corrupt_digest: bool) -> Outcome {
        let opts = Options {
            seed: 42,
            seconds: 0.01,
            trace,
            trace_out: None,
            size: Size::Smoke,
            corrupt_digest,
        };
        run_named(name, &opts).expect("smoke run")
    }

    /// Metrics that read the host clock or host memory; everything else
    /// must repeat exactly for fixed work.
    fn host_dependent(d: &Def) -> bool {
        d.clock == metrics::Clock::Host
    }

    #[test]
    fn every_workload_repeats_exactly_and_passes_its_oracle() {
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let (a, b) = (smoke(name, trace, false), smoke(name, trace, false));
                assert!(a.correct, "{name}: {:?}", a.failures);
                // The fixed-time phase gets through as many operations
                // as the machine allows; the fixed work's count repeats.
                let fixed = |o: &Outcome| o.detail.get("fixed_attempted").and_then(Value::num);
                assert_eq!(fixed(&a), fixed(&b), "{name}");
                assert!(
                    fixed(&a) > Some(0.0) && a.failed == 0 && b.failed == 0,
                    "{name}"
                );
                for ((d, x), y) in a.defs.iter().zip(&a.values).zip(&b.values) {
                    assert!(x.is_finite(), "{name} {}", d.name);
                    if !host_dependent(d) {
                        assert_eq!(x, y, "{name} {} differs between two runs", d.name);
                    }
                }
                if !trace {
                    for (d, x) in a.defs.iter().zip(&a.values) {
                        assert!(*x > 0.0, "{name} {} is zero", d.name);
                    }
                }
            }
        }
    }

    /// The fixed-time phase decides the host-time throughput and nothing
    /// else: however long it runs, virtual metrics and counts stay put.
    #[test]
    fn fixed_time_phase_moves_no_virtual_metric() {
        let run = |seconds: f64| {
            let opts = Options {
                seed: 42,
                seconds,
                trace: false,
                trace_out: None,
                size: Size::Smoke,
                corrupt_digest: false,
            };
            run_named("kv_churn", &opts).expect("run")
        };
        let (short, long) = (run(0.01), run(0.2));
        assert!(short.correct && long.correct);
        assert!(
            long.attempted > short.attempted,
            "the longer run must get through more rounds"
        );
        for ((d, x), y) in short.defs.iter().zip(&short.values).zip(&long.values) {
            if !host_dependent(d) {
                assert_eq!(x, y, "{} moved with --seconds", d.name);
            }
        }
    }

    #[test]
    fn seed_changes_the_run() {
        let mut opts = Options {
            seed: 42,
            seconds: 0.01,
            trace: false,
            trace_out: None,
            size: Size::Smoke,
            corrupt_digest: false,
        };
        let a = run_named("kv_churn", &opts).expect("run");
        opts.seed = 43;
        let b = run_named("kv_churn", &opts).expect("run");
        assert!(a.correct && b.correct);
        assert_ne!(a.values, b.values);
    }

    #[test]
    fn a_corrupted_digest_fails_the_run() {
        for (name, _) in WORKLOADS {
            let o = smoke(name, false, true);
            assert!(
                !o.correct && o.failed > 0,
                "{name} accepted a corrupted digest"
            );
        }
    }

    #[test]
    fn layer_contrasts_hold() {
        let value = |o: &Outcome, name: &str| {
            let i = o.defs.iter().position(|d| d.name == name).expect(name);
            o.values[i]
        };
        let kv = smoke("kv_churn", true, false);
        let bulk = smoke("bulk_flush", true, false);
        let cold = smoke("cold_start", true, false);
        let fleet = smoke("fleet_16", true, false);
        assert!(value(&kv, "objstore.delta_records") > 0.0);
        assert_eq!(value(&bulk, "objstore.delta_records"), 0.0);
        assert!(value(&bulk, "objstore.dedup_hits") > 0.0);
        assert_eq!(value(&cold, "core.flush.pages_hashed"), 0.0);
        assert!(value(&cold, "hw.bytes_read") > 0.0);
        assert!(value(&fleet, "core.fleet.admitted") > 0.0);
        for o in [&kv, &bulk, &cold] {
            assert_eq!(value(o, "core.fleet.admitted"), 0.0, "{}", o.workload);
        }
        for o in [&kv, &bulk, &cold, &fleet] {
            assert_eq!(value(o, "bench.span_violations"), 0.0, "{}", o.workload);
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let o = smoke("fleet_16", false, false);
        let r = result_object(&o);
        let keys: Vec<&str> = r.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = r.get("metrics").expect("metrics");
        assert_eq!(metrics.members().len(), END_TO_END.len());
        for (_, m) in metrics.members() {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }

    /// `BENCHMARK.json` says what the tables say: names, units,
    /// directions, bounds, workloads and `run_seconds`, under exactly the
    /// contract's keys.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::num),
            Some(f64::from(RUN_SECONDS))
        );
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<Value>> {
            doc.get(key)
                .expect(key)
                .arr()
                .iter()
                .map(|row| {
                    let keys: Vec<&str> = row.members().iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, fields, "{key}");
                    row.members().iter().map(|(_, v)| v.clone()).collect()
                })
                .collect()
        };
        let str = |v: &str| Value::Str(v.into());
        let want: Vec<Vec<Value>> = WORKLOADS
            .iter()
            .map(|(n, w)| vec![str(n), str(w)])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), want);
        let def = |d: &Def| {
            let better = match d.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            vec![str(d.name), str(d.unit), str(better)]
        };
        let want: Vec<Vec<Value>> = END_TO_END
            .iter()
            .map(|d| [def(d), vec![Value::Num(d.bound)]].concat())
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            want
        );
        let want: Vec<Vec<Value>> = PER_LAYER.iter().map(def).collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), want);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a =
            parse("--workload kv_churn --seed 7 --seconds 10 --trace 1").expect("contract line");
        assert_eq!((a.opts.seed, a.opts.trace), (7, true));
        assert_eq!(parse("--smoke").expect("smoke").opts.size, Size::Smoke);
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--rounds 3").is_err());
        assert!(parse("--bogus").is_err());
        assert!(run_named("nope", &a.opts).is_err());
    }
}
