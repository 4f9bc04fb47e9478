//! `--compare a.json b.json`: each end-to-end metric's change from run
//! document `a` to run document `b`, per workload, against its bound.
//!
//! A host-time metric whose own run-to-run spread (the printed quartile
//! spread of its segments, or the range of its repetitions) exceeds the
//! bound is reported as *unresolved*, not as unchanged. A metric the
//! workload's rounds do not produce (`metrics::in_rounds`) is shown and
//! not judged.

use crate::json::Value;
use crate::metrics::{in_rounds, Better, Clock, Def, END_TO_END, WORKLOADS};

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// The metric's own spread exceeds the bound.
    Unresolved,
    /// Missing from one of the documents.
    Missing,
    /// The workload's rounds do not produce this metric; its value comes
    /// from the recovery drill alone and is shown for information.
    DrillOnly,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric.
    pub def: Def,
    /// Value in `a`.
    pub a: f64,
    /// Value in `b`.
    pub b: f64,
    /// Share by which `b` is worse than `a` (negative: better).
    pub worse_by: f64,
    /// Largest spread either document printed for the metric.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn value_of(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .num()
}

/// Relative spread a document printed for `metric`, if it printed one.
fn spread_of(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    let detail = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end_detail")?;
    match metric {
        "wall_rounds_per_s" => {
            let q = |k: &str| detail.get(k).and_then(Value::num);
            let (q1, med, q3) = (
                q("wall_rounds_per_s_q1")?,
                q("wall_rounds_per_s_median")?,
                q("wall_rounds_per_s_q3")?,
            );
            (med > 0.0).then(|| (q3 - q1) / med)
        }
        "setup_s" => {
            let all: Vec<f64> = detail
                .get("setup_s_all")?
                .arr()
                .iter()
                .filter_map(Value::num)
                .collect();
            let (_, med, _) = crate::stats::quartiles(&all)?;
            let (lo, hi) = all
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (med > 0.0 && all.len() > 1).then(|| (hi - lo) / med)
        }
        _ => None,
    }
}

/// Share by which `b` is worse than `a` for a metric of direction
/// `better`.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two run documents.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (
                value_of(a, workload, def.name),
                value_of(b, workload, def.name),
            );
            let row = match (va, vb) {
                (Some(va), Some(vb)) => {
                    let worse = worse_by(def.better, va, vb);
                    let spread = spread_of(a, workload, def.name)
                        .into_iter()
                        .chain(spread_of(b, workload, def.name))
                        .fold(0.0, f64::max);
                    let verdict = if !in_rounds(def.name, workload) {
                        Verdict::DrillOnly
                    } else if def.clock == Clock::Host && spread > def.bound {
                        Verdict::Unresolved
                    } else if worse > def.bound {
                        Verdict::Regression
                    } else {
                        Verdict::Ok
                    };
                    Row {
                        workload,
                        def,
                        a: va,
                        b: vb,
                        worse_by: worse,
                        spread,
                        verdict,
                    }
                }
                _ => Row {
                    workload,
                    def,
                    a: va.unwrap_or(f64::NAN),
                    b: vb.unwrap_or(f64::NAN),
                    worse_by: f64::NAN,
                    spread: 0.0,
                    verdict: Verdict::Missing,
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// Prints the rows; returns the process exit code: 0 when nothing
/// regressed and nothing is unresolved, 1 on a regression or a missing
/// metric, 2 when the only findings are unresolved metrics.
pub fn report(rows: &[Row]) -> i32 {
    println!(
        "{:<11} {:<22} {:>16} {:>16} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse_by", "bound", "spread"
    );
    for r in rows {
        let note = match (r.verdict, r.def.clock, r.a == r.b) {
            (Verdict::Ok, Clock::Virtual | Clock::Count, true) => "ok (identical)",
            (Verdict::Ok, _, _) => "ok",
            (Verdict::Regression, _, _) => "REGRESSION",
            (Verdict::Unresolved, _, _) => "UNRESOLVED",
            (Verdict::Missing, _, _) => "MISSING",
            (Verdict::DrillOnly, _, _) => "drill only, not judged",
        };
        println!(
            "{:<11} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.1}% {:>6.1}%  {note}",
            r.workload,
            r.def.name,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.def.bound,
            100.0 * r.spread,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (bad, open) = (
        count(Verdict::Regression) + count(Verdict::Missing),
        count(Verdict::Unresolved),
    );
    println!(
        "{bad} regressions or missing, {open} unresolved, {} compared",
        rows.len()
    );
    match (bad, open) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rate: f64, q1: f64, q3: f64, stop: f64) -> Value {
        let metric = |v: f64| Value::Obj(vec![("value".into(), Value::Num(v))]);
        let mut workloads = Vec::new();
        for (w, _) in WORKLOADS {
            let metrics: Vec<(String, Value)> = END_TO_END
                .iter()
                .map(|d| {
                    let v = match d.name {
                        "wall_rounds_per_s" => rate,
                        "stop_us_mean" => stop,
                        _ => 1.0,
                    };
                    (d.name.to_string(), metric(v))
                })
                .collect();
            let detail = Value::Obj(vec![
                ("wall_rounds_per_s_q1".into(), Value::Num(q1)),
                ("wall_rounds_per_s_median".into(), Value::Num(rate)),
                ("wall_rounds_per_s_q3".into(), Value::Num(q3)),
            ]);
            workloads.push((
                w.to_string(),
                Value::Obj(vec![
                    (
                        "end_to_end".into(),
                        Value::Obj(vec![("metrics".into(), Value::Obj(metrics))]),
                    ),
                    ("end_to_end_detail".into(), detail),
                ]),
            ));
        }
        Value::Obj(vec![("workloads".into(), Value::Obj(workloads))])
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn same_document_is_clean() {
        let d = doc(100.0, 99.0, 101.0, 12.05);
        let rows = compare(&d, &d);
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok || !in_rounds(r.def.name, r.workload)));
    }

    #[test]
    fn regressions_and_noisy_metrics_are_told_apart() {
        let a = doc(100.0, 99.0, 101.0, 12.05);
        // 30 % fewer rounds per second, 1 % longer stops: the first is
        // past its 25 % bound, the second within its 3 %.
        let b = doc(70.0, 69.5, 70.5, 12.17);
        let rows = compare(&a, &b);
        let find = |name: &str| rows.iter().find(|r| r.def.name == name).unwrap().verdict;
        assert_eq!(find("wall_rounds_per_s"), Verdict::Regression);
        assert_eq!(find("stop_us_mean"), Verdict::Ok);
        // `cold_start` takes one checkpoint, in its drill: whatever its
        // stop time does is shown and not judged.
        let worse = doc(100.0, 99.0, 101.0, 24.0);
        for r in compare(&a, &worse)
            .iter()
            .filter(|r| r.def.name == "stop_us_mean")
        {
            let want = if r.workload == "cold_start" {
                Verdict::DrillOnly
            } else {
                Verdict::Regression
            };
            assert_eq!(r.verdict, want, "{}", r.workload);
        }
        // The same drop, but the segments of `b` scatter by 40 %.
        let noisy = doc(70.0, 58.0, 86.0, 12.05);
        let rows = compare(&a, &noisy);
        let find = |name: &str| rows.iter().find(|r| r.def.name == name).unwrap().verdict;
        assert_eq!(find("wall_rounds_per_s"), Verdict::Unresolved);
        // A metric one document lacks is not silently passed.
        let empty = Value::Obj(vec![]);
        assert!(compare(&a, &empty)
            .iter()
            .all(|r| r.verdict == Verdict::Missing));
    }
}
