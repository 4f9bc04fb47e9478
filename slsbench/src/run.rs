//! Runs one workload: set-up, the timed region, the recovery drill, and
//! the metric values that come out.

use aurora_sim::error::{Error, Result};
use criterion::wall_now;

use crate::gen::{page_body, PAGE};
use crate::json::Value;
use crate::metrics::{self, Def, HostSide, LayerInputs, DRILL_ROUND, END_TO_END, PER_LAYER};
use crate::stats::{self, Block};
use crate::sut::{run_probes, Probes};
use crate::trace::Tracer;
use crate::workloads::{Recorder, Size, Workload};

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// In a traced run every fourth block runs with tracing off, so the two
/// rates compare like with like and give `bench.trace_overhead_pct`.
const PLAIN_BLOCK_EVERY: u64 = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every generated stream.
    pub seed: u64,
    /// Host seconds of the fixed-time phase.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Where to write the spans, one JSON object per line.
    pub trace_out: Option<String>,
    /// Footprints.
    pub size: Size,
    /// Test-only hook: corrupt the post-restore digest.
    pub corrupt_digest: bool,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metric table the values belong to.
    pub defs: &'static [Def],
    /// One value per entry of `defs`.
    pub values: Vec<f64>,
    /// Sample counts, quartiles and settings, for people and `--compare`.
    pub detail: Value,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the workload and warms it up; returns it with the host seconds
/// that took.
fn set_up<W: Workload>(opts: &Options) -> Result<(W, f64)> {
    let t0 = wall_now();
    let mut w = W::build(opts.seed, opts.size, Tracer::new(false))?;
    let mut scratch = Recorder::default();
    for round in 0..w.warmup_rounds(opts.size) {
        w.generate(round);
        w.round(round, &mut scratch)?;
    }
    if scratch.failed > 0 {
        return Err(Error::internal(format!(
            "warm-up failed: {}",
            scratch.failures.join("; ")
        )));
    }
    Ok((w, t0.elapsed().as_secs_f64()))
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

/// When a region of rounds ends.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// After this many rounds (rounded up to whole blocks).
    Rounds(u32),
    /// At the first block boundary after this many host seconds.
    Seconds(f64),
}

/// Which blocks of a region record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracing {
    Off,
    On,
    /// Every [`PLAIN_BLOCK_EVERY`]th block off, the rest on.
    Alternate,
}

/// Host-side record of one region of rounds.
#[derive(Debug, Default)]
struct Region {
    plain_blocks: Vec<Block>,
    traced_blocks: Vec<Block>,
    gen_ns: u64,
    loop_ns: u64,
    rounds: u64,
}

/// Runs rounds of `w` until `until`, generating each round's inputs
/// outside its timed span. An error from a round counts as one failed
/// operation and ends the region; the run still reports its result.
fn region<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    first_round: u32,
    until: Until,
    tracing: Tracing,
) -> Region {
    let mut out = Region::default();
    let period = w.period();
    let start = wall_now();
    let mut block = 0u64;
    'blocks: loop {
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::On => true,
            Tracing::Alternate => block % PLAIN_BLOCK_EVERY != PLAIN_BLOCK_EVERY - 1,
        };
        w.sut().tracer.set_enabled(traced);
        let mut block_ns = 0u64;
        for i in 0..period {
            let round = first_round + (block as u32) * period + i;
            w.sut().tracer.set_round(round);
            let g0 = wall_now();
            let tok = w.sut().begin("bench.gen", "bench");
            w.generate(round);
            w.sut().end(tok);
            out.gen_ns += g0.elapsed().as_nanos() as u64;

            let t0 = wall_now();
            let tok = w.sut().begin("bench.round", "bench");
            let done = w.round(round, rec);
            w.sut().flush_aggs();
            w.sut().end(tok);
            block_ns += t0.elapsed().as_nanos() as u64;
            if let Err(e) = done {
                rec.attempt(false, || format!("round {round}: {e}"));
                break 'blocks;
            }
        }
        let done = Block {
            work: f64::from(period),
            host_ns: block_ns,
        };
        if traced {
            out.traced_blocks.push(done);
        } else {
            out.plain_blocks.push(done);
        }
        block += 1;
        let finished = match until {
            Until::Rounds(n) => block >= u64::from(n.div_ceil(period)),
            Until::Seconds(s) => start.elapsed().as_secs_f64() >= s,
        };
        if finished {
            break;
        }
    }
    out.loop_ns = start.elapsed().as_nanos() as u64;
    out.rounds = block * u64::from(period);
    out
}

/// Runs workload `W` as `opts` says.
///
/// A run has two phases, each on a freshly set-up host. The *fixed-work*
/// phase runs a fixed number of rounds and then the recovery drill:
/// every virtual-time metric and every count comes from it, so for one
/// seed they repeat exactly whatever the machine's speed. The
/// *fixed-time* phase runs rounds for `--seconds` host seconds: the
/// host-time throughput comes from it.
pub fn run<W: Workload>(opts: &Options) -> Result<Outcome> {
    // `setup_s` is an end-to-end metric only; a traced run sets up just
    // the two hosts it uses.
    let reps = if opts.trace { 2 } else { SETUP_REPS };
    let mut host = HostSide::default();
    let mut rec = Recorder {
        corrupt_digest: opts.corrupt_digest,
        ..Recorder::default()
    };

    // --- Fixed work, then the recovery drill. -------------------------
    let (mut w, secs) = set_up::<W>(opts)?;
    host.setup_s.push(secs);
    let first_round = w.warmup_rounds(opts.size);
    let rounds = w.fixed_rounds(opts.size);
    w.sut().tracer = Tracer::new(opts.trace);
    let before = w.sut().counters();
    let tracing = if opts.trace {
        Tracing::On
    } else {
        Tracing::Off
    };
    let fixed_start = wall_now();
    let fixed = region(
        &mut w,
        &mut rec,
        first_round,
        Until::Rounds(rounds),
        tracing,
    );
    let layer_counters = w.sut().counters().since(&before);
    let gauges = w.sut().gauges();
    let (metadata_bytes, pages_hashed, pages_prefetched) = (
        w.sut().metadata_bytes,
        w.sut().pages_hashed,
        w.sut().pages_prefetched,
    );

    w.sut().tracer.set_enabled(opts.trace);
    w.sut().tracer.set_round(DRILL_ROUND);
    let drill_start = wall_now();
    if let Err(e) = w.drill(&mut rec, before.dev_bytes_written) {
        rec.attempt(false, || format!("recovery drill: {e}"));
    }
    let drill_s = drill_start.elapsed().as_secs_f64();
    host.wall_s = fixed_start.elapsed().as_secs_f64();
    let split_violations = w.sut().tracer.split_violations().len() as u64;
    let span_violations = w.sut().span_violations + split_violations;
    rec.attempt(span_violations == 0, || {
        format!("{span_violations} spans whose children do not sum to the parent")
    });
    let tracer = std::mem::replace(&mut w.sut().tracer, Tracer::new(false));
    // Peak memory is read here, after fixed work, so that it does not
    // depend on how far the fixed-time phase gets.
    host.peak_rss_mb = peak_rss_mb();
    drop(w);

    // --- Fixed time, on a fresh host. ---------------------------------
    let (mut w, secs) = set_up::<W>(opts)?;
    host.setup_s.push(secs);
    for _ in 2..reps {
        drop(w);
        let (again, secs) = set_up::<W>(opts)?;
        host.setup_s.push(secs);
        w = again;
    }
    // Its samples are not kept (they would depend on the machine's
    // speed); its operations are counted and checked like any other.
    let fixed_attempted = rec.attempted;
    let mut timed_rec = Recorder::default();
    w.sut().tracer = Tracer::new(opts.trace);
    let tracing = if opts.trace {
        Tracing::Alternate
    } else {
        Tracing::Off
    };
    let timed = region(
        &mut w,
        &mut timed_rec,
        first_round,
        Until::Seconds(opts.seconds),
        tracing,
    );
    drop(w);
    rec.attempted += timed_rec.attempted;
    rec.failed += timed_rec.failed;
    rec.failures.append(&mut timed_rec.failures);
    host.gen_ns = fixed.gen_ns + timed.gen_ns;
    host.loop_ns = fixed.loop_ns + timed.loop_ns;
    host.rounds = fixed.rounds;
    host.timed_rounds = timed.rounds;
    host.plain_blocks = timed.plain_blocks;
    host.traced_blocks = timed.traced_blocks;

    let (defs, values): (&'static [Def], Vec<(&'static str, f64)>) = if opts.trace {
        let probes = probe(opts.size)?;
        let inp = LayerInputs {
            counters: &layer_counters,
            gauges: &gauges,
            tracer: &tracer,
            metadata_bytes,
            pages_hashed,
            pages_prefetched,
            span_violations,
            probes: &probes,
        };
        (&PER_LAYER, metrics::per_layer(&rec, &host, &inp))
    } else {
        (&END_TO_END, metrics::end_to_end(&rec, &host))
    };
    let values = values.into_iter().map(|(_, v)| v).collect();

    if let Some(path) = &opts.trace_out {
        let file =
            std::fs::File::create(path).map_err(|e| Error::internal(format!("{path}: {e}")))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .write_jsonl(W::NAME, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| Error::internal(format!("{path}: {e}")))?;
    }

    let blocks = if opts.trace {
        &host.traced_blocks
    } else {
        &host.plain_blocks
    };
    let (q1, med, q3) = metrics::segment_quartiles(blocks);
    // A p99 of fewer than 1000 samples is its largest few values, so it
    // is printed as null.
    let pct = |samples: &[u64], p: f64| {
        if p > 90.0 && samples.len() < 1000 {
            return Value::Null;
        }
        num(stats::percentile(&stats::sorted(samples), p).map_or(0.0, |ns| ns as f64 / 1e3))
    };
    let detail = Value::Obj(vec![
        ("workload".into(), Value::Str(W::NAME.into())),
        ("seed".into(), num(opts.seed as f64)),
        ("traced".into(), Value::Bool(opts.trace)),
        ("fixed_rounds".into(), num(host.rounds as f64)),
        ("timed_rounds".into(), num(host.timed_rounds as f64)),
        ("fixed_attempted".into(), num(fixed_attempted as f64)),
        ("rounds_s".into(), num(host.loop_ns as f64 / 1e9)),
        ("drill_s".into(), num(drill_s)),
        ("gen_s".into(), num(host.gen_ns as f64 / 1e9)),
        ("stop_samples".into(), num(rec.stop_ns.len() as f64)),
        ("stop_us_p50".into(), pct(&rec.stop_ns, 50.0)),
        ("stop_us_p90".into(), pct(&rec.stop_ns, 90.0)),
        ("stop_us_p99".into(), pct(&rec.stop_ns, 99.0)),
        ("durable_samples".into(), num(rec.durable_ns.len() as f64)),
        ("durable_us_p50".into(), pct(&rec.durable_ns, 50.0)),
        ("durable_us_p90".into(), pct(&rec.durable_ns, 90.0)),
        ("durable_us_p99".into(), pct(&rec.durable_ns, 99.0)),
        ("restore_samples".into(), num(rec.restore_ns.len() as f64)),
        ("restore_us_p50".into(), pct(&rec.restore_ns, 50.0)),
        ("restore_us_p90".into(), pct(&rec.restore_ns, 90.0)),
        ("restore_us_p99".into(), pct(&rec.restore_ns, 99.0)),
        ("wall_rounds_per_s_q1".into(), num(q1)),
        ("wall_rounds_per_s_median".into(), num(med)),
        ("wall_rounds_per_s_q3".into(), num(q3)),
        (
            "wall_segments".into(),
            num(stats::segment_rates(blocks, 9).len() as f64),
        ),
        (
            "setup_s_all".into(),
            Value::Arr(host.setup_s.iter().copied().map(num).collect()),
        ),
    ]);

    Ok(Outcome {
        workload: W::NAME,
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        defs,
        values,
        detail,
        failures: rec.failures,
    })
}

fn probe(size: Size) -> Result<Probes> {
    let pages = match size {
        Size::Full => 2048,
        Size::Smoke => 128,
    };
    let bodies: Vec<Vec<u8>> = (0..pages)
        .map(|i| {
            let mut b = vec![0u8; PAGE];
            page_body(i + 1, &mut b);
            b
        })
        .collect();
    run_probes(&bodies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Sut;

    /// A workload whose second round and whose drill return errors.
    struct Failing {
        sut: Sut,
    }

    impl Workload for Failing {
        const NAME: &'static str = "failing";

        fn build(_seed: u64, _size: Size, tracer: Tracer) -> Result<Failing> {
            Ok(Failing {
                sut: Sut::boot(false, tracer)?,
            })
        }

        fn sut(&mut self) -> &mut Sut {
            &mut self.sut
        }

        fn warmup_rounds(&self, _size: Size) -> u32 {
            0
        }

        fn fixed_rounds(&self, _size: Size) -> u32 {
            4
        }

        fn generate(&mut self, _round: u32) {}

        fn round(&mut self, round: u32, rec: &mut Recorder) -> Result<()> {
            if round == 1 {
                return Err(Error::internal("device gone"));
            }
            rec.attempt(true, String::new);
            Ok(())
        }

        fn drill(&mut self, _rec: &mut Recorder, _written_at_start: u64) -> Result<()> {
            Err(Error::internal("nothing to restore"))
        }
    }

    /// An error inside a round or the drill is a failed operation: the
    /// run still ends with a result, and the result says it is wrong.
    #[test]
    fn an_error_is_counted_and_the_run_still_reports() {
        let opts = Options {
            seed: 42,
            seconds: 0.01,
            trace: false,
            trace_out: None,
            size: Size::Smoke,
            corrupt_digest: false,
        };
        let o = run::<Failing>(&opts).expect("the run itself is carried out");
        assert!(!o.correct);
        // Fixed work: round 0, the failed round 1, the failed drill, the
        // span check. Fixed time: round 0 and the failed round 1.
        assert_eq!((o.attempted, o.failed), (6, 3), "{:?}", o.failures);
        assert!(o.failures.iter().any(|f| f.contains("device gone")));
        assert!(o.failures.iter().any(|f| f.contains("nothing to restore")));
    }
}
