//! `lln-perfbench`: one command that measures the simulator end to end
//! (host speed and simulated-network quality) and, with `--trace 1`,
//! layer by layer. See `perfbench/NOTES.md` for the workloads and the
//! metric map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk_1hop --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod layers;
mod probe;
mod workload;

use std::time::Instant as Wall;
use workload::{Observed, SimMetrics, Workload, DEFAULT_SEED, HELD_OUT_SEED};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest untraced repetitions of a workload in one run, whatever
/// `--seconds` says: the medians need at least this many.
const MIN_REPS: usize = 3;

/// Wall seconds the reference loop of [`slowdown`] takes on the host
/// the benchmark was built on (a 2-core shared x86-64 container).
const REFERENCE_NOMINAL_S: f64 = 0.04;

/// How much slower than the build host this host is right now: the
/// wall time of a fixed piece of work that only the benchmark owns,
/// ordered-map churn with small allocations like the simulator's own
/// mix, over its nominal time. The host's speed drifts by up to 20%
/// over minutes, and this loop's time tracks that drift to within a few
/// percent, so host times are divided by it, measured right before.
pub fn slowdown() -> f64 {
    let t = Wall::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for j in 0..200_000u64 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![j as u8; (x % 64) as usize]);
        if j % 3 == 0 {
            map.remove(&((x >> 20) % 4096));
        }
    }
    std::hint::black_box(&map);
    t.elapsed().as_secs_f64() / REFERENCE_NOMINAL_S
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: lln-perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})] \
         [--seconds S (default 30)] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One untraced repetition: set-up and warm-up, then the measured
/// interval with the allocation counters running.
pub struct Rep {
    pub setup_s: f64,
    pub measure_s: f64,
    pub allocs: u64,
    pub heap_peak: u64,
    pub obs: Observed,
    pub checks: Vec<(&'static str, bool)>,
}

impl Rep {
    /// Everything about a repetition that must repeat exactly.
    fn same_as(&self, o: &Rep) -> bool {
        self.obs == o.obs && self.allocs == o.allocs && self.heap_peak == o.heap_peak
    }
}

pub fn run_rep(w: Workload, seed: u64) -> Rep {
    // Heap is counted from here, so what earlier repetitions left live
    // does not show.
    let live0 = alloc::live();
    let t0 = Wall::now();
    let mut sc = w.build(seed, false);
    sc.warm_up();
    let start = sc.begin_measure();
    let setup_s = t0.elapsed().as_secs_f64();
    alloc::reset_peak();
    let a0 = alloc::calls();
    let t1 = Wall::now();
    sc.run_measured();
    let measure_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::calls() - a0;
    let heap_peak = alloc::peak() - live0;
    let obs = sc.observe(&start);
    let checks = sc.checks(&obs);
    Rep {
        setup_s,
        measure_s,
        allocs,
        heap_peak,
        obs,
        checks,
    }
}

/// The world seed of interval `k` of a run with seed `seed`.
pub fn interval_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// A run's untraced repetitions: first one per interval seed, whose
/// observations are pooled; then more, cycling through the interval
/// seeds, until `seconds` have passed. A repeated interval must
/// reproduce its first run exactly.
struct Reps {
    first: Vec<Rep>,
    setup_s: Vec<f64>,
    measure_s: Vec<f64>,
    /// [`slowdown`] right before each repetition.
    slowdown: Vec<f64>,
    checks: Vec<(&'static str, bool)>,
}

fn run_reps(w: Workload, seeds: &[u64], seconds: f64) -> Reps {
    let t0 = Wall::now();
    let mut r = Reps {
        first: Vec::new(),
        setup_s: Vec::new(),
        measure_s: Vec::new(),
        slowdown: Vec::new(),
        checks: Vec::new(),
    };
    let mut i = 0;
    while i < seeds.len().max(MIN_REPS) || t0.elapsed().as_secs_f64() < seconds {
        let k = i % seeds.len();
        r.slowdown.push(slowdown());
        let rep = run_rep(w, seeds[k]);
        r.setup_s.push(rep.setup_s);
        r.measure_s.push(rep.measure_s);
        r.checks.extend(rep.checks.iter().copied());
        if i < seeds.len() {
            r.first.push(rep);
        } else {
            r.checks.push((
                "repetition reproduces its interval exactly",
                rep.same_as(&r.first[k]),
            ));
        }
        i += 1;
    }
    r
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Paper reference, printed beside the value; informational.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Relative error of `value` against a paper figure, as text.
fn vs_paper(value: f64, paper: f64, what: &str) -> String {
    format!(
        "paper {what}: {paper}; rel. error {:+.1}%",
        (value / paper - 1.0) * 100.0
    )
}

/// The end-to-end metrics of a run's untraced repetitions.
fn end_to_end(w: Workload, reps: &Reps) -> Vec<Metric> {
    let secs = w.measured().as_secs_f64();
    let obs: Vec<&Observed> = reps.first.iter().map(|r| &r.obs).collect();
    let s = SimMetrics::pool(w == Workload::AnemometerTree, &obs, secs);
    let allocs: u64 = reps.first.iter().map(|r| r.allocs).sum();
    let segs: u64 = reps.first.iter().map(|r| r.obs.counts.data_segs()).sum();
    let heap_peak = reps.first.iter().map(|r| r.heap_peak).max().unwrap_or(0);
    let chain = (
        "sender's transmit share; routers never sleep".to_string(),
        "data segments accepted / sent".to_string(),
    );
    let (goodput_note, (radio_note, reliability_note)) = match w {
        Workload::Bulk1Hop => {
            let g = s.goodput_kbps;
            let inside = if (63.0..=75.0).contains(&g) {
                "inside"
            } else {
                "outside"
            };
            let ceiling = vs_paper(g, 82.0, "§6.4 ceiling kb/s");
            (
                format!("paper §6.3: 63-75 kb/s ({inside}); {ceiling}"),
                chain,
            )
        }
        Workload::Lossy3Hop => {
            let at3 = vs_paper(s.goodput_kbps, 19.5, "§7.2 3-hop kb/s, no injected loss");
            (
                format!("unvalidated: no paper counterpart with 5% relay loss ({at3})"),
                chain,
            )
        }
        Workload::AnemometerTree => (
            "readings at the cloud; no paper figure".to_string(),
            (
                vs_paper(s.radio_dc_pct, 2.29, "Table 8 TCPlp duty cycle %"),
                format!(
                    "{} of {} readings; {}",
                    s.readings_delivered,
                    s.readings_generated,
                    vs_paper(s.reliability * 100.0, 99.3, "Table 8 TCPlp reliability %")
                ),
            ),
        ),
    };
    let rtt_note = format!("{} samples", s.rtt_samples);
    // Host time as the build host would have measured it (see
    // `slowdown`); the unscaled medians are printed beside it.
    let rates: Vec<f64> = reps.measure_s.iter().map(|m| secs / m).collect();
    let k = &reps.slowdown;
    let scaled_rate = median(rates.iter().zip(k).map(|(r, k)| r * k).collect());
    let scaled_setup = median(reps.setup_s.iter().zip(k).map(|(s, k)| s / k).collect());
    let unscaled = |v: f64| {
        format!(
            "{v:.6} unscaled; reference loop at {:.3}x its nominal time",
            median(k.clone())
        )
    };
    vec![
        Metric::new("setup_s", scaled_setup, "s").noted(unscaled(median(reps.setup_s.clone()))),
        Metric::new("sim_s_per_wall_s", scaled_rate, "sim-s/s")
            .noted(unscaled(median(rates.clone()))),
        Metric::new(
            "allocs_per_seg",
            allocs as f64 / segs.max(1) as f64,
            "count",
        ),
        Metric::new("heap_peak_kib", heap_peak as f64 / 1024.0, "KiB"),
        Metric::new("goodput_kbps", s.goodput_kbps, "kb/s").noted(goodput_note),
        Metric::new("rtt_ms.p50", s.rtt_p50_ms, "ms").noted(rtt_note.clone()),
        Metric::new("rtt_ms.p99", s.rtt_p99_ms, "ms").noted(rtt_note),
        Metric::new("rexmit_frac", s.rexmit_frac, "fraction"),
        Metric::new("radio_dc_pct", s.radio_dc_pct, "%").noted(radio_note),
        Metric::new("cpu_dc_pct", s.cpu_dc_pct, "%"),
        Metric::new("reliability", s.reliability, "fraction").noted(reliability_note),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn report(w: Workload, seed: u64, metrics: &[Metric], checks: &[(&'static str, bool)]) {
    println!("workload {} seed {seed}", w.name());
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!("  {:<28} {:>16.6} {:<9}{note}", m.name, m.value, m.unit);
    }
    let failed: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
    println!(
        "  checks: {} attempted, {} failed {:?}",
        checks.len(),
        failed.len(),
        failed
    );
    let body: Vec<String> = metrics
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
        failed.is_empty() && metrics.iter().all(|m| m.value.is_finite()),
        checks.len(),
        failed.len(),
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = args.workload;
    if args.trace {
        // The traced run steps the first interval; half the time buys
        // its untraced reference, the traced run and probes about as
        // much again.
        let seed = interval_seed(args.seed, 0);
        let mut reps = run_reps(w, &[seed], args.seconds / 2.0);
        let untraced_s = median(
            (reps.measure_s.iter().zip(&reps.slowdown))
                .map(|(m, k)| m / k)
                .collect(),
        );
        let metrics = layers::per_layer(w, seed, &reps.first[0], untraced_s, &mut reps.checks);
        report(w, args.seed, &metrics, &reps.checks);
    } else {
        let seeds: Vec<u64> = (0..w.intervals())
            .map(|k| interval_seed(args.seed, k))
            .collect();
        let reps = run_reps(w, &seeds, args.seconds);
        report(w, args.seed, &end_to_end(w, &reps), &reps.checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, so that no other test thread allocates while the
    /// counting allocator measures. Run it with `--release`.
    #[test]
    fn fixed_seed_repeats_every_count_and_passes_its_checks() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let a = run_rep(w, interval_seed(seed, 0));
                let failed: Vec<_> = a.checks.iter().filter(|c| !c.1).collect();
                assert!(failed.is_empty(), "{} seed {seed}: {failed:?}", w.name());
                if seed == DEFAULT_SEED {
                    let b = run_rep(w, interval_seed(seed, 0));
                    assert!(a.same_as(&b), "{} does not repeat", w.name());
                }
            }
        }
    }
}
