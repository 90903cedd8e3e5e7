//! Record collection in the shared medium, checked against a reference.
//!
//! `Medium` forgets a finished transmission as soon as nothing live or
//! future can overlap it. The reference medium below keeps every record
//! forever, so it is correct by construction. Seeded random schedules
//! over chain and star link matrices mix overlapping frame- and
//! ACK-length transmissions, begins whose start lies a turnaround ahead
//! and long interferer-style bursts. Both media must agree on every
//! clear-channel assessment, every per-receiver outcome, every counter
//! and the PRR random stream left behind; and the real medium must never
//! hold more than the live records plus the finished records that
//! overlap a live one.
//!
//! Override the seeds with `MEDIUM_GC_SEED=<n>` to explore further.

use lln_phy::{LinkMatrix, Medium, RadioIdx, TxHandle};
use lln_sim::{Duration, Instant, Rng};

/// One transmission, as the reference medium tracks it.
#[derive(Clone, Copy, Debug)]
struct Rec {
    src: RadioIdx,
    start: Instant,
    end: Instant,
    done: bool,
}

/// The medium's semantics with no record collection at all.
struct Reference {
    links: LinkMatrix,
    recs: Vec<Rec>,
    rng: Rng,
    collisions: u64,
    deliveries: u64,
    prr_drops: u64,
}

impl Reference {
    fn new(links: LinkMatrix, rng: Rng) -> Self {
        Reference {
            links,
            recs: Vec::new(),
            rng,
            collisions: 0,
            deliveries: 0,
            prr_drops: 0,
        }
    }

    fn hears(&self, src: RadioIdx, rx: RadioIdx) -> bool {
        src == rx || self.links.audible(src, rx)
    }

    fn cca_busy(&self, node: RadioIdx, now: Instant) -> bool {
        self.recs
            .iter()
            .any(|r| !r.done && r.start <= now && now < r.end && self.hears(r.src, node))
    }

    fn begin_tx(&mut self, src: RadioIdx, start: Instant, end: Instant) -> usize {
        self.recs.push(Rec {
            src,
            start,
            end,
            done: false,
        });
        self.recs.len() - 1
    }

    fn end_tx(&mut self, id: usize, listeners: &[RadioIdx]) -> Vec<(RadioIdx, bool)> {
        let rec = self.recs[id];
        let mut out = Vec::new();
        for &rx in listeners {
            if rx == rec.src {
                continue;
            }
            let prr = self.links.prr(rec.src, rx);
            if prr <= 0.0 {
                if self.links.audible(rec.src, rx) {
                    out.push((rx, false));
                }
                continue;
            }
            let collided = self.recs.iter().enumerate().any(|(j, o)| {
                j != id && o.start < rec.end && rec.start < o.end && self.hears(o.src, rx)
            });
            if collided {
                self.collisions += 1;
                out.push((rx, false));
            } else if self.rng.gen_bool(prr) {
                self.deliveries += 1;
                out.push((rx, true));
            } else {
                self.prr_drops += 1;
                out.push((rx, false));
            }
        }
        self.recs[id].done = true;
        out
    }

    /// Live records plus the finished ones that overlap a live one:
    /// the most the collecting medium may hold.
    fn needed(&self) -> usize {
        let live: Vec<&Rec> = self.recs.iter().filter(|r| !r.done).collect();
        let overlapping = self
            .recs
            .iter()
            .filter(|f| f.done && live.iter().any(|l| f.start < l.end && l.start < f.end))
            .count();
        live.len() + overlapping
    }
}

/// One step of a test schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// `end_tx` of transmission `i` (ordered first: at equal times the
    /// world finishes a frame before anything new starts).
    End(usize),
    /// Clear-channel assessment at a radio.
    Cca(usize),
    /// `begin_tx` of transmission `i`.
    Begin(usize),
}

/// A planned transmission: `begin_tx` runs at `call`, the frame is on
/// the air over `[start, end)`.
struct Plan {
    src: usize,
    call: Instant,
    start: Instant,
    end: Instant,
}

/// 127 B frame, 5 B ACK and a few tens of ms of interferer noise, on
/// the 802.15.4 2.4 GHz PHY (32 µs per byte, 6 bytes of PHY framing).
const FRAME: Duration = Duration::from_micros(32 * (127 + 6));
const ACK: Duration = Duration::from_micros(32 * (5 + 6));
const TURNAROUND: Duration = Duration::from_micros(192);

fn plan_schedule(rng: &mut Rng, radios: usize, count: usize, span_us: u64) -> Vec<Plan> {
    (0..count)
        .map(|_| {
            let src = rng.gen_range(radios as u64) as usize;
            let call = Instant::from_micros(rng.gen_range(span_us));
            let start = if rng.gen_bool(0.5) {
                call + TURNAROUND
            } else {
                call
            };
            let air = match rng.gen_range(10) {
                0..=5 => FRAME,
                6..=8 => ACK,
                _ => Duration::from_millis(10 + rng.gen_range(40)),
            };
            Plan {
                src,
                call,
                start,
                end: start + air,
            }
        })
        .collect()
}

/// Runs one random schedule through both media and checks they agree.
fn check_schedule(links: &LinkMatrix, seed: u64) {
    let radios = links.len();
    let mut gen = Rng::new(seed);
    let plans = plan_schedule(&mut gen, radios, 400, 600_000);
    let mut ops: Vec<(Instant, Op)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        ops.push((p.call, Op::Begin(i)));
        ops.push((p.end, Op::End(i)));
    }
    for _ in 0..400 {
        let at = Instant::from_micros(gen.gen_range(650_000));
        ops.push((at, Op::Cca(gen.gen_range(radios as u64) as usize)));
    }
    ops.sort();

    let medium_seed = seed ^ 0x5eed;
    let mut real = Medium::new(links.clone(), Rng::new(medium_seed));
    let mut reference = Reference::new(links.clone(), Rng::new(medium_seed));
    let mut handles: Vec<Option<(TxHandle, usize)>> = plans.iter().map(|_| None).collect();
    let mut peak = 0;
    for &(now, op) in &ops {
        match op {
            Op::Begin(i) => {
                let p = &plans[i];
                let h = real.begin_tx(RadioIdx(p.src), p.start, p.end);
                let r = reference.begin_tx(RadioIdx(p.src), p.start, p.end);
                handles[i] = Some((h, r));
            }
            Op::End(i) => {
                let (h, r) = handles[i].take().expect("begun before it ends");
                let listeners: Vec<RadioIdx> = (0..radios)
                    .filter(|_| gen.gen_bool(0.8))
                    .map(RadioIdx)
                    .collect();
                let got = real.end_tx(h, &listeners);
                let want = reference.end_tx(r, &listeners);
                assert_eq!(got, want, "seed {seed}: outcomes of tx {i} at {now}");
            }
            Op::Cca(node) => {
                assert_eq!(
                    real.cca_busy(RadioIdx(node), now),
                    reference.cca_busy(RadioIdx(node), now),
                    "seed {seed}: CCA at radio {node}, {now}"
                );
            }
        }
        let needed = reference.needed();
        assert!(
            real.active_records() <= needed,
            "seed {seed}: {} records held after {op:?} at {now}, only {needed} can matter",
            real.active_records()
        );
        peak = peak.max(real.active_records());
    }
    assert!(peak > 1, "seed {seed}: the schedule never overlapped");
    for (name, want) in [
        ("frames_tx", plans.len() as u64),
        ("collisions", reference.collisions),
        ("deliveries", reference.deliveries),
        ("prr_drops", reference.prr_drops),
    ] {
        assert_eq!(real.counters.get(name), want, "seed {seed}: counter {name}");
    }
    assert!(
        reference.collisions > 0 && reference.deliveries > 0 && reference.prr_drops > 0,
        "seed {seed}: collisions, deliveries and PRR drops must all occur"
    );

    // Both PRR streams must be at the same point: probe each medium's
    // next 64 draws with isolated frames over a coin-flip link.
    let last = ops.last().map_or(Instant::ZERO, |&(t, _)| t);
    let probe_links = LinkMatrix::chain(2, 0.5);
    *real.links_mut() = probe_links.clone();
    reference.links = probe_links;
    for k in 0..64u64 {
        let start = last + Duration::from_millis(100 * (k + 1));
        let end = start + FRAME;
        let h = real.begin_tx(RadioIdx(0), start, end);
        let r = reference.begin_tx(RadioIdx(0), start, end);
        assert_eq!(
            real.end_tx(h, &[RadioIdx(1)]),
            reference.end_tx(r, &[RadioIdx(1)]),
            "seed {seed}: PRR draw {k} after the schedule"
        );
    }
    assert!(real.active_records() <= 1);
}

fn seeds() -> Vec<u64> {
    match std::env::var("MEDIUM_GC_SEED") {
        Ok(s) => vec![s.parse().expect("MEDIUM_GC_SEED must be a number")],
        Err(_) => vec![1, 2, 3, 0x1cad_beef, 20_200_225],
    }
}

/// A chain whose links range from perfect to lossy, with two-hop
/// carrier sense on part of it: hidden terminals and PRR draws both.
fn chain() -> LinkMatrix {
    let mut m = LinkMatrix::chain(6, 0.9);
    m.set_symmetric(RadioIdx(2), RadioIdx(3), 1.0);
    m.set_symmetric(RadioIdx(4), RadioIdx(5), 0.6);
    m.set_interference(RadioIdx(0), RadioIdx(2));
    m.set_interference(RadioIdx(2), RadioIdx(0));
    m
}

/// A hub with five leaves hidden from one another, plus a radio that is
/// only ever heard as interference.
fn star() -> LinkMatrix {
    let mut m = LinkMatrix::new(7);
    for leaf in 1..6 {
        let prr = [1.0, 0.95, 0.8, 0.7, 0.5][leaf - 1];
        m.set_symmetric(RadioIdx(0), RadioIdx(leaf), prr);
    }
    m.set_interference(RadioIdx(6), RadioIdx(0));
    m.set_interference(RadioIdx(6), RadioIdx(3));
    m
}

#[test]
fn chain_matches_a_medium_that_never_collects() {
    for seed in seeds() {
        check_schedule(&chain(), seed);
    }
}

#[test]
fn star_matches_a_medium_that_never_collects() {
    for seed in seeds() {
        check_schedule(&star(), seed);
    }
}
