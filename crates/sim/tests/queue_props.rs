//! Property tests for the timer-wheel [`EventQueue`]: random
//! schedule/cancel/pop interleavings, driven by a seeded [`Rng`], must
//! produce pop sequences identical to a plain reference model
//! ([`ModelQueue`]), and generation-tagged tokens must never cancel
//! across slot reuse.

use std::collections::BTreeMap;

use lln_sim::{Duration, EventQueue, EventToken, Instant, Rng};

/// The queue's ordering contract stated directly: events keyed by
/// `(time, insertion sequence)` in an ordered map, scheduling clamped
/// to the time of the last pop, cancellation by key removal.
struct ModelQueue<E> {
    events: BTreeMap<(Instant, u64), E>,
    seq: u64,
    now: Instant,
}

/// A [`ModelQueue`] event's key, usable for cancellation.
type ModelToken = (Instant, u64);

impl<E> ModelQueue<E> {
    fn new() -> Self {
        ModelQueue {
            events: BTreeMap::new(),
            seq: 0,
            now: Instant::ZERO,
        }
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn schedule(&mut self, at: Instant, event: E) -> ModelToken {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        self.events.insert(key, event);
        key
    }

    fn cancel(&mut self, token: ModelToken) -> bool {
        self.events.remove(&token).is_some()
    }

    fn pop(&mut self) -> Option<(Instant, E)> {
        let ((time, _), event) = self.events.pop_first()?;
        self.now = time;
        Some((time, event))
    }

    fn peek_time(&self) -> Option<Instant> {
        self.events.keys().next().map(|&(time, _)| time)
    }
}

/// One randomized interleaving: schedule (with a mix of near, far, and
/// past times), cancel a random live token, or pop — mirrored on both
/// queues — then drain. Every pop must agree on `(time, payload)`.
fn run_interleaving(seed: u64, ops: usize, horizon_us: u64) {
    let mut rng = Rng::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut model: ModelQueue<u64> = ModelQueue::new();
    let mut live: Vec<(EventToken, ModelToken)> = Vec::new();
    let mut next_payload = 0u64;

    let mut pops = 0usize;
    for _ in 0..ops {
        match rng.gen_range(10) {
            // 0..=5: schedule
            0..=5 => {
                let offset = rng.gen_range(horizon_us);
                let at = wheel.now() + Duration::from_micros(offset);
                let payload = next_payload;
                next_payload += 1;
                let tw = wheel.schedule(at, payload);
                let tb = model.schedule(at, payload);
                live.push((tw, tb));
            }
            // 6..=7: cancel a random outstanding token pair
            6..=7 => {
                if !live.is_empty() {
                    let i = rng.gen_range(live.len() as u64) as usize;
                    let (tw, tb) = live.swap_remove(i);
                    // Both must agree on whether the event was still
                    // pending (it may have been popped already).
                    assert_eq!(wheel.cancel(tw), model.cancel(tb), "cancel disagreement");
                }
            }
            // 8..=9: pop
            _ => {
                let a = wheel.pop();
                let b = model.pop();
                assert_eq!(a, b, "pop #{pops} diverged from reference model");
                pops += 1;
            }
        }
        assert_eq!(wheel.len(), model.len(), "len diverged");
        assert_eq!(
            wheel.peek_time(),
            model.peek_time(),
            "peek_time diverged after {pops} pops"
        );
    }
    // Drain both completely.
    loop {
        let a = wheel.pop();
        let b = model.pop();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty() && model.is_empty());
}

#[test]
fn interleavings_match_reference_model_near_horizon() {
    // All times inside the wheel horizon (~262 ms): exercises bucket
    // routing and the current-run heap.
    for seed in [1, 42, 24001, 77003] {
        run_interleaving(seed, 4_000, 250_000);
    }
}

#[test]
fn interleavings_match_reference_model_far_horizon() {
    // Times up to 10 s: most events route through the overflow heap
    // and re-enter the wheel as the cursor advances.
    for seed in [7, 99, 52001, 90017] {
        run_interleaving(seed, 4_000, 10_000_000);
    }
}

#[test]
fn interleavings_match_reference_model_mixed_dense() {
    // 1 ms horizon: heavy same-bucket collisions, so the insertion-seq
    // tie-break does all the ordering work.
    for seed in [3, 1234] {
        run_interleaving(seed, 4_000, 1_000);
    }
}

#[test]
fn token_reuse_across_generations_cannot_cancel_newer_event() {
    // Churn the queue hard so slab slots are reused constantly, while
    // holding on to every expired token. No stale token may ever
    // cancel (or otherwise perturb) a later occupant of its slot.
    let mut rng = Rng::new(0xFEED);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut dead_tokens: Vec<EventToken> = Vec::new();
    let mut live_tokens: std::collections::HashMap<u64, EventToken> = Default::default();
    let mut scheduled = 0u64;
    let mut popped = 0u64;
    let mut cancelled = 0u64;
    for round in 0..2_000 {
        let at = q.now() + Duration::from_micros(rng.gen_range(5_000));
        let payload = scheduled;
        let tok = q.schedule(at, payload);
        live_tokens.insert(payload, tok);
        scheduled += 1;
        if round % 3 == 0 {
            // Cancel immediately: the slot is freed and will be reused.
            assert!(q.cancel(tok));
            cancelled += 1;
            live_tokens.remove(&payload);
            dead_tokens.push(tok);
        } else if round % 3 == 1 {
            // Popping kills whichever event was earliest — retire the
            // token that actually fired, not the one just scheduled.
            let (_, v) = q.pop().expect("event pending");
            popped += 1;
            dead_tokens.push(live_tokens.remove(&v).expect("popped event was live"));
        }
        // Replay every stale token: all must be rejected, and the live
        // count must not move.
        let len_before = q.len();
        for &t in &dead_tokens {
            assert!(!q.cancel(t), "stale token cancelled a live event");
        }
        assert_eq!(q.len(), len_before);
    }
    // Whatever is still live must drain intact: nothing was eaten by a
    // stale cancel.
    let mut drained = 0u64;
    while q.pop().is_some() {
        drained += 1;
    }
    assert_eq!(popped + cancelled + drained, scheduled);
}

#[test]
fn wheel_matches_model_under_mac_like_load() {
    // Shape the op mix like the simulator's MAC layer: short timers
    // (CSMA backoffs, ACK waits) that are usually cancelled before
    // firing, over long-lived RTO timers that usually fire.
    let mut rng = Rng::new(8_675_309);
    let mut wheel: EventQueue<(u8, u64)> = EventQueue::new();
    let mut model: ModelQueue<(u8, u64)> = ModelQueue::new();
    let mut ack_waits: Vec<(EventToken, ModelToken)> = Vec::new();
    let mut n = 0u64;
    for _ in 0..3_000 {
        // Backoff/TX-done: fires within ~5 ms.
        let t1 = wheel.now() + Duration::from_micros(rng.gen_range_inclusive(128, 4_999));
        wheel.schedule(t1, (0, n));
        model.schedule(t1, (0, n));
        n += 1;
        // ACK wait: ~864 µs, cancelled 80% of the time (ACK arrived).
        let t2 = wheel.now() + Duration::from_micros(864);
        let pair = (wheel.schedule(t2, (1, n)), model.schedule(t2, (1, n)));
        n += 1;
        if rng.gen_range(10) < 8 {
            assert_eq!(wheel.cancel(pair.0), model.cancel(pair.1));
        } else {
            ack_waits.push(pair);
        }
        // Occasional RTO far beyond the wheel horizon.
        if rng.gen_range(20) == 0 {
            let t3 = wheel.now() + Duration::from_millis(rng.gen_range_inclusive(500, 3_999));
            wheel.schedule(t3, (2, n));
            model.schedule(t3, (2, n));
            n += 1;
        }
        // Advance: pop a couple of events.
        for _ in 0..2 {
            assert_eq!(wheel.pop(), model.pop());
        }
    }
    // Cancel the leftover ACK waits (some already fired).
    for (tw, tb) in ack_waits {
        assert_eq!(wheel.cancel(tw), model.cancel(tb));
    }
    loop {
        let a = wheel.pop();
        assert_eq!(a, model.pop());
        if a.is_none() {
            break;
        }
    }
}
