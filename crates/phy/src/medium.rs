//! The shared radio medium: active-transmission tracking, clear-channel
//! assessment, and collision-aware frame delivery.
//!
//! The driving world calls [`Medium::begin_tx`] when a radio starts
//! emitting and [`Medium::end_tx`] when the frame's air time elapses;
//! `end_tx` reports, per listening radio, whether the frame survived
//! (audibility, overlap-collision, half-duplex and PRR checks). The
//! world is responsible for knowing which radios were actually in
//! receive state (awake, not in CSMA-deaf periods — though, per the
//! paper's fix in §4, our MAC keeps the radio listening between CSMA
//! attempts).
//!
//! # Timing invariant
//!
//! The caller runs [`Medium::end_tx`] at the simulated instant its
//! record ends (the `end` given to `begin_tx`), so in time order, and
//! never begins a transmission whose start lies before the last such
//! instant. The world keeps this on every path, including transmissions
//! cut by a mid-air reboot and interference bursts. It lets the medium
//! forget a finished record once nothing live or future can overlap it
//! (see `gc`), so each call scans only the live transmissions and the
//! finished ones they overlap. Debug builds assert both halves.

use crate::link::LinkMatrix;
use crate::RadioIdx;
use lln_sim::stats::Counters;
use lln_sim::{Instant, Rng};

/// Handle to an in-progress transmission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxHandle(u64);

#[derive(Clone, Debug)]
struct TxRecord {
    id: u64,
    src: RadioIdx,
    start: Instant,
    end: Instant,
    done: bool,
}

/// The shared radio medium.
pub struct Medium {
    links: LinkMatrix,
    records: Vec<TxRecord>,
    /// End of the last completed record: simulated time at the latest
    /// `end_tx`, before which no new transmission may start.
    last_end: Instant,
    next_id: u64,
    rng: Rng,
    /// Frame/collision counters ("frames_tx", "collisions", "prr_drops",
    /// "deliveries") feeding Figure 6(d).
    pub counters: Counters,
}

impl Medium {
    /// Creates a medium over `links`, drawing PRR randomness from `rng`.
    pub fn new(links: LinkMatrix, rng: Rng) -> Self {
        Medium {
            links,
            records: Vec::new(),
            last_end: Instant::ZERO,
            next_id: 0,
            rng,
            counters: Counters::new(),
        }
    }

    /// Number of registered radios.
    pub fn radio_count(&self) -> usize {
        self.links.len()
    }

    /// Access to the connectivity matrix.
    pub fn links(&self) -> &LinkMatrix {
        &self.links
    }

    /// Mutable access (topology changes mid-experiment).
    pub fn links_mut(&mut self) -> &mut LinkMatrix {
        &mut self.links
    }

    /// Clear-channel assessment at `node`: true when busy, i.e. some
    /// transmission audible at `node` is on the air at `now`.
    pub fn cca_busy(&self, node: RadioIdx, now: Instant) -> bool {
        self.records.iter().any(|r| {
            !r.done
                && r.start <= now
                && now < r.end
                && (r.src == node || self.links.audible(r.src, node))
        })
    }

    /// Registers a transmission on the air from `now` (which may lie a
    /// turnaround ahead of simulated time) until `end`.
    pub fn begin_tx(&mut self, src: RadioIdx, now: Instant, end: Instant) -> TxHandle {
        debug_assert!(
            now >= self.last_end,
            "transmission starts at {now}, before the last end_tx at {}",
            self.last_end
        );
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(TxRecord {
            id,
            src,
            start: now,
            end,
            done: false,
        });
        self.counters.inc("frames_tx");
        TxHandle(id)
    }

    /// Completes a transmission and computes per-receiver outcomes.
    ///
    /// For each radio in `listeners` (radios the world says were in
    /// receive state for the whole frame), the result holds `true` if
    /// the frame was received intact:
    /// - the link must be decodable (PRR > 0),
    /// - no other transmission audible at the receiver may overlap the
    ///   frame in time (collision — the hidden-terminal mechanism),
    /// - the receiver must not itself have transmitted during the frame
    ///   (half-duplex),
    /// - an independent Bernoulli(PRR) draw must succeed (fading etc.).
    ///
    /// Must run at the record's end time (see the module's timing
    /// invariant). Allocates the result; the event loop uses
    /// [`Medium::end_tx_into`].
    pub fn end_tx(
        &mut self,
        handle: TxHandle,
        listeners: &[RadioIdx],
    ) -> Vec<(RadioIdx, bool)> {
        let mut out = Vec::with_capacity(listeners.len());
        self.end_tx_into(handle, listeners, &mut out);
        out
    }

    /// [`Medium::end_tx`] writing the outcomes into `out` (cleared
    /// first), so a caller-owned buffer is reused across frames.
    pub fn end_tx_into(
        &mut self,
        handle: TxHandle,
        listeners: &[RadioIdx],
        out: &mut Vec<(RadioIdx, bool)>,
    ) {
        out.clear();
        let rec_idx = self
            .records
            .iter()
            .position(|r| r.id == handle.0)
            .expect("unknown tx handle");
        let rec = self.records[rec_idx].clone();
        debug_assert!(
            rec.end >= self.last_end,
            "end_tx out of time order: record ends at {}, last end_tx at {}",
            rec.end,
            self.last_end
        );
        for &rx in listeners {
            if rx == rec.src {
                continue;
            }
            let prr = self.links.prr(rec.src, rx);
            if prr <= 0.0 {
                // Not decodable at this receiver (possibly interference
                // only); no outcome entry.
                if self.links.audible(rec.src, rx) {
                    out.push((rx, false));
                }
                continue;
            }
            let collided = self.records.iter().any(|o| {
                o.id != rec.id
                    && o.start < rec.end
                    && rec.start < o.end
                    && (o.src == rx || self.links.audible(o.src, rx))
            });
            if collided {
                self.counters.inc("collisions");
                out.push((rx, false));
                continue;
            }
            let ok = self.rng.gen_bool(prr);
            if ok {
                self.counters.inc("deliveries");
            } else {
                self.counters.inc("prr_drops");
            }
            out.push((rx, ok));
        }
        self.records[rec_idx].done = true;
        self.last_end = rec.end;
        self.gc();
    }

    /// Drops finished records that nothing live or future can overlap.
    ///
    /// A finished record matters only to the collision check of a
    /// transmission that overlaps it (clear-channel assessment ignores
    /// finished records). By the timing invariant, a transmission not
    /// yet begun starts at or after `last_end`, and a live one starts at
    /// its own `start`; two records overlap only if each starts before
    /// the other ends. So a finished record is kept only while its `end`
    /// lies after the earlier of `last_end` and the earliest live start.
    fn gc(&mut self) {
        let floor = self
            .records
            .iter()
            .filter(|r| !r.done)
            .map(|r| r.start)
            .fold(self.last_end, Instant::min);
        self.records.retain(|r| !r.done || r.end > floor);
    }

    /// Number of transmission records currently tracked: the live ones
    /// plus the finished ones some live transmission overlaps
    /// (test/telemetry).
    pub fn active_records(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_sim::Duration;

    fn medium_chain3() -> Medium {
        // 0 - 1 - 2 chain: 0 and 2 are hidden from each other.
        Medium::new(LinkMatrix::chain(3, 1.0), Rng::new(7))
    }

    #[test]
    fn clean_delivery_on_idle_channel() {
        let mut m = medium_chain3();
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(4);
        let h = m.begin_tx(RadioIdx(0), t0, t1);
        let out = m.end_tx(h, &[RadioIdx(1), RadioIdx(2)]);
        assert_eq!(out, vec![(RadioIdx(1), true)], "only the neighbour hears");
        assert_eq!(m.counters.get("deliveries"), 1);
    }

    #[test]
    fn hidden_terminal_collision_at_shared_receiver() {
        let mut m = medium_chain3();
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(4);
        // 0 and 2 transmit overlapping frames; both are audible at 1.
        let h0 = m.begin_tx(RadioIdx(0), t0, t1);
        let h2 = m.begin_tx(RadioIdx(2), t0 + Duration::from_millis(1), t1);
        let out0 = m.end_tx(h0, &[RadioIdx(1)]);
        let out2 = m.end_tx(h2, &[RadioIdx(1)]);
        assert_eq!(out0, vec![(RadioIdx(1), false)]);
        assert_eq!(out2, vec![(RadioIdx(1), false)]);
        assert_eq!(m.counters.get("collisions"), 2);
    }

    #[test]
    fn non_overlapping_frames_do_not_collide() {
        let mut m = medium_chain3();
        let h0 = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        let out0 = m.end_tx(h0, &[RadioIdx(1)]);
        let h2 = m.begin_tx(
            RadioIdx(2),
            Instant::from_millis(5),
            Instant::from_millis(9),
        );
        let out2 = m.end_tx(h2, &[RadioIdx(1)]);
        assert_eq!(out0, vec![(RadioIdx(1), true)]);
        assert_eq!(out2, vec![(RadioIdx(1), true)]);
    }

    #[test]
    fn half_duplex_receiver_misses_while_transmitting() {
        let mut m = medium_chain3();
        // 1 transmits while 0 transmits to it.
        let h0 = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        let _h1 = m.begin_tx(RadioIdx(1), Instant::from_millis(1), Instant::from_millis(3));
        let out = m.end_tx(h0, &[RadioIdx(1)]);
        assert_eq!(out, vec![(RadioIdx(1), false)]);
    }

    #[test]
    fn cca_detects_neighbour_not_hidden_node() {
        let mut m = medium_chain3();
        let mid = Instant::from_millis(2);
        let _h = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        assert!(m.cca_busy(RadioIdx(1), mid), "neighbour hears the energy");
        assert!(!m.cca_busy(RadioIdx(2), mid), "hidden node hears nothing");
        assert!(m.cca_busy(RadioIdx(0), mid), "own tx keeps channel busy");
    }

    #[test]
    fn cca_clear_after_tx_ends() {
        let mut m = medium_chain3();
        let h = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        m.end_tx(h, &[]);
        assert!(!m.cca_busy(RadioIdx(1), Instant::from_millis(5)));
    }

    #[test]
    fn lossy_link_drops_some_frames() {
        let mut m = Medium::new(LinkMatrix::chain(2, 0.5), Rng::new(42));
        let mut ok = 0;
        let mut t = Instant::ZERO;
        for _ in 0..1000 {
            let end = t + Duration::from_millis(4);
            let h = m.begin_tx(RadioIdx(0), t, end);
            if m.end_tx(h, &[RadioIdx(1)])[0].1 {
                ok += 1;
            }
            t = end + Duration::from_millis(1);
        }
        assert!((400..600).contains(&ok), "PRR 0.5 delivered {ok}/1000");
    }

    #[test]
    fn interference_only_link_jams_but_never_delivers() {
        let mut m = Medium::new(LinkMatrix::chain_with_two_hop_carrier(3, 1.0), Rng::new(1));
        // Node 2's frame is audible at 0 (carrier) but not decodable.
        let h = m.begin_tx(RadioIdx(2), Instant::ZERO, Instant::from_millis(4));
        let out = m.end_tx(h, &[RadioIdx(0), RadioIdx(1)]);
        assert!(out.contains(&(RadioIdx(0), false)));
        assert!(out.contains(&(RadioIdx(1), true)));
        // And it shows up in node 0's CCA.
        let _h2 = m.begin_tx(RadioIdx(2), Instant::from_millis(10), Instant::from_millis(14));
        assert!(m.cca_busy(RadioIdx(0), Instant::from_millis(12)));
    }

    #[test]
    fn records_garbage_collected() {
        let mut m = medium_chain3();
        for i in 0..100 {
            let t = Instant::from_millis(i * 10);
            let h = m.begin_tx(RadioIdx(0), t, t + Duration::from_millis(4));
            m.end_tx(h, &[RadioIdx(1)]);
        }
        assert_eq!(
            m.active_records(),
            0,
            "a finished record nothing overlaps must be GC'd"
        );
    }
}
