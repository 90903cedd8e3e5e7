//! Application workloads.
//!
//! Three workloads drive the paper's experiments:
//!
//! - **Bulk transfer** (§6-§8): the sender keeps the TCP send buffer
//!   full; goodput is measured at the sink.
//! - **Anemometer telemetry** (§3, §9): an 82-byte reading every
//!   second per node, an application-layer queue (64 readings for TCP,
//!   104 for CoAP — the extra 40 fit in TCP's send buffer), optional
//!   batching (drain only when 64 readings accumulate), and
//!   reliability measured as readings delivered / readings generated.
//! - **Interference** (§9.5, Figure 10): a source that occupies the
//!   channel in bursts, with a day/night intensity schedule standing in
//!   for office WiFi activity.

use lln_netip::Ipv6Addr;
use lln_sim::{Duration, Instant, Rng};
use std::collections::VecDeque;

/// An anemometer reading (82 bytes in the paper).
pub const READING_BYTES: usize = 82;

/// Captured sink bytes, one entry per remote `(address, port)` — i.e.
/// per TCP connection incarnation.
pub type CaptureStreams = Vec<((Ipv6Addr, u16), Vec<u8>)>;

/// Application state attached to a node.
pub enum App {
    /// No application.
    None,
    /// Keeps the transport's send buffer full; optionally stops after
    /// `limit` bytes.
    BulkSender {
        /// Total bytes to send (None = unlimited).
        limit: Option<u64>,
        /// Bytes handed to the transport so far.
        sent: u64,
        /// Pattern counter for payload generation.
        pattern: u8,
    },
    /// Reads and discards transport data, recording byte counts and
    /// timing for goodput computation.
    Sink {
        /// Bytes received.
        received: u64,
        /// Time of first byte.
        first_byte: Option<Instant>,
        /// Time of most recent byte.
        last_byte: Option<Instant>,
        /// When enabled, received bytes are kept per remote endpoint
        /// (one entry per TCP connection) so the chaos suite can check
        /// byte-exact integrity with a
        /// [`RecordAssembler`](crate::supervisor::RecordAssembler).
        capture: Option<CaptureStreams>,
    },
    /// The §9 sensor workload.
    Anemometer(AnemometerApp),
    /// Channel-occupying interferer.
    Interferer(InterfererApp),
}

impl App {
    /// Sink accessor for experiment code.
    pub fn sink_received(&self) -> u64 {
        match self {
            App::Sink { received, .. } => *received,
            _ => 0,
        }
    }

    /// Goodput measured at this sink over `[first_byte, last_byte]`.
    pub fn sink_goodput_bps(&self) -> f64 {
        match self {
            App::Sink {
                received,
                first_byte: Some(f),
                last_byte: Some(l),
                ..
            } if l > f => (*received as f64 * 8.0) / (*l - *f).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Captured per-connection byte streams (empty unless the sink was
    /// configured with capture enabled).
    pub fn sink_capture(&self) -> &[((Ipv6Addr, u16), Vec<u8>)] {
        match self {
            App::Sink {
                capture: Some(c), ..
            } => c,
            _ => &[],
        }
    }
}

/// One anemometer reading: an 8-byte sequence number and a pattern.
pub type Reading = [u8; READING_BYTES];

/// The anemometer sensing application (§3, §9).
pub struct AnemometerApp {
    /// Seconds between readings (1 Hz in the paper).
    pub interval: Duration,
    /// Application-layer queue of un-submitted readings, stored inline
    /// so sensing allocates nothing per reading.
    pub queue: VecDeque<Reading>,
    /// Queue capacity in readings (64 for TCP, 104 for CoAP, §9.2).
    pub queue_capacity: usize,
    /// Batch threshold: submit to the transport only when this many
    /// readings are queued (None = submit immediately, "No Batching").
    pub batch: Option<usize>,
    /// Readings generated.
    pub generated: u64,
    /// Readings dropped at the full queue (the §9.4 reliability loss).
    pub dropped: u64,
    /// Readings handed to the transport.
    pub submitted: u64,
    /// Batch mode: currently draining the queue into the transport.
    pub draining: bool,
    /// Sequence number stamped into each reading.
    seq: u64,
}

impl AnemometerApp {
    /// Creates the workload with the paper's defaults for `kind`.
    pub fn new(interval: Duration, queue_capacity: usize, batch: Option<usize>) -> Self {
        AnemometerApp {
            interval,
            queue: VecDeque::new(),
            queue_capacity,
            batch,
            generated: 0,
            dropped: 0,
            submitted: 0,
            draining: false,
            seq: 0,
        }
    }

    /// Generates one 82-byte reading; drops it if the queue is full.
    pub fn generate_reading(&mut self) {
        self.generated += 1;
        if self.queue.len() >= self.queue_capacity {
            self.dropped += 1;
            return;
        }
        let mut reading = [0u8; READING_BYTES];
        reading[..8].copy_from_slice(&self.seq.to_be_bytes());
        for (i, b) in reading[8..].iter_mut().enumerate() {
            *b = (self.seq as usize + i) as u8;
        }
        self.seq += 1;
        self.queue.push_back(reading);
    }

    /// True when the batching policy allows submitting now.
    pub fn ready_to_submit(&self) -> bool {
        match self.batch {
            None => !self.queue.is_empty(),
            Some(b) => self.queue.len() >= b,
        }
    }

    /// True once draining has begun (batch mode drains fully after the
    /// threshold is crossed).
    pub fn draining_allowed(&self, already_draining: bool) -> bool {
        already_draining || self.ready_to_submit()
    }

    /// Pops the next reading for the transport.
    pub fn pop_reading(&mut self) -> Option<Reading> {
        let r = self.queue.pop_front();
        if r.is_some() {
            self.submitted += 1;
        }
        r
    }

    /// Reliability so far given `delivered` readings at the server.
    pub fn reliability(&self, delivered: u64) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        delivered as f64 / self.generated as f64
    }
}

/// Day/night interference schedule (Figure 10's office WiFi).
pub struct InterfererApp {
    /// Fraction of time the channel is occupied during working hours.
    pub day_occupancy: f64,
    /// Fraction during the night.
    pub night_occupancy: f64,
    /// Mean burst length.
    pub burst: Duration,
    /// Working hours as (start_hour, end_hour) in simulated time.
    pub work_hours: (u64, u64),
}

impl InterfererApp {
    /// Paper-like profile: heavier interference 9:00-18:00. Bursts are
    /// tens of milliseconds (WiFi frame aggregates / beacon clusters):
    /// at equal occupancy, long-burst interference corrupts far fewer
    /// 802.15.4 frames than rapid chopping would, because a 4 ms frame
    /// only dies when it *overlaps* a burst edge the CCA couldn't see.
    pub fn office() -> Self {
        InterfererApp {
            day_occupancy: 0.10,
            night_occupancy: 0.01,
            burst: Duration::from_millis(25),
            work_hours: (9, 18),
        }
    }

    /// Occupancy at time `now` (diurnal schedule).
    pub fn occupancy_at(&self, now: Instant) -> f64 {
        let hour = (now.as_micros() / 3_600_000_000) % 24;
        if hour >= self.work_hours.0 && hour < self.work_hours.1 {
            self.day_occupancy
        } else {
            self.night_occupancy
        }
    }

    /// Draws the idle gap to schedule after a burst so the long-run
    /// busy fraction matches the occupancy.
    pub fn next_gap(&self, now: Instant, rng: &mut Rng) -> Duration {
        let occ = self.occupancy_at(now).clamp(0.001, 0.95);
        let mean_gap = self.burst.as_secs_f64() * (1.0 - occ) / occ;
        rng.gen_exp_duration(Duration::from_secs_f64(mean_gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_has_sequence_and_size() {
        let mut a = AnemometerApp::new(Duration::from_secs(1), 64, None);
        a.generate_reading();
        a.generate_reading();
        assert_eq!(a.generated, 2);
        let r0 = a.pop_reading().unwrap();
        let r1 = a.pop_reading().unwrap();
        assert_eq!(r0.len(), READING_BYTES);
        assert_eq!(u64::from_be_bytes(r0[..8].try_into().unwrap()), 0);
        assert_eq!(u64::from_be_bytes(r1[..8].try_into().unwrap()), 1);
        assert_eq!(a.submitted, 2);
    }

    #[test]
    fn full_queue_drops_readings() {
        let mut a = AnemometerApp::new(Duration::from_secs(1), 3, None);
        for _ in 0..5 {
            a.generate_reading();
        }
        assert_eq!(a.generated, 5);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.queue.len(), 3);
        assert!((a.reliability(3) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn batching_gates_submission() {
        let mut a = AnemometerApp::new(Duration::from_secs(1), 100, Some(4));
        for _ in 0..3 {
            a.generate_reading();
        }
        assert!(!a.ready_to_submit());
        a.generate_reading();
        assert!(a.ready_to_submit());
        // Without batching: any queued reading is ready.
        let mut b = AnemometerApp::new(Duration::from_secs(1), 100, None);
        b.generate_reading();
        assert!(b.ready_to_submit());
    }

    #[test]
    fn interferer_diurnal_schedule() {
        let i = InterfererApp::office();
        let night = Instant::from_secs(3 * 3600);
        let day = Instant::from_secs(12 * 3600);
        assert!(i.occupancy_at(day) > i.occupancy_at(night));
        // Mean gap should be much longer at night.
        let mut rng = Rng::new(4);
        let n: f64 = (0..500)
            .map(|_| i.next_gap(night, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 500.0;
        let d: f64 = (0..500)
            .map(|_| i.next_gap(day, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 500.0;
        assert!(n > 3.0 * d, "night gaps {n:.4}s vs day {d:.4}s");
    }

    #[test]
    fn sink_goodput_computation() {
        let app = App::Sink {
            received: 12_500,
            first_byte: Some(Instant::from_secs(10)),
            last_byte: Some(Instant::from_secs(20)),
            capture: None,
        };
        assert!((app.sink_goodput_bps() - 10_000.0).abs() < 1e-9);
        assert_eq!(app.sink_received(), 12_500);
    }
}
