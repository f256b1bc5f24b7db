//! Run-level communication accounting.

/// Communication counters for a single round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Point-to-point messages sent this round (a broadcast by a node of
    /// degree `d` counts as `d` messages).
    pub messages: u64,
    /// Total encoded payload bits sent this round.
    pub bits: u64,
}

impl RoundMetrics {
    /// Adds another partial count into this one (used by the engine to
    /// reduce per-worker tallies of the fused accounting pass; counter
    /// sums are order-independent, so the reduction is deterministic for
    /// any thread count).
    pub fn accumulate(&mut self, other: RoundMetrics) {
        self.messages += other.messages;
        self.bits += other.bits;
    }
}

/// Aggregated communication metrics for a completed run.
///
/// These validate the paper's complexity claims:
/// `rounds` against Theorem 4 (`2k²`) / Theorem 5 (`4k² + O(k)`),
/// `max_node_messages` against the `O(k²Δ)` per-node message bound, and
/// `max_message_bits` against the `O(log Δ)` message-size bound.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Number of synchronous rounds executed (compute steps).
    pub rounds: usize,
    /// Total messages delivered over the run.
    pub messages: u64,
    /// Total payload bits over the run.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: usize,
    /// Maximum over nodes of the total number of messages that node sent.
    pub max_node_messages: u64,
    /// Byzantine payloads whose garbled wire encoding no longer decoded
    /// and were rejected at the receiver boundary (never delivered, never
    /// a panic). Zero on runs without adversarial senders.
    pub byz_rejected: u64,
    /// How many times a churn event forced the engine to rebuild its
    /// CSR-parallel message plane — the per-event cost of continuing in
    /// place instead of re-solving from scratch. Zero without churn.
    pub graph_rebuilds: u64,
}

impl RunMetrics {
    /// Mean messages per round (0 if no rounds ran).
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }

    /// Mean bits per message (0 if no messages were sent).
    pub fn bits_per_message(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bits as f64 / self.messages as f64
        }
    }

    /// Combines the metrics of two consecutive stages of a composed
    /// algorithm: counters add and maxima take the max.
    pub fn merged(&self, later: &RunMetrics) -> RunMetrics {
        RunMetrics {
            rounds: self.rounds + later.rounds,
            messages: self.messages + later.messages,
            bits: self.bits + later.bits,
            max_message_bits: self.max_message_bits.max(later.max_message_bits),
            max_node_messages: self.max_node_messages.max(later.max_node_messages),
            byz_rejected: self.byz_rejected + later.byz_rejected,
            graph_rebuilds: self.graph_rebuilds + later.graph_rebuilds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = RunMetrics {
            rounds: 4,
            messages: 8,
            bits: 64,
            max_message_bits: 16,
            max_node_messages: 5,
            ..Default::default()
        };
        assert_eq!(m.messages_per_round(), 2.0);
        assert_eq!(m.bits_per_message(), 8.0);
    }

    #[test]
    fn zero_run_has_zero_rates() {
        let m = RunMetrics::default();
        assert_eq!(m.messages_per_round(), 0.0);
        assert_eq!(m.bits_per_message(), 0.0);
    }

    #[test]
    fn merged_adds_counters_and_maxes_peaks() {
        let a = RunMetrics {
            rounds: 4,
            messages: 8,
            bits: 64,
            max_message_bits: 16,
            max_node_messages: 5,
            byz_rejected: 1,
            graph_rebuilds: 2,
        };
        let b = RunMetrics {
            rounds: 2,
            messages: 3,
            bits: 9,
            max_message_bits: 7,
            max_node_messages: 11,
            byz_rejected: 4,
            graph_rebuilds: 1,
        };
        let m = a.merged(&b);
        assert_eq!(m.rounds, 6);
        assert_eq!(m.messages, 11);
        assert_eq!(m.bits, 73);
        assert_eq!(m.max_message_bits, 16);
        assert_eq!(m.max_node_messages, 11);
        assert_eq!(m.byz_rejected, 5);
        assert_eq!(m.graph_rebuilds, 3);
        assert_eq!(a.merged(&RunMetrics::default()), a);
    }
}
