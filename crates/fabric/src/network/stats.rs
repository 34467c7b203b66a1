//! Simulation counters.

use simcore::Running;

/// One [`NetCounters`] field, as [`NetCounters::fields_mut`] hands it out.
#[derive(Debug)]
pub enum CounterMut<'a> {
    /// An event or byte count.
    Count(&'a mut u64),
    /// A running accumulator.
    Stat(&'a mut Running),
}

/// Aggregate counters maintained by [`super::Network`].
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// Packets admitted to NIC admittance queues.
    pub injected_packets: u64,
    /// Bytes admitted.
    pub injected_bytes: u64,
    /// Packets delivered to hosts.
    pub delivered_packets: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Per-flow order violations observed at delivery (only possible under
    /// 4Q; fatal under the other schemes).
    pub order_violations: u64,
    /// End-to-end packet latency in nanoseconds (admittance → delivery).
    pub latency_ns: Running,
    /// RECN notifications sent (internal + across links).
    pub recn_notifications: u64,
    /// Notifications accepted (SAQ allocated).
    pub saq_allocs: u64,
    /// SAQs deallocated.
    pub saq_deallocs: u64,
    /// Notifications rejected for lack of a free SAQ.
    pub recn_rejects: u64,
    /// Duplicate-path notifications (protocol races).
    pub recn_duplicates: u64,
    /// Tokens returned toward roots.
    pub recn_tokens: u64,
    /// Xoff messages sent.
    pub xoffs: u64,
    /// Xon messages sent.
    pub xons: u64,
    /// In-order markers placed.
    pub markers: u64,
    /// Times any egress port became a congestion-tree root.
    pub root_activations: u64,
    /// Times a root cleared.
    pub root_clears: u64,
    /// Messages dropped at the source because the admittance VOQ was full.
    pub source_dropped_messages: u64,
    /// Bytes dropped at the source.
    pub source_dropped_bytes: u64,
    /// Transport: packets re-sent by a closed-loop flow (seq below the
    /// high-water mark at injection time).
    pub retransmitted_packets: u64,
    /// Transport: retransmission timeouts that fired live (stale
    /// generation-checked timers are not counted).
    pub transport_timeouts: u64,
    /// Transport: acks sent by receivers (out-of-band).
    pub transport_acks: u64,
    /// Transport: NACKs sent by receivers on out-of-order arrival.
    pub transport_nacks: u64,
    /// Transport: closed-loop flows that completed delivery.
    pub flows_completed: u64,
    /// PFC: pause messages sent by switch input ports.
    pub pfc_pauses: u64,
    /// PFC: resume messages sent by switch input ports.
    pub pfc_resumes: u64,
    /// PFC: data packets dropped at a full switch input port.
    pub pfc_dropped_packets: u64,
    /// PFC: bytes dropped at full switch input ports.
    pub pfc_dropped_bytes: u64,
    /// ARN: congestion (`ArnHot`) notifications sent to child switches
    /// (`RoutingPolicy::ArnUp` only; one count per child link notified).
    pub arn_hot_notifications: u64,
    /// ARN: decongestion (`ArnCold`) notifications sent to child switches.
    pub arn_cold_notifications: u64,
}

impl NetCounters {
    /// Every field under its external name, in declaration order: the one
    /// table that binds a counter's name to its field. Whatever stores or
    /// prints counters by name (the run cache body) walks this, so a new
    /// counter is a field above and a row here.
    pub fn fields_mut(&mut self) -> [(&'static str, CounterMut<'_>); 30] {
        // A row is a field's kind and identifier; its name is the identifier.
        macro_rules! table {
            ($($kind:ident $field:ident,)*) => {
                [$((stringify!($field), CounterMut::$kind(&mut self.$field)),)*]
            };
        }
        table![
            Count injected_packets,
            Count injected_bytes,
            Count delivered_packets,
            Count delivered_bytes,
            Count order_violations,
            Stat latency_ns,
            Count recn_notifications,
            Count saq_allocs,
            Count saq_deallocs,
            Count recn_rejects,
            Count recn_duplicates,
            Count recn_tokens,
            Count xoffs,
            Count xons,
            Count markers,
            Count root_activations,
            Count root_clears,
            Count source_dropped_messages,
            Count source_dropped_bytes,
            Count retransmitted_packets,
            Count transport_timeouts,
            Count transport_acks,
            Count transport_nacks,
            Count flows_completed,
            Count pfc_pauses,
            Count pfc_resumes,
            Count pfc_dropped_packets,
            Count pfc_dropped_bytes,
            Count arn_hot_notifications,
            Count arn_cold_notifications,
        ]
    }

    /// Mean delivered throughput in bytes/ns over `elapsed_ns`.
    pub fn mean_throughput(&self, elapsed_ns: f64) -> f64 {
        if elapsed_ns <= 0.0 {
            0.0
        } else {
            self.delivered_bytes as f64 / elapsed_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let c = NetCounters {
            delivered_bytes: 1000,
            ..NetCounters::default()
        };
        assert_eq!(c.mean_throughput(100.0), 10.0);
        assert_eq!(c.mean_throughput(0.0), 0.0);
    }

    #[test]
    fn the_field_table_covers_the_struct() {
        let mut c = NetCounters::default();
        let bytes: usize = c
            .fields_mut()
            .iter()
            .map(|(_, field)| match field {
                CounterMut::Count(v) => std::mem::size_of_val(*v),
                CounterMut::Stat(r) => std::mem::size_of_val(*r),
            })
            .sum();
        // The borrow checker already refuses a field listed twice; every
        // field is 8-aligned, so the struct has no padding and a field the
        // table misses shows as a short sum.
        assert_eq!(bytes, std::mem::size_of::<NetCounters>());
    }
}
