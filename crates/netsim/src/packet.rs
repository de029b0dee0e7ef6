//! Packets and flow identifiers.

/// Dense flow identifier assigned by the workload generator. Maps 1:1 to a
//  5-tuple via `wavesketch::FlowKey::from_id` at the measurement layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// ECN codepoint of a packet's IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnCodepoint {
    /// Not ECN-capable transport (control packets: CNPs, ACKs).
    NotEct,
    /// ECN-capable, not marked.
    Ect,
    /// Congestion experienced — set by a switch whose queue crossed the
    /// RED/ECN marking decision.
    Ce,
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Application payload (RoCEv2 or TCP segment).
    Data,
    /// Congestion notification packet (DCQCN NP → RP feedback).
    Cnp,
    /// Transport acknowledgement (used by the DCTCP-style transport).
    Ack {
        /// Sequence number being acknowledged (cumulative).
        ack_seq: u64,
        /// Echo of the data packet's CE mark (DCTCP's ECN-Echo).
        ece: bool,
    },
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Source host node.
    pub src: usize,
    /// Destination host node.
    pub dst: usize,
    /// On-wire size in bytes (headers included).
    pub size: u32,
    /// Packet sequence number within the flow (RoCEv2 PSN / TCP segment
    /// number). Control packets carry the triggering data packet's PSN.
    pub psn: u64,
    /// ECN codepoint (mutated in flight by marking switches).
    pub ecn: EcnCodepoint,
    /// Payload type.
    pub kind: PacketKind,
    /// True-time when the source host enqueued the packet (ns).
    pub sent_ns: u64,
}

impl Packet {
    /// Creates an ECT data packet.
    pub fn data(flow: FlowId, src: usize, dst: usize, size: u32, psn: u64, now: u64) -> Self {
        Self {
            flow,
            src,
            dst,
            size,
            psn,
            ecn: EcnCodepoint::Ect,
            kind: PacketKind::Data,
            sent_ns: now,
        }
    }

    /// Creates a CNP heading back to the sender (64 B control packet).
    pub fn cnp(flow: FlowId, receiver: usize, sender: usize, psn: u64, now: u64) -> Self {
        Self {
            flow,
            src: receiver,
            dst: sender,
            size: 64,
            psn,
            ecn: EcnCodepoint::NotEct,
            kind: PacketKind::Cnp,
            sent_ns: now,
        }
    }

    /// Creates an ACK heading back to the sender (64 B control packet).
    pub fn ack(
        flow: FlowId,
        receiver: usize,
        sender: usize,
        psn: u64,
        ack_seq: u64,
        ece: bool,
        now: u64,
    ) -> Self {
        Self {
            flow,
            src: receiver,
            dst: sender,
            size: 64,
            psn,
            ecn: EcnCodepoint::NotEct,
            kind: PacketKind::Ack { ack_seq, ece },
            sent_ns: now,
        }
    }

    /// True for application payload packets.
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// True if this packet was CE-marked somewhere along its path.
    pub fn is_ce(&self) -> bool {
        self.ecn == EcnCodepoint::Ce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packets_are_ect_until_marked() {
        let p = Packet::data(FlowId(1), 0, 5, 1000, 42, 0);
        assert!(p.is_data());
        assert!(!p.is_ce());
        assert_eq!(p.ecn, EcnCodepoint::Ect);
    }

    #[test]
    fn control_packets_are_not_ect() {
        let c = Packet::cnp(FlowId(1), 5, 0, 42, 10);
        assert_eq!(c.ecn, EcnCodepoint::NotEct);
        assert_eq!(c.size, 64);
        assert_eq!((c.src, c.dst), (5, 0), "CNP flows receiver → sender");
        let a = Packet::ack(FlowId(1), 5, 0, 42, 43, true, 10);
        assert!(matches!(
            a.kind,
            PacketKind::Ack {
                ack_seq: 43,
                ece: true
            }
        ));
    }
}
