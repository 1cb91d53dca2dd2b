//! QUETZAL hardware configuration points (paper §VI, Table I bottom).

/// Number of read ports per QBUFFER. Ports are implemented by data
/// replication (one SRAM copy per port, §IV-B.1), so area grows nearly
/// linearly with this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortCount {
    /// One read port (QZ_1P).
    P1,
    /// Two read ports (QZ_2P).
    P2,
    /// Four read ports (QZ_4P).
    P4,
    /// Eight read ports (QZ_8P — the configuration the paper selects).
    P8,
}

impl PortCount {
    /// The numeric port count.
    pub fn count(self) -> u32 {
        match self {
            PortCount::P1 => 1,
            PortCount::P2 => 2,
            PortCount::P4 => 4,
            PortCount::P8 => 8,
        }
    }

    /// All configurations, in Table-III order.
    pub fn all() -> [PortCount; 4] {
        [PortCount::P1, PortCount::P2, PortCount::P4, PortCount::P8]
    }
}

impl std::fmt::Display for PortCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QZ_{}P", self.count())
    }
}

/// A full QUETZAL hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QzConfig {
    /// Read ports per QBUFFER.
    pub ports: PortCount,
    /// Capacity of each of the two QBUFFERs in KiB (the paper sizes them
    /// at 8 KB each, §VI).
    pub kib_per_buffer: usize,
}

impl QzConfig {
    /// The paper's chosen configuration: 8 read ports, 2 × 8 KB.
    pub const QZ_8P: QzConfig = QzConfig {
        ports: PortCount::P8,
        kib_per_buffer: 8,
    };

    /// Four-port variant (QZ_4P in Table III).
    pub const QZ_4P: QzConfig = QzConfig {
        ports: PortCount::P4,
        kib_per_buffer: 8,
    };

    /// Two-port variant (QZ_2P).
    pub const QZ_2P: QzConfig = QzConfig {
        ports: PortCount::P2,
        kib_per_buffer: 8,
    };

    /// Single-port variant (QZ_1P).
    pub const QZ_1P: QzConfig = QzConfig {
        ports: PortCount::P1,
        kib_per_buffer: 8,
    };

    /// Cycles to satisfy a full 8-lane vector of read requests:
    /// `8 / num_ports + 1` — the extra cycle is the slicing stage
    /// (paper §IV-C.1).
    pub fn read_latency(&self) -> u64 {
        (8 / self.ports.count() as u64) + 1
    }

    /// Capacity of one QBUFFER in bytes.
    pub fn bytes_per_buffer(&self) -> usize {
        self.kib_per_buffer * 1024
    }
}

impl Default for QzConfig {
    fn default() -> Self {
        QzConfig::QZ_8P
    }
}

impl std::fmt::Display for QzConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} KiB x2)", self.ports, self.kib_per_buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_latencies_match_paper_table1() {
        // Table I: QZ_1P = 9 cycles, QZ_2P = 5 cycles, QZ_8P = 2 cycles.
        assert_eq!(QzConfig::QZ_1P.read_latency(), 9);
        assert_eq!(QzConfig::QZ_2P.read_latency(), 5);
        assert_eq!(QzConfig::QZ_4P.read_latency(), 3);
        assert_eq!(QzConfig::QZ_8P.read_latency(), 2);
    }

    #[test]
    fn capacity_covers_hifi_reads() {
        // §VI: each 8 KB buffer stores up to 32.7 Kbp with 2-bit encoding,
        // covering both Illumina (100 bp) and HiFi PacBio (10-30 Kbp).
        let bases = QzConfig::QZ_8P.bytes_per_buffer() * 8 / 2;
        assert_eq!(bases, 32_768);
        assert!(bases >= 30_000);
    }

    #[test]
    fn port_counts() {
        let counts: Vec<u32> = PortCount::all().iter().map(|p| p.count()).collect();
        assert_eq!(counts, vec![1, 2, 4, 8]);
        assert_eq!(PortCount::P8.to_string(), "QZ_8P");
    }

    #[test]
    fn default_is_the_paper_pick() {
        assert_eq!(QzConfig::default(), QzConfig::QZ_8P);
    }
}
