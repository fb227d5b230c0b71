//! Result digests and the digests recorded for each workload.
//!
//! The digest of a pass is the XOR-fold of one FNV-1a hash per event over
//! the event's index, opcode, point and visible result: the fingerprint an
//! open or update returns, the term strings a completion serves. It is the
//! same digest `insynth-trace replay` prints for the same trace, on either
//! path, so a recorded value can be checked with that tool too.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digests recorded from a known-good build: `workload trace_seed events
/// digest`, tab-separated, for every input set (run seeds 0-24) at
/// `--seconds 30`, which covers every trace a run replays at any
/// `--seconds` up to 30. Every run prints each trace's line as
/// `digest<TAB>line<TAB>status`; fields 2-5 of those lines make the table.
/// A run whose pass digest differs from its recorded line counts every event
/// of that trace as failed.
const RECORDED: &str = include_str!("../digests.tsv");

pub struct EventDigest(u64);

impl EventDigest {
    pub fn new(index: usize, op: char, point: u32) -> EventDigest {
        let mut d = EventDigest(FNV_OFFSET);
        d.bytes(&(index as u64).to_le_bytes());
        d.bytes(&[op as u8]);
        d.bytes(&point.to_le_bytes());
        d
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The recorded digest of one pass, if the table has it.
pub fn recorded(workload: &str, trace_seed: u64, events: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split('\t');
        let hit = fields.next()? == workload
            && fields.next()?.parse::<u64>().ok()? == trace_seed
            && fields.next()?.parse::<u64>().ok()? == events;
        if !hit {
            return None;
        }
        u64::from_str_radix(fields.next()?, 16).ok()
    })
}

/// One table line, in the format [`recorded`] reads.
pub fn table_line(workload: &str, trace_seed: u64, events: u64, digest: u64) -> String {
    format!("{workload}\t{trace_seed}\t{events}\t{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lines_round_trip() {
        let line = table_line("query_13k", 1000, 100, 0xdead_beef);
        assert_eq!(line, "query_13k\t1000\t100\t00000000deadbeef");
        assert!(RECORDED.lines().all(|l| l.split('\t').count() == 4));
    }
}
