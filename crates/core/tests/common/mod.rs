//! Helpers shared by the pin suites.

use mwc_congest::Ledger;

/// FNV-1a over every phase's `label NUL rounds words`.
pub fn phase_digest(ledger: &Ledger) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &ledger.phases {
        let mut bytes = p.label.as_bytes().to_vec();
        bytes.push(0);
        bytes.extend(p.rounds.to_le_bytes());
        bytes.extend(p.words.to_le_bytes());
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
