//! The armed-last NVRAM journal every multi-step protocol shares.
//!
//! A journal sits at a fixed offset of its owner's region, which models
//! NVRAM under flush-on-failure (§4.6): a survivor reads a dead owner's
//! journal straight from the region, never through the fabric. What
//! makes it crash-safe is publication order — the HTPM log-before-effect
//! discipline, stated once here: fixed fields are written before the tag
//! word that arms them, and a record's words before the count bump that
//! exposes it, so a reader sees either nothing or a complete entry.
//!
//! Layout, in u64 words: the tag at +0 (`0` = idle), `F` fixed fields
//! from +8, then the record count, all inside a 64-byte header; after
//! the header, up to `capacity` records of `R` words plus a done word.

use drtm_htm::Region;

/// Bytes of a journal header (tag, fixed fields, record count).
pub const JOURNAL_HEADER_BYTES: usize = 64;

/// A journal with `F` fixed fields and records of `R` words; see the
/// module docs. A plain handle: all state lives in the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journal<const F: usize, const R: usize> {
    off: usize,
    capacity: usize,
}

/// The contents of an armed [`Journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry<const F: usize, const R: usize> {
    /// The (non-zero) tag the journal was armed with.
    pub tag: u64,
    /// The fixed fields.
    pub fields: [u64; F],
    /// Every appended record with its done flag, in append order.
    pub records: Vec<([u64; R], bool)>,
}

impl<const F: usize, const R: usize> Journal<F, R> {
    /// Region bytes a journal with room for `capacity` records occupies.
    pub const fn bytes(capacity: usize) -> usize {
        JOURNAL_HEADER_BYTES + capacity * (R + 1) * 8
    }

    /// The journal at region offset `off` with room for `capacity`
    /// records.
    pub const fn at(off: usize, capacity: usize) -> Self {
        assert!((F + 2) * 8 <= JOURNAL_HEADER_BYTES, "fixed fields overflow the header");
        Journal { off, capacity }
    }

    fn count_off(&self) -> usize {
        self.off + 8 * (F + 1)
    }

    fn record_off(&self, index: usize) -> usize {
        self.off + JOURNAL_HEADER_BYTES + index * (R + 1) * 8
    }

    /// Arms the journal with `tag` and `fields` and no records: fields
    /// and count first, the tag last, so a torn arm reads as idle.
    pub fn arm(&self, region: &Region, tag: u64, fields: [u64; F]) {
        assert_ne!(tag, 0, "tag 0 marks an idle journal");
        for (i, w) in fields.into_iter().enumerate() {
            region.write_u64_nt(self.off + 8 * (i + 1), w);
        }
        region.write_u64_nt(self.count_off(), 0);
        region.write_u64_nt(self.off, tag);
    }

    /// Appends `record` with its done word clear — words first, count
    /// bump last — and returns its index.
    ///
    /// # Panics
    ///
    /// If the journal already holds `capacity` records.
    pub fn append(&self, region: &Region, record: [u64; R]) -> usize {
        let i = region.read_u64_nt(self.count_off()) as usize;
        assert!(i < self.capacity, "journal overflow");
        let rec = self.record_off(i);
        for (j, w) in record.into_iter().enumerate() {
            region.write_u64_nt(rec + 8 * j, w);
        }
        region.write_u64_nt(rec + 8 * R, 0);
        region.write_u64_nt(self.count_off(), i as u64 + 1);
        i
    }

    /// Sets the done word of record `index`.
    pub fn mark_done(&self, region: &Region, index: usize) {
        region.write_u64_nt(self.record_off(index) + 8 * R, 1);
    }

    /// Disarms the journal.
    pub fn clear(&self, region: &Region) {
        region.write_u64_nt(self.off, 0);
    }

    /// The journal's contents if it is armed.
    pub fn read(&self, region: &Region) -> Option<JournalEntry<F, R>> {
        let tag = region.read_u64_nt(self.off);
        if tag == 0 {
            return None;
        }
        let fields = std::array::from_fn(|i| region.read_u64_nt(self.off + 8 * (i + 1)));
        let n = (region.read_u64_nt(self.count_off()) as usize).min(self.capacity);
        let records = (0..n)
            .map(|i| {
                let rec = self.record_off(i);
                let words = std::array::from_fn(|j| region.read_u64_nt(rec + 8 * j));
                (words, region.read_u64_nt(rec + 8 * R) == 1)
            })
            .collect();
        Some(JournalEntry { tag, fields, records })
    }
}
