//! The compare table: the exact dedup set behind LibFuzzer-style tables of
//! recent compares (TORC), and the layout a native back-end probes inline
//! (see [`Recorder::compare_table`](crate::Recorder::compare_table)).

/// One slot of a [`CompareTable`]: the bit patterns of a compare's
/// operands, or all zeros when the slot is empty.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareSlot {
    /// `lhs.to_bits()`.
    pub lhs: u64,
    /// `rhs.to_bits()`.
    pub rhs: u64,
}

/// A fixed open-addressed set of compare operand pairs, keyed by
/// `(lhs.to_bits(), rhs.to_bits())`: a two-round multiply-shift hash,
/// linear probing and backward-shift deletion (no tombstones, so probe runs
/// never grow with eviction churn).
///
/// Only [admissible](Self::admissible) pairs are keys. The pair
/// `(0.0, 0.0)` — all-zero slot words — marks an empty slot, and the
/// admission rule rejects it (equal operands). The table never grows: the
/// owner keeps it at most half full, so every probe run ends at an empty
/// slot.
///
/// The layout is a public contract. A native back-end reads the slot array
/// and hashes with [`SLOT_BITS`](Self::SLOT_BITS),
/// [`MUL_LHS`](Self::MUL_LHS) and [`MUL_MIX`](Self::MUL_MIX), so that it
/// can skip compares the table already holds without calling back.
///
/// ```
/// use cftcg_coverage::CompareTable;
///
/// let mut table = CompareTable::new();
/// assert!(CompareTable::admissible(3.0, 7.5));
/// assert!(!CompareTable::admissible(0.5, -1.0), "both operands trivial");
/// assert!(table.insert(3.0, 7.5));
/// assert!(!table.insert(3.0, 7.5), "already present");
/// assert!(table.contains(3.0, 7.5) && !table.contains(7.5, 3.0));
/// table.remove(3.0, 7.5);
/// assert!(!table.contains(3.0, 7.5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareTable {
    /// Fixed length, so masked indices need no bounds checks.
    slots: Box<[CompareSlot; CompareTable::SLOTS]>,
}

impl Default for CompareTable {
    fn default() -> Self {
        Self::new()
    }
}

const EMPTY: CompareSlot = CompareSlot { lhs: 0, rhs: 0 };

impl CompareTable {
    /// `log2` of the slot count: a home slot is the top `SLOT_BITS` bits of
    /// the mixed key. 2048 slots keep a 512-pair TORC ring about a quarter
    /// full, where probe runs stay short even when the ring churns every
    /// tick.
    pub const SLOT_BITS: u32 = 11;
    /// Number of slots.
    pub const SLOTS: usize = 1 << Self::SLOT_BITS;
    /// First-round multiplier, applied to the `lhs` word.
    pub const MUL_LHS: u64 = 0x9E37_79B9_7F4A_7C15;
    /// Second-round multiplier, applied to `lhs * MUL_LHS ^ rhs`.
    pub const MUL_MIX: u64 = 0xD6E8_FEB8_6659_FD93;

    const MASK: usize = Self::SLOTS - 1;

    /// An empty table.
    pub fn new() -> Self {
        CompareTable { slots: Box::new([EMPTY; Self::SLOTS]) }
    }

    /// The admission rule. Equal operands carry no information; non-finite
    /// values cannot be injected meaningfully; trivial pairs (both
    /// magnitudes at most 1) are already among a fuzzer's interesting
    /// constants.
    #[inline]
    pub fn admissible(lhs: f64, rhs: f64) -> bool {
        lhs.is_finite() && rhs.is_finite() && lhs != rhs && !(lhs.abs() <= 1.0 && rhs.abs() <= 1.0)
    }

    /// The slot array, [`SLOTS`](Self::SLOTS) long.
    pub fn slots(&self) -> &[CompareSlot] {
        &self.slots[..]
    }

    #[inline]
    fn key(lhs: f64, rhs: f64) -> CompareSlot {
        CompareSlot { lhs: lhs.to_bits(), rhs: rhs.to_bits() }
    }

    /// The home slot of `key`: the top bits of a two-round multiply mix.
    #[inline]
    fn home(key: CompareSlot) -> usize {
        let mixed = (key.lhs.wrapping_mul(Self::MUL_LHS) ^ key.rhs).wrapping_mul(Self::MUL_MIX);
        (mixed >> (64 - Self::SLOT_BITS)) as usize
    }

    /// The slot holding `key`, or the empty slot ending its probe run.
    #[inline]
    fn find(&self, key: CompareSlot) -> usize {
        let mut i = Self::home(key);
        while self.slots[i] != key && self.slots[i] != EMPTY {
            i = (i + 1) & Self::MASK;
        }
        i
    }

    /// Whether the table holds `(lhs, rhs)` (compared bit for bit).
    #[inline]
    pub fn contains(&self, lhs: f64, rhs: f64) -> bool {
        let key = Self::key(lhs, rhs);
        self.slots[self.find(key)] == key
    }

    /// Inserts `(lhs, rhs)`; `false` when it was already present. The pair
    /// must be [admissible](Self::admissible).
    #[inline]
    pub fn insert(&mut self, lhs: f64, rhs: f64) -> bool {
        debug_assert!(Self::admissible(lhs, rhs), "inadmissible pairs are not keys");
        let key = Self::key(lhs, rhs);
        let i = self.find(key);
        if self.slots[i] == key {
            return false;
        }
        self.slots[i] = key;
        true
    }

    /// Removes `(lhs, rhs)`, which must be present, then shifts later
    /// members of its probe run back so every key stays reachable from its
    /// home slot.
    #[inline]
    pub fn remove(&mut self, lhs: f64, rhs: f64) {
        let key = Self::key(lhs, rhs);
        let mut hole = self.find(key);
        debug_assert_eq!(self.slots[hole], key, "removing an absent key");
        let mut j = hole;
        loop {
            j = (j + 1) & Self::MASK;
            let next = self.slots[j];
            if next == EMPTY {
                break;
            }
            // `next` may fill the hole when the hole lies on its probe path,
            // i.e. no further from `j` than its home slot is.
            let from_home = j.wrapping_sub(Self::home(next)) & Self::MASK;
            if from_home >= (j.wrapping_sub(hole) & Self::MASK) {
                self.slots[hole] = next;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
    }
}
