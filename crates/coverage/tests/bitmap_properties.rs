//! `BranchBitmap` against a naive `Vec<bool>` reference: every operation,
//! at lengths around the 8-byte word boundaries and at the benchmark
//! models' branch counts; and the fused per-tick bookkeeping against the
//! unfused operations it replaces.

use cftcg_coverage::{BranchBitmap, BranchId, Recorder};
use proptest::prelude::*;

/// Slot counts checked in every case: empty, inside one word, on and
/// either side of word boundaries, and SolarPV/RAC-sized maps.
const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 133, 194];
const MAX_LEN: usize = 194;

/// Flags from random bytes: a flag is set when its byte's low two bits
/// fall below `density` (0 = none set, 4 = all set).
fn flags(raw: &[u8], density: u8) -> Vec<bool> {
    raw.iter().map(|&b| b & 3 < density).collect()
}

/// A bitmap with exactly `flags` set, built through the probe path.
fn recorded(flags: &[bool]) -> BranchBitmap {
    let mut bitmap = BranchBitmap::new(flags.len());
    for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
        bitmap.branch(BranchId(i as u32));
    }
    bitmap
}

fn ones(flags: &[bool]) -> Vec<usize> {
    flags.iter().enumerate().filter_map(|(i, &f)| f.then_some(i)).collect()
}

proptest! {
    #[test]
    fn bitmap_matches_bool_reference(
        raw in prop::collection::vec(any::<u8>(), 3 * MAX_LEN),
        densities in (0u8..=4, 0u8..=4, 0u8..=4),
    ) {
        for n in LENGTHS {
            let a = flags(&raw[..n], densities.0);
            let b = flags(&raw[MAX_LEN..MAX_LEN + n], densities.1);
            let mask = flags(&raw[2 * MAX_LEN..2 * MAX_LEN + n], densities.2);
            let (bm_a, bm_b) = (recorded(&a), recorded(&b));

            // Shape and per-slot views never show the padding.
            prop_assert_eq!(bm_a.len(), n);
            prop_assert_eq!(bm_a.is_empty(), n == 0);
            prop_assert_eq!(&bm_a, &a.iter().copied().collect::<BranchBitmap>());
            let bytes: Vec<u8> = a.iter().map(|&f| u8::from(f)).collect();
            prop_assert_eq!(bm_a.as_slice(), &bytes[..]);
            prop_assert_eq!(bm_a.clone().branch_flags().map(|f| f.to_vec()), Some(bytes));
            for (i, &f) in a.iter().enumerate() {
                prop_assert_eq!(bm_a.get(i), f);
            }
            prop_assert_eq!(bm_a.set_indices().collect::<Vec<_>>(), ones(&a));

            // Counting queries.
            prop_assert_eq!(bm_a.count(), ones(&a).len());
            let differ = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            prop_assert_eq!(bm_a.diff_count(&bm_b), differ);
            let only_a = a.iter().zip(&b).filter(|(&x, &y)| x && !y).count();
            prop_assert_eq!(bm_a.new_vs(&bm_b), only_a);

            // Merges: the returned count and the resulting union.
            let union: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x || y).collect();
            let mut total = bm_b.clone();
            prop_assert_eq!(bm_a.merge_into(&mut total), only_a);
            prop_assert_eq!(&total, &recorded(&union));
            let mut total = bm_b.clone();
            prop_assert_eq!(total.merge_from(&bm_a), only_a);
            prop_assert_eq!(total.set_indices().collect::<Vec<_>>(), ones(&union));

            // Masking, copying and clearing.
            let kept: Vec<bool> = a.iter().zip(&mask).map(|(&x, &m)| x && m).collect();
            let mut masked = bm_a.clone();
            masked.retain_mask(&mask.iter().copied().collect());
            prop_assert_eq!(&masked, &recorded(&kept));
            prop_assert_eq!(masked.set_indices().collect::<Vec<_>>(), ones(&kept));
            let mut copy = bm_b.clone();
            copy.copy_from(&bm_a);
            prop_assert_eq!(&copy, &bm_a);
            copy.clear();
            prop_assert_eq!(copy.count(), 0);
            prop_assert_eq!(&copy, &BranchBitmap::new(n));
        }
    }
}

/// Slot counts for the fused tick: off word boundaries, and on either side
/// of the 255-word span `commit_tick` sums per byte lane before folding
/// (2040 slots), once and twice over.
const FUSED_LENGTHS: [usize; 9] = [0, 5, 133, 2037, 2040, 2041, 2047, 4081, 4163];
const FUSED_MAX: usize = 4163;

/// One tick of the unfused Algorithm 1 bookkeeping, lines 13–19.
fn unfused_tick(
    curr: &mut BranchBitmap,
    total: &mut BranchBitmap,
    last: &mut BranchBitmap,
) -> (usize, usize) {
    let new = curr.merge_into(total);
    let diff = curr.diff_count(last);
    last.copy_from(curr);
    curr.clear();
    (new, diff)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commit_tick_matches_the_unfused_steps(
        raw in prop::collection::vec(any::<u8>(), 4 * FUSED_MAX),
        densities in (0u8..=4, 0u8..=4, 0u8..=4, 0u8..=4),
        masked in any::<bool>(),
    ) {
        for n in FUSED_LENGTHS {
            let part = |k: usize, density: u8| flags(&raw[k * FUSED_MAX..k * FUSED_MAX + n], density);
            let ticks = [part(0, densities.0), part(1, densities.1), part(0, densities.0)];
            let mask: BranchBitmap = part(2, densities.2).into_iter().collect();
            let start = recorded(&part(3, densities.3));

            let (mut f_curr, mut f_total, mut f_last) =
                (BranchBitmap::new(n), start.clone(), BranchBitmap::new(n));
            let (mut u_curr, mut u_total, mut u_last) =
                (BranchBitmap::new(n), start, BranchBitmap::new(n));
            for (t, tick) in ticks.iter().enumerate() {
                for i in ones(tick) {
                    f_curr.branch(BranchId(i as u32));
                    u_curr.branch(BranchId(i as u32));
                }
                if masked {
                    f_curr.retain_mask(&mask);
                    u_curr.retain_mask(&mask);
                }
                let fused = f_curr.commit_tick(&mut f_total, &mut f_last);
                let unfused = unfused_tick(&mut u_curr, &mut u_total, &mut u_last);
                prop_assert_eq!(fused, unfused, "n = {}, tick {}", n, t);
                prop_assert_eq!(&f_total, &u_total);
                prop_assert_eq!(&f_last, &u_last);
                prop_assert_eq!(&f_curr, &u_curr);
            }
        }
    }
}

#[test]
fn commit_tick_counts_full_lanes_without_carrying() {
    // Every flag set: each byte lane sums to 255 over a full span, the
    // most a lane can hold.
    for n in [2040, 2041, 4080, 4163] {
        let all = vec![true; n];
        let mut curr = recorded(&all);
        let (mut total, mut last) = (BranchBitmap::new(n), BranchBitmap::new(n));
        assert_eq!(curr.commit_tick(&mut total, &mut last), (n, n));
        assert_eq!((total.count(), last.count(), curr.count()), (n, n, 0));
        let mut curr = recorded(&all);
        assert_eq!(curr.commit_tick(&mut total, &mut last), (0, 0));
    }
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn probes_past_the_last_slot_panic_despite_padding() {
    // Slot 9 lies in the second word's padding of a 9-slot bitmap.
    BranchBitmap::new(9).branch(BranchId(9));
}
