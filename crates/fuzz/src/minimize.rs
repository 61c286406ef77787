//! Test-case and suite minimization.
//!
//! The fuzzing loop emits every input that finds new coverage, so suites
//! accumulate redundancy and individual cases carry irrelevant tuples.
//! [`minimize_case`] shrinks one case (greedy tuple-block removal) while
//! preserving the exact set of branches it covers; [`minimize_suite`]
//! drops whole cases that contribute no unique coverage (greedy set cover,
//! largest contributor first).

use cftcg_codegen::{CompiledModel, Executor, TestCase};
use cftcg_coverage::BranchBitmap;

/// Executes a case and returns its cumulative branch coverage.
fn coverage_of(compiled: &CompiledModel, case: &TestCase) -> BranchBitmap {
    let mut exec = Executor::new(compiled);
    let mut total = BranchBitmap::new(compiled.map().branch_count());
    let mut curr = BranchBitmap::new(compiled.map().branch_count());
    exec.reset();
    for tuple in compiled.layout().split(&case.bytes) {
        curr.clear();
        exec.step_tuple(tuple, &mut curr);
        curr.merge_into(&mut total);
    }
    total
}

/// `true` when every branch set in `needed` is also set in `have`.
fn covers(have: &BranchBitmap, needed: &BranchBitmap) -> bool {
    needed.new_vs(have) == 0
}

/// Shrinks one test case by removing tuple blocks (halves, then quarters,
/// down to single tuples) as long as the case still covers everything it
/// covered before. Returns the shortened case.
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use cftcg_codegen::{compile, TestCase};
/// use cftcg_fuzz::minimize_case;
/// use cftcg_model::{BlockKind, DataType, ModelBuilder};
///
/// let mut b = ModelBuilder::new("m");
/// let u = b.inport("u", DataType::U8);
/// let sat = b.add("sat", BlockKind::Saturation { lower: 10.0, upper: 20.0 });
/// let y = b.outport("y");
/// b.wire(u, sat);
/// b.wire(sat, y);
/// let compiled = compile(&b.finish()?)?;
///
/// // 6 tuples, but 3 distinct behaviours: minimization keeps ≤ 3.
/// let fat = TestCase::new(vec![15, 15, 0, 0, 255, 255]);
/// let slim = minimize_case(&compiled, &fat);
/// assert!(slim.bytes.len() <= 3);
/// # Ok(())
/// # }
/// ```
pub fn minimize_case(compiled: &CompiledModel, case: &TestCase) -> TestCase {
    let tsize = compiled.layout().tuple_size();
    if tsize == 0 {
        return TestCase::default();
    }
    let target = coverage_of(compiled, case);
    let mut tuples: Vec<Vec<u8>> =
        compiled.layout().split(&case.bytes).map(<[u8]>::to_vec).collect();

    let mut block = (tuples.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < tuples.len() {
            let end = (start + block).min(tuples.len());
            if tuples.len() - (end - start) >= 1 || tuples.len() > (end - start) {
                let candidate: Vec<u8> = tuples[..start]
                    .iter()
                    .chain(&tuples[end..])
                    .flat_map(|t| t.iter().copied())
                    .collect();
                let candidate_case = TestCase::new(candidate);
                if covers(&coverage_of(compiled, &candidate_case), &target) {
                    tuples.drain(start..end);
                    continue; // same start, shrunk list
                }
            }
            start += block;
        }
        if block == 1 {
            break;
        }
        block /= 2;
    }
    TestCase::new(tuples.concat())
}

/// Drops suite members that contribute no branch not already covered by the
/// kept set (greedy, biggest contributor first). The result covers exactly
/// the same branches as the input suite.
pub fn minimize_suite(compiled: &CompiledModel, suite: &[TestCase]) -> Vec<TestCase> {
    let branch_count = compiled.map().branch_count();
    let mut coverages: Vec<(usize, BranchBitmap)> =
        suite.iter().enumerate().map(|(i, case)| (i, coverage_of(compiled, case))).collect();
    // Largest coverage first so the greedy pass keeps few, strong cases.
    coverages.sort_by_key(|(_, cov)| std::cmp::Reverse(cov.count()));

    let mut kept = Vec::new();
    let mut total = BranchBitmap::new(branch_count);
    for (i, cov) in coverages {
        if cov.merge_into(&mut total) > 0 {
            kept.push(i);
        }
    }
    kept.sort_unstable(); // preserve original emission order
    kept.into_iter().map(|i| suite[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::{compile, replay_suite};
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    fn saturation_compiled() -> CompiledModel {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::U8);
        let sat = b.add("sat", BlockKind::Saturation { lower: 10.0, upper: 20.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn case_minimization_preserves_coverage() {
        let compiled = saturation_compiled();
        let fat = TestCase::new(vec![0, 0, 0, 15, 15, 15, 255, 255, 255, 7, 200]);
        let slim = minimize_case(&compiled, &fat);
        assert!(slim.bytes.len() < fat.bytes.len());
        assert_eq!(
            coverage_of(&compiled, &slim).as_slice(),
            coverage_of(&compiled, &fat).as_slice()
        );
        // Three regions need exactly three tuples.
        assert_eq!(slim.bytes.len(), 3);
    }

    #[test]
    fn minimizing_a_minimal_case_is_identity_sized() {
        let compiled = saturation_compiled();
        let case = TestCase::new(vec![15]);
        let slim = minimize_case(&compiled, &case);
        assert_eq!(slim.bytes.len(), 1);
    }

    #[test]
    fn stateful_cases_keep_their_prefix() {
        // Counter wrap branch needs the full run-up; minimization must not
        // break it.
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::U8);
        let t = b.add("t", BlockKind::Terminator);
        b.wire(u, t);
        let c = b.add("cnt", BlockKind::CounterLimited { limit: 3 });
        let y = b.outport("y");
        b.wire(c, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();
        let case = TestCase::new(vec![0; 10]);
        let slim = minimize_case(&compiled, &case);
        assert_eq!(coverage_of(&compiled, &slim).count(), coverage_of(&compiled, &case).count());
        // The wrap needs at least 4 iterations (count 0..=3).
        assert!(slim.bytes.len() >= 4, "kept {} tuples", slim.bytes.len());
    }

    #[test]
    fn suite_minimization_drops_redundant_cases() {
        let compiled = saturation_compiled();
        let suite = vec![
            TestCase::new(vec![15]),     // pass-through
            TestCase::new(vec![15, 15]), // redundant
            TestCase::new(vec![0]),      // lower clip
            TestCase::new(vec![255]),    // upper clip
            TestCase::new(vec![0, 255]), // redundant combination
            TestCase::new(vec![16]),     // redundant
        ];
        let before = replay_suite(&compiled, &suite);
        let slim = minimize_suite(&compiled, &suite);
        let after = replay_suite(&compiled, &slim);
        assert_eq!(before.decision.covered, after.decision.covered);
        assert!(slim.len() <= 2, "kept {} cases", slim.len());
    }

    #[test]
    fn empty_suite_minimizes_to_empty() {
        let compiled = saturation_compiled();
        assert!(minimize_suite(&compiled, &[]).is_empty());
    }
}
