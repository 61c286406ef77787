//! Prefix resume: a mutant keeps its corpus parent's tuples up to its first
//! edit, and a model step is deterministic, so the ticks before that edit
//! would recompute exactly what the parent's execution computed. Every
//! execution therefore keeps a checkpoint every [`STRIDE`] ticks, and a
//! mutant restores its parent's last checkpoint before its first changed
//! tuple and runs only the suffix.
//!
//! A checkpoint holds everything the next tick reads from earlier ones:
//! the executor's state plane and carried registers
//! ([`Executor::checkpoint`]), Algorithm 1's `last` bitmap, the running
//! iteration-difference sum and the failed-assertion flags. It holds no
//! coverage count: the parent's ticks already merged their branches into
//! the shard's total, so the same ticks of the mutant would add none.
//!
//! The checkpoints of one execution live in two flat buffers, `f64` planes
//! and `u64` words, that grow to the longest input once and are reused
//! after that: the running execution fills a scratch set, and a corpus
//! insertion swaps it into the slot it fills, handing the slot's old
//! buffers back as the next scratch.

use cftcg_codegen::Executor;
use cftcg_coverage::BranchBitmap;

/// Ticks between two checkpoints of one execution.
pub(crate) const STRIDE: usize = 8;

/// The size of one model's checkpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// `f64`s of the executor's checkpoint.
    plane: usize,
    /// Words of the `last` bitmap.
    last: usize,
    /// `u64` words per checkpoint: the `last` bitmap, the running metric,
    /// then one flag bit per assertion.
    words: usize,
}

impl Shape {
    pub(crate) fn new(exec: &Executor<'_>, last: &BranchBitmap, assertions: usize) -> Self {
        let last = last.words().len();
        Shape { plane: exec.checkpoint_len(), last, words: last + 1 + assertions.div_ceil(64) }
    }
}

/// The checkpoints of one execution: checkpoint `i` is the execution as
/// it stood after tick `STRIDE * (i + 1)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Checkpoints {
    len: usize,
    planes: Vec<f64>,
    words: Vec<u64>,
}

impl Checkpoints {
    /// Checkpoints held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every checkpoint, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.planes.clear();
        self.words.clear();
    }

    /// Makes room for `n` more checkpoints at once, so a run's pushes do
    /// not reallocate one growth step at a time.
    pub(crate) fn reserve(&mut self, n: usize, shape: Shape) {
        self.planes.reserve(n * shape.plane);
        self.words.reserve(n * shape.words);
    }

    /// Appends the execution's current checkpoint.
    pub(crate) fn push(
        &mut self,
        shape: Shape,
        exec: &Executor<'_>,
        last: &BranchBitmap,
        metric: usize,
        failed: &[bool],
    ) {
        let at = self.planes.len();
        self.planes.resize(at + shape.plane, 0.0);
        exec.checkpoint(&mut self.planes[at..]);
        let at = self.words.len();
        self.words.resize(at + shape.words, 0);
        let words = &mut self.words[at..];
        words[..shape.last].copy_from_slice(last.words());
        words[shape.last] = metric as u64;
        for (i, _) in failed.iter().enumerate().filter(|(_, &f)| f) {
            words[shape.last + 1 + i / 64] |= 1 << (i % 64);
        }
        self.len += 1;
    }

    /// Restores checkpoint `i` into the executor, the `last` bitmap and the
    /// failed-assertion flags; returns the iteration-difference sum it held.
    pub(crate) fn restore(
        &self,
        i: usize,
        shape: Shape,
        exec: &mut Executor<'_>,
        last: &mut BranchBitmap,
        failed: &mut [bool],
    ) -> usize {
        exec.restore(&self.planes[i * shape.plane..(i + 1) * shape.plane]);
        let words = &self.words[i * shape.words..(i + 1) * shape.words];
        last.set_words(&words[..shape.last]);
        for (a, flag) in failed.iter_mut().enumerate() {
            *flag = words[shape.last + 1 + a / 64] >> (a % 64) & 1 != 0;
        }
        words[shape.last] as usize
    }

    /// Replaces the checkpoints with the first `n` of `parent`'s.
    pub(crate) fn inherit(&mut self, parent: &Checkpoints, n: usize, shape: Shape) {
        self.clear();
        self.planes.extend_from_slice(&parent.planes[..n * shape.plane]);
        self.words.extend_from_slice(&parent.words[..n * shape.words]);
        self.len = n;
    }

    /// The count, then every plane and word as bit patterns — for exact
    /// comparison.
    pub(crate) fn to_bits(&self) -> Vec<u64> {
        let planes = self.planes.iter().map(|x| x.to_bits());
        std::iter::once(self.len as u64).chain(planes).chain(self.words.iter().copied()).collect()
    }
}

/// How many of `parent`'s checkpoints `child` can resume from: the
/// leading [`STRIDE`]-tuple blocks the two inputs share, capped at the
/// `held` checkpoints.
pub(crate) fn resume_point(parent: &[u8], child: &[u8], tuple_size: usize, held: usize) -> usize {
    let block = STRIDE * tuple_size.max(1);
    parent
        .chunks_exact(block)
        .zip(child.chunks_exact(block))
        .take(held)
        .take_while(|(a, b)| a == b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_point_counts_whole_shared_blocks() {
        let parent: Vec<u8> = (0..40).collect();
        // Two-byte tuples: blocks of 16 bytes.
        assert_eq!(resume_point(&parent, &parent, 2, 9), 2, "a copy shares every whole block");
        assert_eq!(resume_point(&parent, &parent, 2, 1), 1, "capped at the checkpoints held");
        let mut child = parent.clone();
        child[20] ^= 1;
        assert_eq!(resume_point(&parent, &child, 2, 9), 1, "an edit in block 1");
        child[3] ^= 1;
        assert_eq!(resume_point(&parent, &child, 2, 9), 0, "an edit in block 0");
        assert_eq!(resume_point(&parent, &parent[..31], 2, 9), 1, "a truncation");
        let mut longer = parent.clone();
        longer.extend([7; 24]);
        assert_eq!(resume_point(&parent, &longer, 2, 9), 2, "an extension");
        // Inputless models split one tick per byte.
        assert_eq!(resume_point(&parent, &parent, 0, 9), 5);
    }
}
