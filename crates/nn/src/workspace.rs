//! Buffers a training loop reuses from batch to batch.
//!
//! Every training pass of a model allocates the same buffers: each layer's
//! output and tape, the input gradients, and the [`Fold`]s the weight
//! gradients are summed from. A [`Workspace`] hands them out
//! ([`Layer::forward`](crate::layers::Layer::forward) and
//! [`Layer::backward`](crate::layers::Layer::backward) take one) and takes
//! them back, the folds' buffers once
//! [`Grads::fold`](crate::layers::Grads::fold) has added them. A loop that
//! keeps one workspace per worker thread therefore allocates its buffers
//! once, not once per batch, and the memory they span is neither returned
//! to the operating system nor faulted back in between batches.
//!
//! Buffers are matched by the order a pass takes them: the `k`-th buffer a
//! pass takes has the capacity of the one the `k`-th take of the pass before
//! got. Every pass of one model takes its buffers in the same order, and
//! gives them back at the same points, so that buffer is free again. A take
//! that finds none (in a first pass, say) gets the smallest free buffer with
//! room enough, or a new one. A pass therefore allocates only where it
//! outgrows every pass before it, and the headroom of [`Workspace::begin`]
//! lets the first pass reserve for the largest.

use crate::layers::Fold;
use crate::tensor::{Scratch, Tensor};

/// A buffer a [`Pool`] keeps: all it needs is its capacity.
trait Buffer {
    fn capacity(&self) -> usize;
    fn with_capacity(values: usize) -> Self;
}

impl Buffer for Tensor {
    fn capacity(&self) -> usize {
        Tensor::capacity(self)
    }

    fn with_capacity(values: usize) -> Tensor {
        Tensor::with_capacity(values)
    }
}

impl<T> Buffer for Vec<T> {
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }

    fn with_capacity(values: usize) -> Vec<T> {
        Vec::with_capacity(values)
    }
}

/// Free buffers of one kind, matched to a pass's takes by order.
#[derive(Debug)]
struct Pool<T> {
    free: Vec<T>,
    /// The capacity the `k`-th take of the last pass got.
    caps: Vec<usize>,
    /// Takes so far in this pass.
    next: usize,
    /// What a buffer this pass allocates reserves, per value it needs.
    headroom: f64,
}

impl<T> Default for Pool<T> {
    fn default() -> Pool<T> {
        Pool {
            free: Vec::new(),
            caps: Vec::new(),
            next: 0,
            headroom: 1.0,
        }
    }
}

impl<T: Buffer> Pool<T> {
    fn begin(&mut self, headroom: f64) {
        self.next = 0;
        self.headroom = headroom.max(1.0);
    }

    /// A buffer with room for at least `values` values: the free one of
    /// the capacity this take got last pass; else the smallest free one
    /// with room for the headroom; else a new one.
    fn take(&mut self, values: usize) -> T {
        let k = self.next;
        self.next += 1;
        let reserve = (values as f64 * self.headroom).ceil() as usize;
        let found = self
            .caps
            .get(k)
            .filter(|&&cap| cap >= values)
            .and_then(|&cap| self.free.iter().position(|b| b.capacity() == cap))
            .or_else(|| {
                let fits = self.free.iter().enumerate();
                let fits = fits.filter(|(_, b)| b.capacity() >= reserve);
                fits.min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
            });
        let buffer = match found {
            Some(i) => self.free.swap_remove(i),
            None => T::with_capacity(reserve),
        };
        match self.caps.get_mut(k) {
            Some(cap) => *cap = buffer.capacity(),
            None => self.caps.push(buffer.capacity()),
        }
        buffer
    }

    fn give(&mut self, buffer: T) {
        self.free.push(buffer);
    }
}

/// The buffers of one training worker's passes; see the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    tensors: Pool<Tensor>,
    masks: Pool<Vec<bool>>,
    lists: Pool<Vec<usize>>,
    /// What the current pass's backward pushed, in backward order.
    pub(crate) folds: Vec<Fold>,
    /// The matrix products' working buffer.
    pub(crate) scratch: Scratch,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Starts a pass. A buffer this pass has to allocate reserves
    /// `headroom` times the room it needs (at least once), `list_headroom`
    /// for the lists of [`Workspace::list`]: a first pass that reserves for
    /// the largest pass to come spares every later pass an allocation.
    pub fn begin(&mut self, headroom: f64, list_headroom: f64) {
        self.tensors.begin(headroom);
        self.masks.begin(headroom);
        self.lists.begin(list_headroom);
    }

    /// A tensor of `shape` whose values are stale: the caller overwrites
    /// every one.
    pub fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let mut t = self.tensors.take(shape.iter().product());
        t.reuse_as(shape);
        t
    }

    /// A zero tensor of `shape`.
    pub(crate) fn zeros(&mut self, shape: &[usize]) -> Tensor {
        let mut t = self.tensor(shape);
        t.fill_zero();
        t
    }

    /// A copy of `t`.
    pub(crate) fn copy_of(&mut self, t: &Tensor) -> Tensor {
        let mut copy = self.tensor(t.shape());
        copy.data_mut().copy_from_slice(t.data());
        copy
    }

    /// An empty mask with room for `len` flags.
    pub(crate) fn mask(&mut self, len: usize) -> Vec<bool> {
        let mut mask = self.masks.take(len);
        mask.clear();
        mask
    }

    /// `values` as a list.
    pub fn list(&mut self, values: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
        let mut list = self.lists.take(values.len());
        list.clear();
        list.extend(values);
        list
    }

    /// Takes back a tensor.
    pub fn give(&mut self, t: Tensor) {
        self.tensors.give(t);
    }

    /// Takes back a mask.
    pub(crate) fn give_mask(&mut self, mask: Vec<bool>) {
        self.masks.give(mask);
    }

    /// Takes back a list.
    pub fn give_list(&mut self, list: Vec<usize>) {
        self.lists.give(list);
    }

    /// The matrix products' working buffer.
    pub(crate) fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// Keeps a weight layer's fold for [`Grads::fold`](crate::layers::Grads::fold).
    pub(crate) fn push_fold(&mut self, fold: Fold) {
        self.folds.push(fold);
    }

    /// Takes back the buffers of every fold the last pass pushed.
    pub(crate) fn reclaim_folds(&mut self) {
        for fold in self.folds.drain(..) {
            let (x, g, segments) = fold.into_parts();
            self.tensors.give(x);
            self.tensors.give(g);
            self.lists.give(segments);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two passes that take buffers in the same order, the second with
    /// smaller sizes: the second finds every buffer it needs, even where
    /// it returns them in another order.
    #[test]
    fn later_passes_reuse_the_first_pass_buffers() {
        let mut ws = Workspace::new();
        ws.begin(2.0, 1.0);
        let a = ws.tensor(&[4, 8]);
        let b = ws.zeros(&[3, 3, 2, 2]);
        let l = ws.list([1, 2, 3].into_iter());
        assert_eq!(b.data(), &[0.0; 36]);
        let caps = (a.capacity(), b.capacity());
        assert_eq!(caps, (64, 72), "the first pass reserves the headroom");
        ws.give(b);
        ws.give(a);
        ws.give_list(l);

        ws.begin(1.0, 1.0);
        let a = ws.tensor(&[8, 8]);
        let b = ws.tensor(&[1, 3, 2, 2]);
        assert_eq!((a.capacity(), b.capacity()), caps, "each take gets its own");
        assert_eq!(a.shape(), &[8, 8]);
        assert_eq!(ws.list([7].into_iter()), vec![7]);
    }
}
