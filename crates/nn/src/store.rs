//! Long-lived trainable parameters and gradient collection.

use std::collections::BTreeMap;
use std::fmt;

use crate::Tensor;

/// Why a serialized weight blob failed to load.
///
/// Deserialization is total: every malformed input maps to one of these
/// variants, never a panic, and the store is left untouched on error (the
/// restored tensors are committed only after the whole blob validates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WeightsError {
    /// The blob ended before its declared contents (`needed` more bytes
    /// than the `available` remainder).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes left in the blob.
        available: usize,
    },
    /// The blob's tensor count differs from the registered parameters.
    TensorCount {
        /// Count declared by the blob.
        blob: usize,
        /// Count registered in the store.
        store: usize,
    },
    /// A tensor's shape differs from the registered parameter.
    ShapeMismatch {
        /// Which tensor (registration order).
        index: usize,
        /// Shape declared by the blob.
        blob: Vec<usize>,
        /// Shape registered in the store.
        store: Vec<usize>,
    },
    /// A declared dimension is implausibly large (corrupt length field);
    /// rejected before any allocation is attempted.
    DimTooLarge {
        /// Which tensor (registration order).
        index: usize,
        /// The offending dimension value.
        dim: usize,
    },
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, available } => {
                write!(f, "truncated weight blob: needed {needed} more bytes, {available} left")
            }
            Self::TensorCount { blob, store } => {
                write!(f, "blob has {blob} tensors, store has {store}")
            }
            Self::ShapeMismatch { index, blob, store } => {
                write!(f, "tensor {index} shape {blob:?} != registered {store:?}")
            }
            Self::DimTooLarge { index, dim } => {
                write!(f, "tensor {index} declares an implausible dimension {dim}")
            }
        }
    }
}

impl std::error::Error for WeightsError {}

/// Per-dimension sanity cap for [`ParamStore::load_bytes`]: no real layer
/// in this workspace comes near it, but a corrupt length field easily
/// does, and rejecting early avoids attempting a multi-gigabyte
/// allocation on garbage input.
const MAX_DIM: usize = 1 << 28;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

/// Owns all trainable tensors of a model.
///
/// Layers keep [`ParamId`] handles; each forward pass injects the current
/// values into a [`crate::Tape`] and optimizers update them from
/// [`Grads`].
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter; returns its handle.
    pub fn register(&mut self, init: Tensor) -> ParamId {
        self.tensors.push(init);
        ParamId(self.tensors.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` if the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// The current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Iterates over `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.tensors.iter().enumerate().map(|(i, t)| (ParamId(i), t))
    }

    /// Serializes all parameters into a simple length-prefixed byte blob
    /// (shape rank, dims, then little-endian f32s, per tensor).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &v in t.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores parameter values from [`Self::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`WeightsError`] if the blob is truncated, declares a
    /// corrupt dimension, or its shapes do not match this store's
    /// registered parameters. On error the store is unchanged.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> Result<(), WeightsError> {
        let mut cur = 0usize;
        let mut take = |n: usize| -> Result<&[u8], WeightsError> {
            // `cur <= bytes.len()` always holds, so the subtraction is safe
            // and the comparison cannot overflow the way `cur + n` could.
            if n > bytes.len() - cur {
                return Err(WeightsError::Truncated { needed: n, available: bytes.len() - cur });
            }
            let s = &bytes[cur..cur + n];
            cur += n;
            Ok(s)
        };
        let count = le_u32(take(4)?) as usize;
        if count != self.tensors.len() {
            return Err(WeightsError::TensorCount { blob: count, store: self.tensors.len() });
        }
        let mut restored = Vec::with_capacity(count);
        for i in 0..count {
            let rank = le_u32(take(4)?) as usize;
            if rank > 8 {
                // A corrupt rank would otherwise drive the dim loop below
                // through up to 2^32 reads of garbage.
                return Err(WeightsError::DimTooLarge { index: i, dim: rank });
            }
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                let d = le_u32(take(4)?) as usize;
                if d > MAX_DIM {
                    return Err(WeightsError::DimTooLarge { index: i, dim: d });
                }
                shape.push(d);
            }
            if shape != self.tensors[i].shape() {
                return Err(WeightsError::ShapeMismatch {
                    index: i,
                    blob: shape,
                    store: self.tensors[i].shape().to_vec(),
                });
            }
            let volume: usize = shape.iter().product();
            let raw = take(volume * 4)?;
            // chunks_exact(4) guarantees 4-byte chunks, so indexing is safe.
            let data =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
            restored.push(Tensor::from_vec(&shape, data));
        }
        self.tensors = restored;
        Ok(())
    }
}

/// Decodes a little-endian u32 from a slice of at least 4 bytes (callers
/// obtain it from `take(4)`, which guarantees the length).
fn le_u32(s: &[u8]) -> u32 {
    let mut arr = [0u8; 4];
    arr.copy_from_slice(&s[..4]);
    u32::from_le_bytes(arr)
}

/// Gradients produced by [`crate::Tape::backward`]: one per parameter and
/// one per constant leaf the loss depends on. The sweep gives every other
/// node's gradient back to the tape's arena once the node is processed.
#[derive(Debug, Default)]
pub struct Grads {
    // BTreeMap, not HashMap: `norm()` and `merge_sum()` iterate this map,
    // and float accumulation order must not depend on hasher state.
    by_param: BTreeMap<ParamId, Tensor>,
    /// Indexed by tape node; only constant leaves hold a gradient.
    by_leaf: Vec<Option<Tensor>>,
}

impl Grads {
    pub(crate) fn insert_param(&mut self, id: ParamId, g: Tensor) {
        self.by_param.insert(id, g);
    }

    pub(crate) fn set_leaf_grads(&mut self, grads: Vec<Option<Tensor>>) {
        self.by_leaf = grads;
    }

    /// Removes and yields the constant leaves' gradients.
    pub(crate) fn take_leaf_grads(&mut self) -> impl Iterator<Item = Tensor> {
        std::mem::take(&mut self.by_leaf).into_iter().flatten()
    }

    /// Gradient of the loss with respect to parameter `id`, if it
    /// participated in the forward pass.
    pub fn of(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Gradient with respect to the constant leaf `var_id` (see
    /// [`crate::Tape::constant`] and [`crate::Var::id`]); useful for tests
    /// and saliency inspection. Answers for constant leaves only: `None`
    /// for a parameter's leaf (read it with [`Grads::of`]) and for every
    /// other node, whose gradient the sweep has given back.
    pub fn wrt(&self, var_id: usize) -> Option<&Tensor> {
        self.by_leaf.get(var_id).and_then(Option::as_ref)
    }

    /// Global gradient L2 norm over all parameters.
    pub fn norm(&self) -> f32 {
        self.by_param.values().map(|t| t.norm().powi(2)).sum::<f32>().sqrt()
    }

    /// Adds `other`'s parameter gradients into `self` (elementwise).
    /// Constant-leaf gradients are dropped — they are meaningless across
    /// tapes.
    ///
    /// # Panics
    ///
    /// Panics if a parameter appears in both with different shapes.
    pub fn merge_sum(&mut self, other: Grads) {
        self.by_leaf.clear();
        for (id, g) in other.by_param {
            match self.by_param.get_mut(&id) {
                Some(acc) => acc.add_assign(&g),
                None => {
                    self.by_param.insert(id, g);
                }
            }
        }
    }

    /// Reduces gradient sets with a fixed-shape pairwise tree:
    /// `(0+1) + (2+3) + …`, recursively. Because the tree's shape depends
    /// only on `items.len()`, the floating-point result is a pure function
    /// of the inputs and their order — independent of thread count — which
    /// keeps multi-design training deterministic.
    ///
    /// Returns empty `Grads` for an empty input.
    #[must_use]
    pub fn tree_sum(mut items: Vec<Grads>) -> Grads {
        if items.is_empty() {
            return Grads::default();
        }
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            let mut it = items.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge_sum(b);
                }
                next.push(a);
            }
            items = next;
        }
        // The loop above leaves exactly one element; default is unreachable.
        items.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn register_and_access() {
        let mut s = ParamStore::new();
        let a = s.register(Tensor::zeros(&[2, 3]));
        let b = s.register(Tensor::full(&[4], 1.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 10);
        assert_eq!(s.value(a).shape(), &[2, 3]);
        s.value_mut(b).data_mut()[0] = 9.0;
        assert_eq!(s.value(b).data()[0], 9.0);
    }

    #[test]
    fn byte_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut s = ParamStore::new();
        s.register(Tensor::uniform(&mut rng, &[3, 5], 1.0));
        s.register(Tensor::uniform(&mut rng, &[7], 2.0));
        let bytes = s.to_bytes();
        let mut s2 = ParamStore::new();
        s2.register(Tensor::zeros(&[3, 5]));
        s2.register(Tensor::zeros(&[7]));
        s2.load_bytes(&bytes).unwrap();
        for ((_, a), (_, b)) in s.iter().zip(s2.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn load_rejects_mismatched_shapes() {
        let mut s = ParamStore::new();
        s.register(Tensor::zeros(&[2, 2]));
        let bytes = s.to_bytes();
        let mut other = ParamStore::new();
        other.register(Tensor::zeros(&[4]));
        assert!(other.load_bytes(&bytes).is_err());
    }

    #[test]
    fn tree_sum_adds_disjoint_and_shared_params() {
        let (a, b) = (ParamId(0), ParamId(1));
        let mk = |id: ParamId, v: f32| {
            let mut g = Grads::default();
            g.insert_param(id, Tensor::full(&[2], v));
            g
        };
        let mut shared = mk(a, 1.0);
        shared.insert_param(b, Tensor::full(&[3], 10.0));
        let total = Grads::tree_sum(vec![shared, mk(a, 2.0), mk(a, 4.0)]);
        assert_eq!(total.of(a).unwrap().data(), &[7.0, 7.0]);
        assert_eq!(total.of(b).unwrap().data(), &[10.0, 10.0, 10.0]);
        assert!(Grads::tree_sum(vec![]).of(a).is_none());
    }

    #[test]
    fn load_rejects_truncation() {
        let mut s = ParamStore::new();
        s.register(Tensor::zeros(&[2, 2]));
        let bytes = s.to_bytes();
        let mut s2 = ParamStore::new();
        s2.register(Tensor::zeros(&[2, 2]));
        assert!(s2.load_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}
