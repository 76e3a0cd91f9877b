//! Seeded inputs and the oracles every answer is checked against.
//!
//! A run's inputs come from its `--seed` alone: the image pool is
//! `SynthDigits` drawn from the seed, and request streams (which image,
//! which shard key, when it is due) come from a `Prng` forked from it. The
//! program under test receives only the generated tensors.

use fluid_data::{Dataset, SynthDigits};
use fluid_tensor::{Prng, Tensor};

/// Images in every workload's request pool.
pub const POOL_IMAGES: usize = 256;

/// Single-image `[1, 1, 28, 28]` requests drawn from the seed, and the
/// labelled dataset they come from (for the training-step replays).
#[derive(Debug, Clone)]
pub struct InputPool {
    pub images: Vec<Tensor>,
    pub dataset: Dataset,
}

impl InputPool {
    /// Generates `n` images from `seed`.
    pub fn new(seed: u64, n: usize) -> InputPool {
        let ds = SynthDigits::new(seed ^ 0x00e2_eb0e_9c11_5eed).generate(n);
        let images = (0..n).map(|i| ds.gather(&[i]).0).collect();
        InputPool {
            images,
            dataset: ds,
        }
    }

    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Stacks the images at `idx` into one `[k, 1, 28, 28]` batch.
    pub fn batch(&self, idx: &[usize]) -> Tensor {
        let row = self.images[0].numel();
        let mut dims = self.images[0].dims().to_vec();
        dims[0] = idx.len();
        let mut data = Vec::with_capacity(row * idx.len());
        for &i in idx {
            data.extend_from_slice(self.images[i].data());
        }
        Tensor::from_vec(data, &dims)
    }
}

impl InputPool {
    /// `k` batches of `rows` consecutive pool images each, for replaying
    /// a layer at a given batch size.
    pub fn batches(&self, rows: usize, k: usize) -> Vec<Tensor> {
        (0..k)
            .map(|b| {
                let idx: Vec<usize> = (0..rows).map(|r| (b * rows + r) % self.len()).collect();
                self.batch(&idx)
            })
            .collect()
    }
}

/// A named stream of draws derived from the run seed, so two streams of
/// one run are independent and each repeats exactly for a given seed.
pub fn stream(seed: u64, label: u64) -> Prng {
    Prng::new(seed).fork(label)
}

/// Due times (seconds from phase start) of a Poisson process at `rate`
/// per second over `duration` seconds.
pub fn poisson_schedule(rng: &mut Prng, rate: f64, duration: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// The expected logits of every pool image under one model, computed in
/// set-up; served answers must match them bit for bit.
#[derive(Debug, Clone)]
pub struct Oracle {
    logits: Vec<Vec<f32>>,
}

impl Oracle {
    /// Runs `f` on each pool image (batch 1) and keeps its logits.
    pub fn new(pool: &InputPool, mut f: impl FnMut(&Tensor) -> Tensor) -> Oracle {
        let logits = pool.images.iter().map(|x| f(x).data().to_vec()).collect();
        Oracle { logits }
    }

    /// Whether `got` is bit-identical to the oracle for pool image `i`.
    pub fn matches(&self, i: usize, got: &Tensor) -> bool {
        let want = &self.logits[i];
        got.numel() == want.len()
            && got
                .data()
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The expected logits of pool image `i` as a `[1, classes]` tensor.
    #[cfg(test)]
    pub fn expected(&self, i: usize) -> Tensor {
        Tensor::from_vec(self.logits[i].clone(), &[1, self.logits[i].len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Tally;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_seed_gives_one_pool_and_one_schedule() {
        let (a, b) = (InputPool::new(7, 16), InputPool::new(7, 16));
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(bits(x), bits(y));
        }
        let s1 = poisson_schedule(&mut stream(7, 1), 500.0, 2.0);
        let s2 = poisson_schedule(&mut stream(7, 1), 500.0, 2.0);
        assert_eq!(s1, s2);
        assert!(s1.windows(2).all(|w| w[0] < w[1]));
        // ~1000 arrivals expected; a Poisson count this far off is a bug.
        assert!((800..1200).contains(&s1.len()), "{} arrivals", s1.len());

        let other = InputPool::new(8, 16);
        assert_ne!(bits(&a.images[0]), bits(&other.images[0]));
        assert_ne!(s1, poisson_schedule(&mut stream(8, 1), 500.0, 2.0));
        assert_ne!(s1, poisson_schedule(&mut stream(7, 2), 500.0, 2.0));
    }

    #[test]
    fn a_corrupted_answer_is_counted_as_failed() {
        let pool = InputPool::new(3, 4);
        let oracle = Oracle::new(&pool, |x| {
            Tensor::from_vec(x.data()[..10].to_vec(), &[1, 10])
        });
        let mut tally = Tally::default();
        for i in 0..pool.len() {
            tally.answer(Some(oracle.matches(i, &oracle.expected(i))));
        }
        // Flip the lowest mantissa bit of one logit: still "close", but
        // not the oracle's answer.
        let mut bad = oracle.expected(2);
        let v = bad.data()[5];
        bad.data_mut()[5] = f32::from_bits(v.to_bits() ^ 1);
        tally.answer(Some(oracle.matches(2, &bad)));
        tally.answer(None);
        assert_eq!(
            tally,
            Tally {
                sent: 6,
                ok: 4,
                shed: 0,
                failed: 2
            }
        );
    }

    #[test]
    fn batches_stack_pool_rows_in_order() {
        let pool = InputPool::new(5, 4);
        let b = pool.batch(&[3, 0]);
        assert_eq!(b.dims(), &[2, 1, 28, 28]);
        assert_eq!(b.example(0), pool.images[3].data());
        assert_eq!(b.example(1), pool.images[0].data());
    }
}
