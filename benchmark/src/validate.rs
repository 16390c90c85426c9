//! Inputs made from the seed, and the results they must produce.
//!
//! Every rank can compute every rank's input, so each checks its own
//! result locally against a reference and no extra communication is
//! needed. Inputs change with the round, so a stale buffer from the
//! previous round fails the check. Sums use small whole numbers and are
//! exact in `f64` whatever order the library folds them in.

/// SplitMix64: the benchmark's own generator, so inputs do not change
/// when the library's does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A seeded byte template all payloads are derived from.
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    /// A template of `len` bytes; longer payloads wrap around it.
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut bytes = Vec::with_capacity(len.next_multiple_of(8));
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len.max(1));
        Pattern { bytes }
    }

    /// Calls `f(element, template byte)` for every element of `buf`,
    /// the template wrapping around from `offset`. Walking it in runs
    /// keeps the inner loop free of a division per element.
    fn zip_mut<T>(&self, offset: usize, buf: &mut [T], f: impl Fn(&mut T, u8)) {
        let mut pos = offset % self.bytes.len();
        let mut rest = buf;
        while !rest.is_empty() {
            let take = (self.bytes.len() - pos).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            for (x, &t) in head.iter_mut().zip(&self.bytes[pos..pos + take]) {
                f(x, t);
            }
            rest = tail;
            pos = 0;
        }
    }

    /// Whether `ok(element, template byte)` holds for every element.
    fn zip_all<T>(&self, offset: usize, buf: &[T], ok: impl Fn(&T, u8) -> bool) -> bool {
        let mut pos = offset % self.bytes.len();
        let mut rest = buf;
        while !rest.is_empty() {
            let take = (self.bytes.len() - pos).min(rest.len());
            let (head, tail) = rest.split_at(take);
            if !head
                .iter()
                .zip(&self.bytes[pos..pos + take])
                .all(|(x, &t)| ok(x, t))
            {
                return false;
            }
            rest = tail;
            pos = 0;
        }
        true
    }

    /// The broadcast payload of `round`.
    pub fn fill_bcast(&self, round: u32, buf: &mut [u8]) {
        self.zip_mut(0, buf, |b, t| *b = t ^ round as u8);
    }

    pub fn check_bcast(&self, round: u32, buf: &[u8]) -> bool {
        self.check_bcast_at(round, 0, buf)
    }

    /// Whether `part` is bytes `offset..` of the broadcast payload.
    pub fn check_bcast_at(&self, round: u32, offset: usize, part: &[u8]) -> bool {
        self.zip_all(offset, part, |&b, t| b == t ^ round as u8)
    }

    fn gather_stamp(rank: usize, round: u32) -> u8 {
        (rank as u8)
            .wrapping_mul(37)
            .wrapping_add(round as u8)
            .wrapping_add(1)
    }

    /// Rank `rank`'s rank-stamped allgather block for `round`.
    pub fn fill_gather(&self, rank: usize, round: u32, block: &mut [u8]) {
        let stamp = Self::gather_stamp(rank, round);
        self.zip_mut(0, block, |b, t| *b = t.wrapping_add(stamp));
    }

    /// Whether `all` holds every rank's block in rank order.
    pub fn check_gather(&self, round: u32, p: usize, all: &[u8]) -> bool {
        let block = all.len() / p;
        all.len() == block * p
            && all
                .chunks_exact(block.max(1))
                .enumerate()
                .all(|(r, c)| self.check_gather_block(r, round, 0, c))
    }

    /// Whether `part` is bytes `offset..` of rank `rank`'s block.
    pub fn check_gather_block(&self, rank: usize, round: u32, offset: usize, part: &[u8]) -> bool {
        let stamp = Self::gather_stamp(rank, round);
        self.zip_all(offset, part, |&b, t| b == t.wrapping_add(stamp))
    }

    /// Rank `rank`'s contribution to a sum whose result starts at
    /// element `offset` of the whole vector.
    pub fn fill_sum(&self, rank: usize, round: u32, offset: usize, buf: &mut [f64]) {
        let add = (rank + 1) as f64 + f64::from(round % 7);
        self.zip_mut(offset, buf, |x, t| *x = f64::from(t) + add);
    }

    /// Whether `buf` holds the sum over `p` ranks of elements
    /// `offset..offset + buf.len()`.
    pub fn check_sum(&self, p: usize, round: u32, offset: usize, buf: &[f64]) -> bool {
        let pf = p as f64;
        let add = pf * f64::from(round % 7) + (p * (p + 1) / 2) as f64;
        self.zip_all(offset, buf, |&x, t| x == pf * f64::from(t) + add)
    }
}

/// Failure accounting of one rank over one segment. A round fails when
/// any of its calls returns `Err` or any result differs from its
/// reference.
#[derive(Debug, Default)]
pub struct Tally {
    round_failed: bool,
    /// Indices of the failed rounds, ascending.
    pub failed_rounds: Vec<u32>,
}

impl Tally {
    /// Records the outcome of one call of the current round.
    pub fn call<E>(&mut self, result: &Result<(), E>, valid: bool) {
        if result.is_err() || !valid {
            self.round_failed = true;
        }
    }

    /// Closes round `index`; returns whether it failed.
    pub fn end_round(&mut self, index: u32) -> bool {
        let failed = std::mem::take(&mut self.round_failed);
        if failed {
            self.failed_rounds.push(index);
        }
        failed
    }
}

/// Rounds that failed on at least one rank.
pub fn failed_union<'a>(per_rank: impl IntoIterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut all: Vec<u32> = per_rank.into_iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            Pattern::new(7, 100),
            Pattern::new(7, 100),
            Pattern::new(8, 100),
        );
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
        assert_eq!(a.bytes.len(), 100);
    }

    #[test]
    fn references_accept_correct_results() {
        let pat = Pattern::new(1994, 64);
        let mut b = vec![0u8; 200];
        pat.fill_bcast(9, &mut b);
        assert!(pat.check_bcast(9, &b));
        assert!(!pat.check_bcast(10, &b), "last round's payload is stale");

        let p = 3;
        let mut all = vec![0u8; p * 5];
        for r in 0..p {
            pat.fill_gather(r, 4, &mut all[r * 5..(r + 1) * 5]);
        }
        assert!(pat.check_gather(4, p, &all));
        all.swap(0, 5);
        assert!(!pat.check_gather(4, p, &all), "blocks out of rank order");

        // Fold three ranks' contributions in two different orders.
        let n = 16;
        let contrib: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                let mut v = vec![0.0; n];
                pat.fill_sum(r, 5, 8, &mut v);
                v
            })
            .collect();
        for order in [[0, 1, 2], [2, 0, 1]] {
            let mut acc = vec![0.0; n];
            for r in order {
                for (a, x) in acc.iter_mut().zip(&contrib[r]) {
                    *a += x;
                }
            }
            assert!(pat.check_sum(p, 5, 8, &acc));
            assert!(!pat.check_sum(p, 5, 9, &acc), "wrong block offset");
        }
    }

    #[test]
    fn corrupted_byte_and_injected_err_both_raise_the_fail_ratio() {
        let pat = Pattern::new(3, 32);
        let mut tally = Tally::default();
        let rounds = 4u32;
        for round in 0..rounds {
            let mut buf = vec![0u8; 32];
            pat.fill_bcast(round, &mut buf);
            if round == 1 {
                buf[17] ^= 0x40; // one flipped bit in the delivered payload
            }
            let result: Result<(), &str> = if round == 2 { Err("injected") } else { Ok(()) };
            tally.call(&result, pat.check_bcast(round, &buf));
            tally.end_round(round);
        }
        assert_eq!(tally.failed_rounds, [1, 2]);
        let fail_ratio = tally.failed_rounds.len() as f64 / f64::from(rounds);
        assert_eq!(fail_ratio, 0.5);
    }

    #[test]
    fn a_round_fails_if_any_rank_failed_it() {
        let ranks: [&[u32]; 3] = [&[2, 9], &[], &[9, 4]];
        assert_eq!(failed_union(ranks), [2, 4, 9]);
    }
}
