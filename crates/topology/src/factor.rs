//! Integer factorization utilities.
//!
//! Hybrid algorithms (paper §6) view a linear array of `p` nodes as a
//! logical `d1 × … × dk` mesh; the search space of hybrid strategies is
//! the set of *ordered* factorizations of `p` into factors ≥ 2 (plus the
//! trivial one-dimensional view). The paper notes the approach "has a
//! heavy dependence on the integer factorization of the dimensions", so
//! these utilities are load-bearing for strategy enumeration.

/// The prime factorization of `n` as an ascending list with multiplicity,
/// e.g. `prime_factors(30) == [2, 3, 5]`, `prime_factors(12) == [2, 2, 3]`.
/// Returns an empty list for `n < 2`.
pub fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2usize;
    while d * d <= n {
        while n.is_multiple_of(d) {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// All divisors of `n` in ascending order, including 1 and `n`.
/// `divisors(0)` is empty.
pub fn divisors(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// All *ordered* factorizations of `p` into factors ≥ 2, each of length at
/// most `max_dims` (0 means unlimited). The trivial factorization `[p]`
/// (the one-dimensional logical view) is included when `p ≥ 2`.
///
/// For `p = 30`, this yields `[30]`, `[2,15]`, `[15,2]`, `[3,10]`,
/// `[10,3]`, `[5,6]`, `[6,5]`, `[2,3,5]`, … — exactly the logical meshes
/// enumerated in the paper's Table 2.
pub fn factorizations(p: usize, max_dims: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if p < 2 {
        return out;
    }
    let mut prefix = Vec::new();
    rec(p, max_dims, &mut prefix, &mut out);
    out
}

fn rec(rem: usize, max_dims: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    // Taking `rem` itself as the final factor closes a factorization.
    prefix.push(rem);
    out.push(prefix.clone());
    prefix.pop();
    if max_dims != 0 && prefix.len() + 1 >= max_dims {
        return;
    }
    for d in divisors(rem) {
        if d >= 2 && d < rem {
            prefix.push(d);
            rec(rem / d, max_dims, prefix, out);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_of_thirty() {
        assert_eq!(prime_factors(30), vec![2, 3, 5]);
    }

    #[test]
    fn primes_of_prime() {
        assert_eq!(prime_factors(31), vec![31]);
    }

    #[test]
    fn primes_with_multiplicity() {
        assert_eq!(prime_factors(512), vec![2; 9]);
        assert_eq!(prime_factors(12), vec![2, 2, 3]);
    }

    #[test]
    fn primes_edge_cases() {
        assert!(prime_factors(0).is_empty());
        assert!(prime_factors(1).is_empty());
    }

    #[test]
    fn divisors_of_30() {
        assert_eq!(divisors(30), vec![1, 2, 3, 5, 6, 10, 15, 30]);
    }

    #[test]
    fn divisors_of_square() {
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn factorizations_of_12() {
        let f = factorizations(12, 0);
        // [12], [2,6], [2,2,3], [2,3,2], [2,2,3]... enumerate explicitly:
        let expect: Vec<Vec<usize>> = vec![
            vec![12],
            vec![2, 6],
            vec![2, 2, 3],
            vec![2, 3, 2],
            vec![3, 4],
            vec![3, 2, 2],
            vec![4, 3],
            vec![6, 2],
        ];
        for e in &expect {
            assert!(f.contains(e), "missing {e:?} in {f:?}");
        }
        assert_eq!(f.len(), expect.len());
    }

    #[test]
    fn factorizations_of_30_contains_paper_table2_meshes() {
        let f = factorizations(30, 0);
        for mesh in [
            vec![30],
            vec![3, 10],
            vec![10, 3],
            vec![2, 15],
            vec![15, 2],
            vec![5, 6],
            vec![6, 5],
            vec![2, 3, 5],
        ] {
            assert!(f.contains(&mesh), "missing {mesh:?}");
        }
    }

    #[test]
    fn factorizations_respect_max_dims() {
        let f = factorizations(30, 2);
        assert!(f.iter().all(|v| v.len() <= 2));
        assert!(f.contains(&vec![5, 6]));
        assert!(!f.contains(&vec![2, 3, 5]));
    }

    #[test]
    fn factorizations_of_prime_is_trivial() {
        assert_eq!(factorizations(13, 0), vec![vec![13]]);
    }

    #[test]
    fn factorizations_small() {
        assert!(factorizations(0, 0).is_empty());
        assert!(factorizations(1, 0).is_empty());
        assert_eq!(factorizations(2, 0), vec![vec![2]]);
    }

    #[test]
    fn prime_factors_multiply_back_below_10k() {
        for n in 2..10_000 {
            assert_eq!(prime_factors(n).iter().product::<usize>(), n);
        }
    }

    #[test]
    fn divisors_divide_and_are_sorted_unique_below_5k() {
        for n in 1..5_000 {
            let d = divisors(n);
            assert!(d.iter().all(|&x| n % x == 0), "n={n}");
            assert!(d.windows(2).all(|w| w[0] < w[1]), "n={n}");
        }
    }

    #[test]
    fn factorizations_multiply_back_and_are_distinct_below_200() {
        for p in 2..200 {
            let fs = factorizations(p, 0);
            for f in &fs {
                assert_eq!(f.iter().product::<usize>(), p);
                assert!(f.iter().all(|&d| d >= 2));
            }
            let set: std::collections::HashSet<_> = fs.iter().collect();
            assert_eq!(set.len(), fs.len(), "p={p}");
        }
    }
}
