//! Berlekamp–Massey: recovering the shortest linear recurrence of a
//! sequence over GF(q).
//!
//! The maximal cycles of Chapter 3 are *defined* by a linear recurrence;
//! Berlekamp–Massey runs the construction backwards, recovering the
//! recurrence (and hence the characteristic polynomial, Equation 3.2) from
//! the symbol sequence alone. It is used to validate generated cycles, to
//! identify which translate an observed window belongs to, and as the
//! standard tool for linear-complexity analysis of de Bruijn-like
//! sequences \[Fre82\].

use crate::gf::GField;
use crate::polygf::PolyGf;

/// The result of a Berlekamp–Massey synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearComplexity {
    /// The linear complexity L: the order of the shortest recurrence that
    /// generates the sequence.
    pub complexity: usize,
    /// Recurrence coefficients `[a_0, …, a_{L−1}]` such that
    /// `s_{L+i} = a_{L−1} s_{L−1+i} + … + a_0 s_i` (Equation 3.1 form).
    pub recurrence: Vec<u64>,
}

impl LinearComplexity {
    /// The characteristic polynomial x^L − a_{L−1}x^{L−1} − … − a_0 of the
    /// recovered recurrence.
    #[must_use]
    pub fn characteristic_polynomial(&self, field: &GField) -> PolyGf {
        PolyGf::from_recurrence(&self.recurrence, field)
    }
}

/// Runs Berlekamp–Massey over GF(q) on the (non-circular) prefix `sequence`,
/// returning the shortest recurrence that reproduces it.
///
/// For a maximal sequence of B(d,n) any window of length ≥ 2n recovers the
/// defining degree-n primitive recurrence exactly.
#[must_use]
pub fn berlekamp_massey(field: &GField, sequence: &[u64]) -> LinearComplexity {
    let n = sequence.len();
    // Connection polynomials c(x), b(x) with c_0 = b_0 = 1: the recurrence is
    // s_j = −(c_1 s_{j-1} + … + c_L s_{j-L}).
    let mut c = vec![0u64; n + 1];
    let mut b = vec![0u64; n + 1];
    c[0] = 1;
    b[0] = 1;
    let mut l = 0usize; // current complexity
    let mut m = 1usize; // steps since last update of b
    let mut last_discrepancy = 1u64; // discrepancy when b was last updated

    for i in 0..n {
        // Discrepancy d = s_i + Σ_{j=1..L} c_j s_{i-j}.
        let mut d = sequence[i];
        for j in 1..=l {
            d = field.add(d, field.mul(c[j], sequence[i - j]));
        }
        if d == 0 {
            m += 1;
            continue;
        }
        let coef = field.mul(d, field.inv(last_discrepancy));
        if 2 * l <= i {
            let old_c = c.clone();
            for j in 0..=n - m {
                c[j + m] = field.sub(c[j + m], field.mul(coef, b[j]));
            }
            l = i + 1 - l;
            b = old_c;
            last_discrepancy = d;
            m = 1;
        } else {
            for j in 0..=n - m {
                c[j + m] = field.sub(c[j + m], field.mul(coef, b[j]));
            }
            m += 1;
        }
    }

    // Convert the connection polynomial into Equation-3.1 recurrence
    // coefficients: s_{L+i} = Σ_k a_k s_{k+i} with a_k = −c_{L−k}.
    let recurrence: Vec<u64> = (0..l).map(|k| field.neg(c[l - k])).collect();
    LinearComplexity {
        complexity: l,
        recurrence,
    }
}

/// Convenience check: does `recurrence` (Equation 3.1 coefficients)
/// generate `sequence`?
#[must_use]
pub fn recurrence_generates(field: &GField, recurrence: &[u64], sequence: &[u64]) -> bool {
    let l = recurrence.len();
    if sequence.len() <= l {
        return true;
    }
    (l..sequence.len()).all(|i| {
        let predicted = recurrence.iter().enumerate().fold(0u64, |acc, (k, &a)| {
            field.add(acc, field.mul(a, sequence[i - l + k]))
        });
        predicted == sequence[i]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::{maximal_sequence, maximal_sequence_with, Lfsr};

    #[test]
    fn recovers_the_example_3_1_recurrence() {
        // s_{2+i} = s_{1+i} + 3 s_i over GF(5).
        let field = GField::new(5);
        let poly = PolyGf::new(&[2, 4, 1]);
        let seq = maximal_sequence_with(&field, &poly, &[0, 1]);
        let lc = berlekamp_massey(&field, &seq);
        assert_eq!(lc.complexity, 2);
        assert_eq!(lc.recurrence, vec![3, 1]);
        assert_eq!(lc.characteristic_polynomial(&field), poly);
    }

    #[test]
    fn recovers_recurrences_of_maximal_sequences() {
        for (d, n) in [(2u64, 5usize), (3, 3), (4, 3), (8, 2), (9, 2)] {
            let (field, seq) = maximal_sequence(d, n);
            let lc = berlekamp_massey(&field, &seq);
            assert_eq!(lc.complexity, n, "d={d} n={n}");
            assert!(recurrence_generates(&field, &lc.recurrence, &seq));
            assert!(lc.characteristic_polynomial(&field).is_primitive(&field));
        }
    }

    #[test]
    fn short_prefix_suffices() {
        let (field, seq) = maximal_sequence(5, 3);
        let lc_full = berlekamp_massey(&field, &seq);
        let lc_prefix = berlekamp_massey(&field, &seq[..6]);
        assert_eq!(lc_full.recurrence, lc_prefix.recurrence);
    }

    #[test]
    fn constant_and_zero_sequences() {
        let field = GField::new(7);
        let zeros = vec![0u64; 10];
        let lc = berlekamp_massey(&field, &zeros);
        assert_eq!(lc.complexity, 0);
        // A nonzero constant sequence has complexity 1 with a_0 = 1.
        let ones = vec![3u64; 10];
        let lc = berlekamp_massey(&field, &ones);
        assert_eq!(lc.complexity, 1);
        assert!(recurrence_generates(&field, &lc.recurrence, &ones));
    }

    #[test]
    fn random_lfsr_roundtrip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for q in [4u64, 5, 9, 13] {
            let field = GField::new(q);
            for order in 2..=4usize {
                let recurrence: Vec<u64> = (0..order).map(|_| rng.gen_range(0..q)).collect();
                let mut initial: Vec<u64> = (0..order).map(|_| rng.gen_range(0..q)).collect();
                if initial.iter().all(|&x| x == 0) {
                    initial[0] = 1;
                }
                let mut lfsr = Lfsr::new(field.clone(), &recurrence, &initial);
                let seq = lfsr.generate(4 * order + 8);
                let lc = berlekamp_massey(&field, &seq);
                // The recovered recurrence may be shorter (the sequence can be
                // degenerate) but must regenerate the observed data.
                assert!(lc.complexity <= order);
                assert!(
                    recurrence_generates(&field, &lc.recurrence, &seq),
                    "q={q} order={order} rec={recurrence:?} got={lc:?}"
                );
            }
        }
    }
}
