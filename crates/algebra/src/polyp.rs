//! Dense polynomials over the prime field Z_p.
//!
//! These are the workhorse for constructing Galois fields GF(p^e): the
//! field is built as `Z_p[x]` modulo a degree-e primitive polynomial, which
//! this module can find by exhaustive search (alphabet sizes in
//! interconnection networks are tiny, so the search space is as well).
//!
//! The same machinery implements the classical tests the paper relies on in
//! Section 3.1: irreducibility, the *order* of a polynomial (the least k
//! with f(x) | x^k − 1), and primitivity (irreducible of order p^n − 1).

use crate::num::{factorize, is_prime, mod_inverse, pow, prime_divisors};

/// A polynomial over Z_p, stored as coefficients `c[i]` of `x^i` with no
/// trailing zeros (the zero polynomial has an empty coefficient vector).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PolyP {
    p: u64,
    coeffs: Vec<u64>,
}

impl std::fmt::Debug for PolyP {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0 (mod {})", self.p);
        }
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .rev()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| match i {
                0 => format!("{c}"),
                1 if c == 1 => "x".to_string(),
                1 => format!("{c}x"),
                _ if c == 1 => format!("x^{i}"),
                _ => format!("{c}x^{i}"),
            })
            .collect();
        write!(f, "{} (mod {})", terms.join(" + "), self.p)
    }
}

impl PolyP {
    /// Builds a polynomial from coefficients of `x^0, x^1, …` (low degree first),
    /// reducing each modulo `p` and trimming trailing zeros.
    ///
    /// # Panics
    /// Panics if `p` is not prime.
    #[must_use]
    pub fn new(p: u64, coeffs: &[u64]) -> Self {
        assert!(is_prime(p), "PolyP requires a prime modulus, got {p}");
        let mut c: Vec<u64> = coeffs.iter().map(|&x| x % p).collect();
        while c.last() == Some(&0) {
            c.pop();
        }
        PolyP { p, coeffs: c }
    }

    /// The zero polynomial over Z_p.
    #[must_use]
    pub fn zero(p: u64) -> Self {
        Self::new(p, &[])
    }

    /// The constant polynomial 1.
    #[must_use]
    pub fn one(p: u64) -> Self {
        Self::new(p, &[1])
    }

    /// The monomial x.
    #[must_use]
    pub fn x(p: u64) -> Self {
        Self::new(p, &[0, 1])
    }

    /// The monomial x^k.
    #[must_use]
    pub fn x_pow(p: u64, k: usize) -> Self {
        let mut c = vec![0u64; k + 1];
        c[k] = 1;
        Self::new(p, &c)
    }

    /// The field characteristic p.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The coefficient of x^i (zero beyond the degree).
    #[must_use]
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// The coefficient slice, low degree first (empty for the zero polynomial).
    #[must_use]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The degree; the zero polynomial is given degree 0 by convention
    /// (call [`PolyP::is_zero`] to distinguish it).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Whether the leading coefficient is 1.
    #[must_use]
    pub fn is_monic(&self) -> bool {
        self.coeffs.last() == Some(&1)
    }

    fn assert_same_field(&self, other: &Self) {
        assert_eq!(self.p, other.p, "polynomials over different prime fields");
    }

    /// Polynomial addition.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_field(other);
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut c = vec![0u64; len];
        for (i, slot) in c.iter_mut().enumerate() {
            *slot = (self.coeff(i) + other.coeff(i)) % self.p;
        }
        Self::new(self.p, &c)
    }

    /// Polynomial subtraction.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.assert_same_field(other);
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut c = vec![0u64; len];
        for (i, slot) in c.iter_mut().enumerate() {
            *slot = (self.coeff(i) + self.p - other.coeff(i)) % self.p;
        }
        Self::new(self.p, &c)
    }

    /// Polynomial multiplication (schoolbook; degrees here are tiny).
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_field(other);
        if self.is_zero() || other.is_zero() {
            return Self::zero(self.p);
        }
        let mut c = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                c[i + j] = (c[i + j] + a * b) % self.p;
            }
        }
        Self::new(self.p, &c)
    }

    /// Multiplication by a scalar from Z_p.
    #[must_use]
    pub fn scale(&self, k: u64) -> Self {
        let c: Vec<u64> = self
            .coeffs
            .iter()
            .map(|&a| a * (k % self.p) % self.p)
            .collect();
        Self::new(self.p, &c)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q·divisor + r` and `deg r < deg divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        self.assert_same_field(divisor);
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let p = self.p;
        let lead_inv = mod_inverse(*divisor.coeffs.last().unwrap(), p)
            .expect("leading coefficient is invertible in a field");
        let mut rem = self.coeffs.clone();
        let dlen = divisor.coeffs.len();
        if rem.len() < dlen {
            return (Self::zero(p), self.clone());
        }
        let mut quot = vec![0u64; rem.len() - dlen + 1];
        for i in (0..quot.len()).rev() {
            let top = rem[i + dlen - 1] % p;
            if top == 0 {
                continue;
            }
            let q = top * lead_inv % p;
            quot[i] = q;
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i + j] = (rem[i + j] + p - q * dc % p) % p;
            }
        }
        (Self::new(p, &quot), Self::new(p, &rem))
    }

    /// The remainder of `self` modulo `divisor`.
    #[must_use]
    pub fn rem(&self, divisor: &Self) -> Self {
        self.div_rem(divisor).1
    }

    /// Monic greatest common divisor.
    #[must_use]
    pub fn gcd(&self, other: &Self) -> Self {
        self.assert_same_field(other);
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        if a.is_zero() {
            return a;
        }
        // Normalise to monic.
        let inv = mod_inverse(*a.coeffs.last().unwrap(), self.p).unwrap();
        a.scale(inv)
    }

    /// Computes `base^exp mod self` where `base` is reduced modulo `self` first.
    #[must_use]
    pub fn pow_mod(&self, base: &Self, mut exp: u64) -> Self {
        let mut result = Self::one(self.p);
        let mut b = base.rem(self);
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.mul(&b).rem(self);
            }
            b = b.mul(&b).rem(self);
            exp >>= 1;
        }
        result
    }

    /// Evaluates the polynomial at `x = a` in Z_p (Horner's rule).
    #[must_use]
    pub fn eval(&self, a: u64) -> u64 {
        let a = a % self.p;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = (acc * a + c) % self.p;
        }
        acc
    }

    /// Irreducibility test over Z_p (Rabin's test): a monic polynomial f of
    /// degree n is irreducible iff x^(p^n) ≡ x (mod f) and
    /// gcd(x^(p^(n/q)) − x, f) = 1 for every prime q dividing n.
    #[must_use]
    pub fn is_irreducible(&self) -> bool {
        let n = self.degree();
        if self.is_zero() || n == 0 {
            return false;
        }
        if n == 1 {
            return true;
        }
        let p = self.p;
        let x = Self::x(p);
        // x^(p^n) mod f via repeated exponentiation by p.
        let mut xp = x.clone();
        for _ in 0..n {
            xp = self.pow_mod(&xp, p);
        }
        if xp.sub(&x).rem(self) != Self::zero(p) {
            return false;
        }
        for q in prime_divisors(n as u64) {
            let k = n / q as usize;
            let mut xq = x.clone();
            for _ in 0..k {
                xq = self.pow_mod(&xq, p);
            }
            let g = self.gcd(&xq.sub(&x));
            if g.degree() != 0 || g.is_zero() {
                return false;
            }
        }
        true
    }

    /// The order of the polynomial: the least k > 0 such that f(x) divides
    /// x^k − 1. Defined for polynomials with non-zero constant term; for an
    /// irreducible degree-n polynomial the order divides p^n − 1.
    ///
    /// Returns `None` if the constant term is zero (x | f, so no such k).
    #[must_use]
    pub fn order(&self) -> Option<u64> {
        if self.is_zero() || self.coeff(0) == 0 {
            return None;
        }
        if self.degree() == 0 {
            return Some(1);
        }
        if self.is_irreducible() {
            // Order divides p^n - 1; strip prime factors greedily.
            let n = self.degree() as u32;
            let group = pow(self.p, n) - 1;
            let x = Self::x(self.p);
            let mut order = group;
            for (q, _) in factorize(group) {
                while order.is_multiple_of(q) && self.pow_mod(&x, order / q) == Self::one(self.p) {
                    order /= q;
                }
            }
            Some(order)
        } else {
            // General (reducible) case: brute force k up to p^n - 1.
            // Only used in tests and diagnostics.
            let n = self.degree() as u32;
            let bound = pow(self.p, n).saturating_mul(2);
            let x = Self::x(self.p);
            (1..=bound).find(|&k| self.pow_mod(&x, k) == Self::one(self.p))
        }
    }

    /// Whether the polynomial is primitive over Z_p: irreducible of degree n
    /// with order exactly p^n − 1 (Section 3.1).
    #[must_use]
    pub fn is_primitive(&self) -> bool {
        let n = self.degree();
        if n == 0 || !self.is_irreducible() {
            return false;
        }
        self.order() == Some(pow(self.p, n as u32) - 1)
    }

    /// Finds a monic primitive polynomial of degree `n` over Z_p by
    /// exhaustive search in lexicographic order of the non-leading
    /// coefficients. Such a polynomial exists for every prime p and n ≥ 1.
    #[must_use]
    pub fn find_primitive(p: u64, n: usize) -> Self {
        assert!(n >= 1);
        let total = pow(p, n as u32);
        for code in 0..total {
            // Decode the n non-leading coefficients from `code`.
            let mut coeffs = vec![0u64; n + 1];
            let mut v = code;
            for c in coeffs.iter_mut().take(n) {
                *c = v % p;
                v /= p;
            }
            coeffs[n] = 1;
            let f = Self::new(p, &coeffs);
            if f.coeff(0) != 0 && f.is_primitive() {
                return f;
            }
        }
        unreachable!("a primitive polynomial of degree {n} exists over GF({p})")
    }

    /// Enumerates all monic irreducible polynomials of degree `n` over Z_p.
    #[must_use]
    pub fn all_irreducible(p: u64, n: usize) -> Vec<Self> {
        let total = pow(p, n as u32);
        let mut out = Vec::new();
        for code in 0..total {
            let mut coeffs = vec![0u64; n + 1];
            let mut v = code;
            for c in coeffs.iter_mut().take(n) {
                *c = v % p;
                v /= p;
            }
            coeffs[n] = 1;
            let f = Self::new(p, &coeffs);
            if f.is_irreducible() {
                out.push(f);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::euler_phi;

    #[test]
    fn construction_trims_and_reduces() {
        let f = PolyP::new(5, &[7, 0, 10, 0, 0]);
        assert_eq!(f.coeffs(), &[2]);
        assert_eq!(f.degree(), 0);
        assert!(PolyP::new(3, &[0, 0]).is_zero());
    }

    #[test]
    fn arithmetic_basics() {
        let p = 7;
        let a = PolyP::new(p, &[1, 2, 3]); // 3x^2 + 2x + 1
        let b = PolyP::new(p, &[6, 5]); // 5x + 6
        assert_eq!(a.add(&b), PolyP::new(p, &[0, 0, 3]));
        assert_eq!(a.sub(&a), PolyP::zero(p));
        let prod = a.mul(&b);
        // (3x^2+2x+1)(5x+6) = 15x^3 + 28x^2 + 17x + 6 = x^3 + 3x + 6 mod 7
        assert_eq!(prod, PolyP::new(p, &[6, 3, 0, 1]));
    }

    #[test]
    fn division_identity() {
        let p = 5;
        let a = PolyP::new(p, &[3, 1, 4, 1, 2]);
        let b = PolyP::new(p, &[2, 0, 1]);
        let (q, r) = a.div_rem(&b);
        assert!(r.degree() < b.degree() || r.is_zero());
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn gcd_of_multiples() {
        let p = 3;
        let g = PolyP::new(p, &[1, 1]); // x + 1
        let a = g.mul(&PolyP::new(p, &[1, 0, 1])); // (x+1)(x²+1), x²+1 irreducible over GF(3)
        let b = g.mul(&PolyP::new(p, &[2, 1])); // (x+1)(x+2)
        let gg = a.gcd(&b);
        // x²+1 and x+2 are coprime, so the gcd is exactly x+1 (monic).
        assert_eq!(gg, PolyP::new(p, &[1, 1]));
    }

    #[test]
    fn eval_horner() {
        let f = PolyP::new(7, &[1, 0, 1]); // x^2 + 1
        assert_eq!(f.eval(0), 1);
        assert_eq!(f.eval(3), 3);
        assert_eq!(f.eval(5), 5);
    }

    #[test]
    fn irreducibility_examples() {
        // x^2 + 1 is irreducible over GF(3) but not over GF(5) (2^2 = -1 mod 5).
        assert!(PolyP::new(3, &[1, 0, 1]).is_irreducible());
        assert!(!PolyP::new(5, &[1, 0, 1]).is_irreducible());
        // x^2 + x + 1 irreducible over GF(2).
        assert!(PolyP::new(2, &[1, 1, 1]).is_irreducible());
        // x^2 + 1 = (x+1)^2 over GF(2).
        assert!(!PolyP::new(2, &[1, 0, 1]).is_irreducible());
        // x^3 + x + 1 irreducible (and primitive) over GF(2).
        assert!(PolyP::new(2, &[1, 1, 0, 1]).is_irreducible());
    }

    #[test]
    fn irreducible_count_matches_necklace_formula() {
        // #monic irreducibles of degree n over GF(p) = (1/n) Σ_{d|n} μ(d) p^(n/d).
        for &(p, n, expected) in &[
            (2u64, 3usize, 2usize),
            (2, 4, 3),
            (3, 2, 3),
            (3, 3, 8),
            (5, 2, 10),
        ] {
            assert_eq!(PolyP::all_irreducible(p, n).len(), expected, "p={p} n={n}");
        }
    }

    #[test]
    fn paper_example_3_1_polynomial_is_primitive() {
        // p(x) = x^2 - x - 3 over GF(5), i.e. x^2 + 4x + 2.
        let f = PolyP::new(5, &[2, 4, 1]);
        assert!(f.is_irreducible());
        assert_eq!(f.order(), Some(24));
        assert!(f.is_primitive());
    }

    #[test]
    fn order_of_non_primitive_irreducible() {
        // x^2 + 1 over GF(3) has order 4 (divides 8 but not primitive).
        let f = PolyP::new(3, &[1, 0, 1]);
        assert!(f.is_irreducible());
        assert_eq!(f.order(), Some(4));
        assert!(!f.is_primitive());
    }

    #[test]
    fn find_primitive_various_fields() {
        for &(p, n) in &[
            (2u64, 1usize),
            (2, 3),
            (2, 5),
            (3, 2),
            (3, 3),
            (5, 2),
            (7, 2),
            (13, 1),
        ] {
            let f = PolyP::find_primitive(p, n);
            assert_eq!(f.degree(), n);
            assert!(f.is_monic());
            assert!(f.is_primitive(), "find_primitive({p},{n}) returned {f:?}");
        }
    }

    #[test]
    fn primitive_count_matches_phi_formula() {
        // #monic primitive polys of degree n over GF(p) = φ(p^n − 1)/n.
        for &(p, n) in &[(2u64, 4usize), (3, 2), (5, 2)] {
            let count = PolyP::all_irreducible(p, n)
                .into_iter()
                .filter(PolyP::is_primitive)
                .count() as u64;
            let expected = euler_phi(pow(p, n as u32) - 1) / n as u64;
            assert_eq!(count, expected, "p={p} n={n}");
        }
    }

    #[test]
    fn order_undefined_for_zero_constant_term() {
        assert_eq!(PolyP::new(3, &[0, 1, 1]).order(), None);
    }
}
