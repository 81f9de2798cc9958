//! Polynomials with coefficients in GF(q), and the primitive-polynomial
//! search over extension fields.
//!
//! Section 3.1 of the paper needs a primitive polynomial of degree n over
//! GF(d) for *any* prime power d (e.g. GF(4) in Example 3.2). When d is a
//! prime, [`crate::polyp::PolyP`] suffices; this module handles the general
//! case by working over a [`GField`]. The characteristic polynomial of the
//! maximal-cycle recurrence (Equation 3.2) lives here.
//!
//! Coefficients are stored as field-element codes (low degree first). All
//! operations take the field explicitly so the polynomial itself stays a
//! plain value type.

use crate::gf::GField;
use crate::num::{checked_pow, factorize, prime_divisors};

/// A polynomial over GF(q); `coeffs[i]` is the coefficient (a field-element
/// code) of x^i. No trailing zeros are stored.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PolyGf {
    coeffs: Vec<u64>,
}

impl PolyGf {
    /// Builds a polynomial from coefficient codes (low degree first).
    #[must_use]
    pub fn new(coeffs: &[u64]) -> Self {
        let mut c = coeffs.to_vec();
        while c.last() == Some(&0) {
            c.pop();
        }
        PolyGf { coeffs: c }
    }

    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        PolyGf { coeffs: Vec::new() }
    }

    /// The constant polynomial 1.
    #[must_use]
    pub fn one() -> Self {
        PolyGf { coeffs: vec![1] }
    }

    /// The monomial x.
    #[must_use]
    pub fn x() -> Self {
        PolyGf { coeffs: vec![0, 1] }
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The degree (0 for the zero polynomial; use [`PolyGf::is_zero`]).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// The coefficient of x^i.
    #[must_use]
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// The coefficient slice (low degree first).
    #[must_use]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Polynomial addition over `f`.
    #[must_use]
    pub fn add(&self, other: &Self, f: &GField) -> Self {
        let len = self.coeffs.len().max(other.coeffs.len());
        let c: Vec<u64> = (0..len)
            .map(|i| f.add(self.coeff(i), other.coeff(i)))
            .collect();
        Self::new(&c)
    }

    /// Polynomial subtraction over `f`.
    #[must_use]
    pub fn sub(&self, other: &Self, f: &GField) -> Self {
        let len = self.coeffs.len().max(other.coeffs.len());
        let c: Vec<u64> = (0..len)
            .map(|i| f.sub(self.coeff(i), other.coeff(i)))
            .collect();
        Self::new(&c)
    }

    /// Polynomial multiplication over `f` (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &Self, f: &GField) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut c = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                c[i + j] = f.add(c[i + j], f.mul(a, b));
            }
        }
        Self::new(&c)
    }

    /// Euclidean division: `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &Self, f: &GField) -> (Self, Self) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dlen = divisor.coeffs.len();
        if self.coeffs.len() < dlen {
            return (Self::zero(), self.clone());
        }
        let lead_inv = f.inv(*divisor.coeffs.last().unwrap());
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0u64; rem.len() - dlen + 1];
        for i in (0..quot.len()).rev() {
            let top = rem[i + dlen - 1];
            if top == 0 {
                continue;
            }
            let q = f.mul(top, lead_inv);
            quot[i] = q;
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i + j] = f.sub(rem[i + j], f.mul(q, dc));
            }
        }
        (Self::new(&quot), Self::new(&rem))
    }

    /// Remainder modulo `divisor`.
    #[must_use]
    pub fn rem(&self, divisor: &Self, f: &GField) -> Self {
        self.div_rem(divisor, f).1
    }

    /// Monic gcd.
    #[must_use]
    pub fn gcd(&self, other: &Self, f: &GField) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b, f);
            a = b;
            b = r;
        }
        if a.is_zero() {
            return a;
        }
        let inv = f.inv(*a.coeffs.last().unwrap());
        let c: Vec<u64> = a.coeffs.iter().map(|&x| f.mul(x, inv)).collect();
        Self::new(&c)
    }

    /// `base^exp mod self` over `f`.
    #[must_use]
    pub fn pow_mod(&self, base: &Self, mut exp: u64, f: &GField) -> Self {
        let mut result = Self::one();
        let mut b = base.rem(self, f);
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.mul(&b, f).rem(self, f);
            }
            b = b.mul(&b, f).rem(self, f);
            exp >>= 1;
        }
        result
    }

    /// Irreducibility over GF(q) (Rabin's test).
    #[must_use]
    pub fn is_irreducible(&self, f: &GField) -> bool {
        let n = self.degree();
        if self.is_zero() || n == 0 {
            return false;
        }
        if n == 1 {
            return true;
        }
        let q = f.order();
        let x = Self::x();
        // x^(q^n) mod self, computed by n successive q-th powers.
        let mut xq = x.clone();
        for _ in 0..n {
            xq = self.pow_mod(&xq, q, f);
        }
        if !xq.sub(&x, f).rem(self, f).is_zero() {
            return false;
        }
        for r in prime_divisors(n as u64) {
            let k = n / r as usize;
            let mut xr = x.clone();
            for _ in 0..k {
                xr = self.pow_mod(&xr, q, f);
            }
            let g = self.gcd(&xr.sub(&x, f), f);
            if g.degree() != 0 || g.is_zero() {
                return false;
            }
        }
        true
    }

    /// The order of the polynomial over GF(q): the least k > 0 with
    /// self | x^k − 1. Requires an irreducible polynomial with nonzero
    /// constant term; returns `None` otherwise (or if q^n − 1 overflows).
    #[must_use]
    pub fn order(&self, f: &GField) -> Option<u64> {
        if self.is_zero() || self.coeff(0) == 0 || !self.is_irreducible(f) {
            return None;
        }
        let n = self.degree() as u32;
        let group = checked_pow(f.order(), n)? - 1;
        let x = Self::x();
        let mut order = group;
        for (r, _) in factorize(group) {
            while order % r == 0 && self.pow_mod(&x, order / r, f) == Self::one() {
                order /= r;
            }
        }
        Some(order)
    }

    /// Whether the polynomial is primitive over GF(q): irreducible of degree
    /// n and order q^n − 1 (Section 3.1's definition for the characteristic
    /// polynomial of a maximal cycle).
    #[must_use]
    pub fn is_primitive(&self, f: &GField) -> bool {
        let n = self.degree();
        if n == 0 || self.coeff(0) == 0 {
            return false;
        }
        match (self.order(f), checked_pow(f.order(), n as u32)) {
            (Some(ord), Some(qn)) => ord == qn - 1,
            _ => false,
        }
    }

    /// Finds a monic primitive polynomial of degree n over GF(q) by
    /// exhaustive search. Exists for every finite field and n ≥ 1 \[LP84\].
    ///
    /// # Panics
    /// Panics if q^n overflows u64 (far beyond any realistic network size).
    #[must_use]
    pub fn find_primitive(f: &GField, n: usize) -> Self {
        assert!(n >= 1);
        let q = f.order();
        let total = checked_pow(q, n as u32).expect("q^n overflows u64");
        for code in 0..total {
            let mut coeffs = vec![0u64; n + 1];
            let mut v = code;
            for c in coeffs.iter_mut().take(n) {
                *c = v % q;
                v /= q;
            }
            coeffs[n] = 1;
            let cand = Self::new(&coeffs);
            if cand.coeff(0) != 0 && cand.is_primitive(f) {
                return cand;
            }
        }
        unreachable!("a primitive polynomial of degree {n} exists over GF({q})")
    }

    /// The characteristic-polynomial form of a recurrence
    /// `c_{n+i} = a_{n−1} c_{n−1+i} + … + a_0 c_i` (Equation 3.1):
    /// given the recurrence coefficients `[a_0, …, a_{n−1}]`, returns
    /// `p(x) = x^n − a_{n−1} x^{n−1} − … − a_0` (Equation 3.2).
    #[must_use]
    pub fn from_recurrence(recurrence: &[u64], f: &GField) -> Self {
        let n = recurrence.len();
        let mut coeffs = vec![0u64; n + 1];
        for (i, &a) in recurrence.iter().enumerate() {
            coeffs[i] = f.neg(a);
        }
        coeffs[n] = 1;
        Self::new(&coeffs)
    }

    /// The inverse of [`PolyGf::from_recurrence`]: recurrence coefficients
    /// `[a_0, …, a_{n−1}]` of a monic characteristic polynomial.
    #[must_use]
    pub fn to_recurrence(&self, f: &GField) -> Vec<u64> {
        let n = self.degree();
        (0..n).map(|i| f.neg(self.coeff(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_over_gf4() {
        let f = GField::new(4);
        let a = PolyGf::new(&[1, 2, 3]);
        let b = PolyGf::new(&[3, 1]);
        let (q, r) = a.div_rem(&b, &f);
        assert_eq!(q.mul(&b, &f).add(&r, &f), a);
        assert!(r.degree() < b.degree() || r.is_zero());
    }

    #[test]
    fn irreducibility_over_prime_field_agrees_with_polyp() {
        // Over GF(3), x^2 + 1 irreducible; x^2 + 2 = (x-1)(x+1) not.
        let f = GField::new(3);
        assert!(PolyGf::new(&[1, 0, 1]).is_irreducible(&f));
        assert!(!PolyGf::new(&[2, 0, 1]).is_irreducible(&f));
    }

    #[test]
    fn example_3_1_primitive_over_gf5() {
        // x^2 - x - 3 = x^2 + 4x + 2 over GF(5); the paper's Example 3.1.
        let f = GField::new(5);
        let p = PolyGf::new(&[2, 4, 1]);
        assert!(p.is_irreducible(&f));
        assert_eq!(p.order(&f), Some(24));
        assert!(p.is_primitive(&f));
    }

    #[test]
    fn example_3_2_primitive_over_gf4() {
        // x^2 - x - ζ = x^2 + x + ζ over GF(4) is primitive (order 15),
        // where ζ is the generator of GF(4).
        let f = GField::new(4);
        let zeta = f.generator();
        let p = PolyGf::new(&[zeta, 1, 1]);
        assert!(p.is_irreducible(&f));
        assert_eq!(p.order(&f), Some(15));
        assert!(p.is_primitive(&f));
    }

    #[test]
    fn find_primitive_over_extension_fields() {
        for (q, n) in [(4u64, 2usize), (4, 3), (8, 2), (9, 2), (25, 1)] {
            let f = GField::new(q);
            let p = PolyGf::find_primitive(&f, n);
            assert_eq!(p.degree(), n);
            assert!(p.is_primitive(&f), "q={q} n={n}: {p:?}");
        }
    }

    #[test]
    fn recurrence_roundtrip() {
        let f = GField::new(5);
        let p = PolyGf::new(&[2, 4, 1]); // x^2 + 4x + 2
        let rec = p.to_recurrence(&f);
        // x^2 = x + 3 → recurrence coefficients [3, 1] (a_0 = 3, a_1 = 1).
        assert_eq!(rec, vec![3, 1]);
        assert_eq!(PolyGf::from_recurrence(&rec, &f), p);
    }

    #[test]
    fn gcd_monic() {
        let f = GField::new(4);
        let g = PolyGf::new(&[1, 1]);
        let a = g.mul(&PolyGf::new(&[2, 3, 1]), &f);
        let b = g.mul(&PolyGf::new(&[1, 2]), &f);
        let gg = a.gcd(&b, &f);
        assert_eq!(gg.coeff(gg.degree()), 1, "gcd should be monic");
        assert!(a.rem(&gg, &f).is_zero());
        assert!(b.rem(&gg, &f).is_zero());
    }
}
