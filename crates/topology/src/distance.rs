//! All-pairs distance matrices (hop count and noise-aware weights).

/// An all-pairs distance matrix over the physical qubits of a device.
///
/// Two views are provided: integer hop counts (the plain SABRE distance) and
/// floating-point weights (used by the noise-aware HA-style distance of
/// Eq. 3 in the paper, where an edge's weight mixes its error rate, duration
/// and unit distance).
///
/// The matrix also records, once at construction, whether every weight is
/// a small integer ([`integral_weights`](Self::integral_weights)): sums of
/// such weights are exact in any order, which lets the router price a
/// candidate SWAP as a delta against a per-step base sum.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    // Hop counts are stored as u32 — at 433 qubits (IBM Osprey) the n² hop
    // table drops from 1.5 MB to 750 KB and halves the cache traffic of the
    // routing hot loop. Device diameters are tiny, so u32 never saturates.
    hops: Vec<u32>,
    weights: Vec<f64>,
    integral: bool,
}

/// Sentinel for "unreachable" in the compact hop storage; surfaced to
/// callers as `usize::MAX` so the public API is unchanged.
const UNREACHABLE: u32 = u32::MAX;

/// The largest weight magnitude [`DistanceMatrix::integral_weights`]
/// accepts. Any sum of up to 2²⁰ such integers stays below 2⁵³, where
/// every integer is an exact `f64`.
const MAX_INTEGRAL_WEIGHT: f64 = 4_294_967_296.0; // 2^32

/// Whether `w` is an integer weight whose sums are exact: whole, at most
/// [`MAX_INTEGRAL_WEIGHT`] in magnitude (which rules out ∞ and NaN), and
/// not `-0.0` (whose sign an ordered sum can keep but a difference of sums
/// cannot). Within that bound the `i64` round trip is exact exactly for
/// whole numbers, and cheaper than `fract`.
fn is_integral_weight(w: f64) -> bool {
    w.abs() <= MAX_INTEGRAL_WEIGHT && (w as i64) as f64 == w && w.to_bits() != (-0.0f64).to_bits()
}

impl DistanceMatrix {
    /// Builds a matrix from BFS hop counts; weights default to the hop count.
    pub fn from_hops(n: usize, hops: Vec<usize>) -> Self {
        assert_eq!(hops.len(), n * n);
        // Finite hops fit in u32 (`compact_hop` checks), so they are
        // integral weights; only unreachable pairs (∞) are not.
        let integral = !hops.contains(&usize::MAX);
        let weights = hops
            .iter()
            .map(|&h| {
                if h == usize::MAX {
                    f64::INFINITY
                } else {
                    h as f64
                }
            })
            .collect();
        let hops = hops.into_iter().map(Self::compact_hop).collect();
        Self {
            n,
            hops,
            weights,
            integral,
        }
    }

    /// Builds a matrix from explicit floating-point weights, deriving the hop
    /// view by rounding (used only for display; routing reads `weight`).
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), n * n);
        let hops = weights
            .iter()
            .map(|&w| {
                if w.is_finite() {
                    Self::compact_hop(w.round() as usize)
                } else {
                    UNREACHABLE
                }
            })
            .collect();
        let integral = weights.iter().all(|&w| is_integral_weight(w));
        Self {
            n,
            hops,
            weights,
            integral,
        }
    }

    fn compact_hop(h: usize) -> u32 {
        if h == usize::MAX {
            UNREACHABLE
        } else {
            u32::try_from(h).expect("hop count exceeds u32 range")
        }
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hop-count distance between two physical qubits
    /// (`usize::MAX` when unreachable).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let h = self.hops[a * self.n + b];
        if h == UNREACHABLE {
            usize::MAX
        } else {
            h as usize
        }
    }

    /// Weighted distance between two physical qubits.
    pub fn weight(&self, a: usize, b: usize) -> f64 {
        self.weights[a * self.n + b]
    }

    /// Replaces the weighted view while keeping the hop view.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.n * self.n);
        self.integral = weights.iter().all(|&w| is_integral_weight(w));
        self.weights = weights;
        self
    }

    /// Whether every weight is a finite integer of magnitude at most 2³²
    /// (and none is `-0.0`), so that any sum of up to 2²⁰ weights — in any
    /// order, with any mix of additions and subtractions — is computed
    /// exactly. True for plain hop-count matrices of connected devices;
    /// false when some pair is unreachable (∞) or the weights are
    /// fractional (noise-aware). Recorded once at construction.
    pub fn integral_weights(&self) -> bool {
        self.integral
    }

    /// The largest finite hop count in the matrix.
    pub fn max_hops(&self) -> usize {
        self.hops
            .iter()
            .copied()
            .filter(|&h| h != UNREACHABLE)
            .max()
            .unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_and_weight_views_agree_by_default() {
        let d = DistanceMatrix::from_hops(2, vec![0, 3, 3, 0]);
        assert_eq!(d.hops(0, 1), 3);
        assert!((d.weight(0, 1) - 3.0).abs() < 1e-12);
        assert_eq!(d.max_hops(), 3);
    }

    #[test]
    fn unreachable_is_infinite_weight() {
        let d = DistanceMatrix::from_hops(2, vec![0, usize::MAX, usize::MAX, 0]);
        assert!(d.weight(0, 1).is_infinite());
    }

    #[test]
    fn weights_can_be_overridden() {
        let d =
            DistanceMatrix::from_hops(2, vec![0, 1, 1, 0]).with_weights(vec![0.0, 2.5, 2.5, 0.0]);
        assert_eq!(d.hops(0, 1), 1);
        assert!((d.weight(0, 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn hop_matrices_have_integral_weights() {
        let d = DistanceMatrix::from_hops(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]);
        assert!(d.integral_weights());
    }

    #[test]
    fn unreachable_pairs_are_not_integral() {
        let d = DistanceMatrix::from_hops(2, vec![0, usize::MAX, usize::MAX, 0]);
        assert!(!d.integral_weights());
    }

    #[test]
    fn fractional_or_oversized_weights_are_not_integral() {
        assert!(!DistanceMatrix::from_weights(2, vec![0.0, 1.5, 1.5, 0.0]).integral_weights());
        assert!(DistanceMatrix::from_weights(2, vec![0.0, 4.0, 4.0, 0.0]).integral_weights());
        let huge = 2f64.powi(40);
        let oversized =
            DistanceMatrix::from_hops(2, vec![0, 1, 1, 0]).with_weights(vec![0.0, huge, huge, 0.0]);
        assert!(!oversized.integral_weights());
        assert!(!DistanceMatrix::from_weights(2, vec![-0.0, 1.0, 1.0, 0.0]).integral_weights());
    }

    #[test]
    fn with_weights_recomputes_integrality() {
        let hops = DistanceMatrix::from_hops(2, vec![0, 1, 1, 0]);
        let fractional = hops.clone().with_weights(vec![0.0, 2.5, 2.5, 0.0]);
        assert!(!fractional.integral_weights());
        let whole = fractional.with_weights(vec![0.0, 3.0, 3.0, 0.0]);
        assert!(whole.integral_weights());
    }

    #[test]
    fn from_weights_rounds_for_hops() {
        let d = DistanceMatrix::from_weights(2, vec![0.0, 1.9, 1.9, 0.0]);
        assert_eq!(d.hops(0, 1), 2);
    }
}
