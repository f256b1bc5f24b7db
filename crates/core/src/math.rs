//! Shared numeric helpers and the paper's bound formulas.
//!
//! Every quantity the experiments compare against is computed here, one
//! function per theorem, so EXPERIMENTS.md rows reference a single source
//! of truth.

/// `(Δ+1)^{e_num/e_den}` — the fractional powers of `Δ+1` that drive both
/// algorithms' thresholds and x-values.
///
/// Both the distributed protocols and the centralized references call this
/// helper with identical arguments, so their floating-point results are
/// bit-identical.
///
/// # Panics
///
/// Panics if `e_den == 0`.
pub fn frac_pow(base: f64, e_num: i64, e_den: u32) -> f64 {
    assert!(
        e_den > 0,
        "fractional exponent denominator must be positive"
    );
    base.powf(e_num as f64 / e_den as f64)
}

/// Theorem 4: Algorithm 2 computes a feasible `LP_MDS` solution within
/// `k·(Δ+1)^{2/k}` of the optimum.
pub fn alg2_lp_bound(k: u32, delta: usize) -> f64 {
    k as f64 * frac_pow(delta as f64 + 1.0, 2, k)
}

/// Theorem 5: Algorithm 3 (Δ unknown) achieves
/// `k·((Δ+1)^{1/k} + (Δ+1)^{2/k})`.
pub fn alg3_lp_bound(k: u32, delta: usize) -> f64 {
    let d1 = delta as f64 + 1.0;
    k as f64 * (frac_pow(d1, 1, k) + frac_pow(d1, 2, k))
}

/// Theorem 4 (running time): Algorithm 2 terminates after exactly `2k²`
/// rounds. Saturates at `usize::MAX` instead of overflowing: no round
/// budget admits such a schedule.
pub fn alg2_rounds(k: u32) -> usize {
    let k = k as usize;
    k.saturating_mul(k).saturating_mul(2)
}

/// Theorem 5 (running time): Algorithm 3 terminates after `4k² + O(k)`
/// rounds; this implementation uses exactly `4k² + 2k` rounds
/// (2 setup rounds + 4 rounds per inner iteration + 2 rounds between
/// consecutive outer iterations). Saturates at `usize::MAX` instead of
/// overflowing, like [`alg2_rounds`].
pub fn alg3_rounds(k: u32) -> usize {
    let k = k as usize;
    k.saturating_mul(k)
        .saturating_mul(4)
        .saturating_add(k.saturating_mul(2))
}

/// Theorem 3: rounding an `α`-approximate fractional solution yields an
/// expected dominating set size of at most `(1 + α·ln(Δ+1))·|DS_OPT|`.
pub fn rounding_bound(alpha: f64, delta: usize) -> f64 {
    1.0 + alpha * (delta as f64 + 1.0).ln()
}

/// Remark after Theorem 3: the alternative multiplier
/// `ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1)` gives expected size at most
/// `2α·(ln(Δ+1) − ln ln(Δ+1))·|DS_OPT|`.
pub fn rounding_bound_alt(alpha: f64, delta: usize) -> f64 {
    let l = (delta as f64 + 1.0).ln();
    if l <= 1.0 {
        // Degenerate small-degree case: fall back to the plain bound.
        rounding_bound(alpha, delta)
    } else {
        2.0 * alpha * (l - l.ln())
    }
}

/// Theorem 6: the full pipeline's expected approximation ratio,
/// `1 + α₃·ln(Δ+1)` with `α₃` the Theorem-5 ratio — the concrete constant
/// behind the headline `O(k·Δ^{2/k}·log Δ)`.
pub fn theorem6_bound(k: u32, delta: usize) -> f64 {
    rounding_bound(alg3_lp_bound(k, delta), delta)
}

/// Remark after Theorem 4 (weighted variant): ratio
/// `k·(Δ+1)^{1/k}·[c_max·(Δ+1)]^{1/k}`.
pub fn weighted_lp_bound(k: u32, delta: usize, c_max: f64) -> f64 {
    let d1 = delta as f64 + 1.0;
    k as f64 * frac_pow(d1, 1, k) * (c_max * d1).powf(1.0 / k as f64)
}

/// The `k = Θ(log Δ)` setting from the remark after Theorem 6: the choice
/// of `k` that turns the trade-off into an `O(log²Δ)` approximation in
/// `O(log²Δ)` rounds.
pub fn log_delta_k(delta: usize) -> u32 {
    ((delta as f64 + 2.0).ln().ceil() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frac_pow_basics() {
        assert_eq!(frac_pow(4.0, 0, 3), 1.0);
        assert_eq!(frac_pow(4.0, 2, 2), 4.0);
        assert!((frac_pow(4.0, 1, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn frac_pow_rejects_zero_denominator() {
        frac_pow(2.0, 1, 0);
    }

    #[test]
    fn bounds_decrease_with_k() {
        // Larger k buys a better ratio (at quadratic round cost).
        let delta = 100;
        for k in 1..8 {
            assert!(
                alg2_lp_bound(k + 1, delta) < alg2_lp_bound(k, delta) * 2.0,
                "bound should not explode with k"
            );
        }
        // At k=1 the bound is the trivial (Δ+1)²... times 1.
        assert!((alg2_lp_bound(1, 3) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn alg3_bound_dominates_alg2() {
        for k in 1..6 {
            for delta in [1usize, 5, 50, 500] {
                assert!(alg3_lp_bound(k, delta) >= alg2_lp_bound(k, delta));
            }
        }
    }

    #[test]
    fn round_counts() {
        assert_eq!(alg2_rounds(1), 2);
        assert_eq!(alg2_rounds(3), 18);
        assert_eq!(alg3_rounds(1), 6);
        assert_eq!(alg3_rounds(3), 42);
    }

    #[test]
    fn schedules_saturate_instead_of_overflowing() {
        assert_eq!(alg2_rounds(65_536), 1 << 33);
        assert_eq!(alg3_rounds(600), 1_441_200);
        assert_eq!(alg2_rounds(u32::MAX), usize::MAX);
        assert_eq!(alg3_rounds(u32::MAX), usize::MAX);
    }

    #[test]
    fn rounding_bounds() {
        assert!((rounding_bound(1.0, 0) - 1.0).abs() < 1e-12); // ln(1) = 0
        assert!(rounding_bound(2.0, 9) > 1.0);
        // Alternative multiplier beats the plain one for large Δ and α ≥ 1.
        let delta = 100_000;
        assert!(rounding_bound_alt(1.0, delta) < 2.0 * rounding_bound(1.0, delta));
        // Degenerate case falls back.
        assert_eq!(rounding_bound_alt(1.5, 0), rounding_bound(1.5, 0));
    }

    #[test]
    fn theorem6_composes() {
        let b = theorem6_bound(2, 50);
        assert!((b - (1.0 + alg3_lp_bound(2, 50) * 51f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn weighted_reduces_to_sharper_unweighted_form() {
        // With c_max = 1 the weighted bound is k(Δ+1)^{2/k} = the Alg 2 bound.
        for k in 1..5 {
            assert!((weighted_lp_bound(k, 20, 1.0) - alg2_lp_bound(k, 20)).abs() < 1e-9);
        }
        assert!(weighted_lp_bound(2, 20, 16.0) > weighted_lp_bound(2, 20, 1.0));
    }

    #[test]
    fn log_delta_choice() {
        assert_eq!(log_delta_k(0), 1);
        assert!(log_delta_k(100) >= 4);
        assert!(log_delta_k(100_000) >= 11);
    }
}
