//! The mean-field coverage of infect-and-die gossip, the analytical oracle
//! the simulated dissemination is checked against.

/// The fraction `π` of an infinite population that infect-and-die gossip
/// with mean fanout `f` reaches: the largest root of `π = 1 − e^{−fπ}`.
///
/// Every reached node proposes to `f` uniformly drawn peers once, so a node
/// is missed by all `nπ` reached nodes with probability `e^{−fπ}`, which is
/// `1 − π`. Below the epidemic threshold (`f ≤ 1`) the only root is 0; above
/// it, Newton's method from `π = 1` descends monotonically onto the positive
/// root, because `π − 1 + e^{−fπ}` is convex and positive at 1.
///
/// # Examples
///
/// ```
/// let pi = heap_analytics::fixed_point(2.0);
/// assert!((pi - 0.796_812).abs() < 1e-6);
/// assert!((pi - (1.0 - (-2.0 * pi).exp())).abs() < 1e-12);
/// assert_eq!(heap_analytics::fixed_point(0.8), 0.0);
/// ```
pub fn fixed_point(f: f64) -> f64 {
    if f <= 1.0 {
        return 0.0;
    }
    let mut pi = 1.0_f64;
    loop {
        let miss = (-f * pi).exp();
        let next = pi - (pi - 1.0 + miss) / (1.0 - f * miss);
        if next >= pi {
            return pi;
        }
        pi = next;
    }
}

#[cfg(test)]
mod tests {
    use super::fixed_point;

    #[test]
    fn fixed_point_solves_the_coverage_equation() {
        for f in [1.01, 1.5, 2.0, 3.0, 5.0, 7.0, 20.0] {
            let pi = fixed_point(f);
            assert!(pi > 0.0 && pi < 1.0, "f = {f}: π = {pi}");
            assert!((pi - (1.0 - (-f * pi).exp())).abs() < 1e-12, "f = {f}");
        }
        // Coverage grows with the fanout.
        assert!(fixed_point(1.5) < fixed_point(2.0) && fixed_point(2.0) < fixed_point(3.0));
    }

    #[test]
    fn no_positive_root_at_or_below_the_threshold() {
        for f in [0.0, 0.5, 0.8, 1.0] {
            assert_eq!(fixed_point(f), 0.0, "f = {f}");
        }
    }
}
