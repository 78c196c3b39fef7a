//! Latency summary statistics.

/// Summary of a latency distribution, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyReport {
    /// Samples observed.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyReport {
    /// Summarizes a probe latency histogram.
    ///
    /// The mean, min, max, and count are exact; percentiles carry the
    /// histogram's log₂-bucket resolution (each reported as its
    /// bucket's floor, clamped below by the true minimum).
    pub fn from_histogram(h: &ocin_core::LatencyHistogram) -> LatencyReport {
        Self::summarize(h.count, h.mean(), h.min, h.max, |p| h.percentile(p))
    }

    /// Summarizes a telemetry quantile histogram.
    ///
    /// Unlike [`LatencyReport::from_histogram`], percentiles here carry
    /// the log-linear resolution of [`ocin_core::QuantileHistogram`]:
    /// exact whenever [`ocin_core::QuantileHistogram::is_exact`] holds
    /// (all samples below `2^(precision+1)`, always the case for
    /// [`ocin_core::QuantileHistogram::exact`] below `2^63`), and
    /// within a relative error of `2^-precision` otherwise.
    pub fn from_quantiles(h: &ocin_core::QuantileHistogram) -> LatencyReport {
        Self::summarize(h.count, h.mean(), h.min, h.max, |p| h.percentile(p))
    }

    fn summarize(
        count: u64,
        mean: f64,
        min: u64,
        max: u64,
        percentile: impl Fn(f64) -> u64,
    ) -> LatencyReport {
        if count == 0 {
            return LatencyReport::default();
        }
        LatencyReport {
            count: count as usize,
            mean,
            p50: percentile(50.0) as f64,
            p95: percentile(95.0) as f64,
            p99: percentile(99.0) as f64,
            p999: percentile(99.9) as f64,
            min: min as f64,
            max: max as f64,
        }
    }
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.1} p50 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0} (n={})",
            self.mean, self.p50, self.p95, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_quantiles_matches_exact_samples() {
        let mut h = ocin_core::QuantileHistogram::new(16);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.is_exact());
        let r = LatencyReport::from_quantiles(&h);
        assert_eq!(r.count, 1000);
        assert_eq!(r.p50, 500.0);
        assert_eq!(r.p99, 990.0);
        // ceil(0.999 * 1000) lands on rank 1000 in floating point, so
        // nearest-rank p99.9 of 1..=1000 is the maximum sample.
        assert_eq!(r.p999, 1000.0);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 1000.0);
        assert!(r.to_string().contains("p99.9 1000"));

        let empty = LatencyReport::from_quantiles(&ocin_core::QuantileHistogram::new(16));
        assert_eq!(empty, LatencyReport::default());
    }

    #[test]
    fn report_matches_fields() {
        let mut h = ocin_core::QuantileHistogram::exact();
        for v in [2, 4, 6] {
            h.record(v);
        }
        let r = LatencyReport::from_quantiles(&h);
        assert_eq!(
            (r.count, r.mean, r.p50, r.min, r.max),
            (3, 4.0, 4.0, 2.0, 6.0)
        );
        assert!(r.to_string().contains("mean 4.0"));
    }
}
