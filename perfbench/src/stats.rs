//! The benchmark's metric rules: percentiles, medians, the true-locus rule
//! and the `/proc` readers behind `cpu_s_per_msample` and `peak_rss_mb`.

use genpip_genomics::ReadOrigin;

/// Fewest samples a percentile must have *beyond* it before it is reported:
/// p90 needs at least 100 samples, p50 at least 20.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The true-locus rule: a mapping of `[ref_start, ref_end]` is correct
/// when the midpoint of the read's true reference span lies inside it.
/// Mapping coordinates are forward-strand for both strands, so
/// reverse-complement reads are judged the same way. Contaminant reads have
/// no true locus.
pub fn on_true_locus(origin: &ReadOrigin, ref_start: usize, ref_end: usize) -> bool {
    match *origin {
        ReadOrigin::Reference { start, len, .. } => {
            let mid = start + len / 2;
            ref_start <= mid && mid <= ref_end
        }
        ReadOrigin::Contaminant => false,
    }
}

/// Linux's fixed user-visible clock tick (`USER_HZ`) that `/proc/*/stat`
/// times are counted in.
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks of the whole process (every thread, live or
/// joined) from the text of `/proc/self/stat`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last ')': field 3 (state) is index 0 there,
    // utime (field 14) index 11 and stime (field 15) index 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kb)
}

/// Process CPU seconds (user + system) so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / USER_HZ
}

/// The process's peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_order_independent_nearest_rank() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        assert_eq!(percentile(&v, 0.9), Some(179.0));
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Some(179.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn true_locus_uses_the_span_midpoint_on_both_strands() {
        for reverse in [false, true] {
            let origin = ReadOrigin::Reference {
                start: 1_000,
                len: 400,
                reverse,
            };
            // Midpoint 1_200: inside, on either boundary, and outside.
            assert!(on_true_locus(&origin, 1_100, 1_300));
            assert!(on_true_locus(&origin, 1_200, 1_500));
            assert!(on_true_locus(&origin, 900, 1_200));
            assert!(!on_true_locus(&origin, 1_201, 1_600));
            assert!(!on_true_locus(&origin, 500, 1_199));
        }
        // An odd span length rounds the midpoint down.
        let odd = ReadOrigin::Reference {
            start: 0,
            len: 5,
            reverse: true,
        };
        assert!(on_true_locus(&odd, 2, 2));
        assert!(!on_true_locus(&odd, 3, 10));
        assert!(!on_true_locus(&ReadOrigin::Contaminant, 0, usize::MAX));
    }

    #[test]
    fn stat_parser_sums_utime_and_stime_despite_spaces_in_comm() {
        let stat = "4242 (genpip perf) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 777 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        let own = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(parse_stat_cpu_ticks(&own).is_some());
    }

    #[test]
    fn status_parser_reads_vm_hwm_in_kb() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12_345));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vm_hwm_kb(&own).unwrap_or(0) > 0);
    }
}
