//! Where a result came from: host, compute backend, pool, compiler and
//! source revision. Results whose host-side provenance differs are not
//! comparable, and [`mismatches`] names the fields that differ.

/// Provenance fields, as `(key, value)` pairs in a fixed order.
pub type Provenance = Vec<(&'static str, String)>;

/// Fields that must match before two results are compared. The source
/// revision is left out: it is what a comparison is about.
pub const COMPARABLE: [&str; 7] = [
    "nproc",
    "pool_threads",
    "backend",
    "simd_level",
    "arch",
    "cpu",
    "rustc",
];

/// Collects provenance for the current process. Call after the pool and
/// backend are resolved.
pub fn collect() -> Provenance {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = rex_tensor::backend::active();
    vec![
        ("nproc", nproc.to_string()),
        ("pool_threads", rex_pool::num_threads().to_string()),
        ("backend", rex_tensor::backend::kind().to_string()),
        ("simd_level", backend.simd_level().to_owned()),
        ("arch", std::env::consts::ARCH.to_owned()),
        ("cpu", cpu_model()),
        ("rustc", env!("E2E_RUSTC_VERSION").to_owned()),
        ("git_rev", env!("E2E_GIT_REV").to_owned()),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Comparable fields whose values differ between two provenance records,
/// as `(key, a, b)`; a field missing on one side counts as differing.
pub fn mismatches<'a>(
    a: &'a [(String, String)],
    b: &'a [(String, String)],
) -> Vec<(&'static str, &'a str, &'a str)> {
    let get = |p: &'a [(String, String)], k: &str| -> &'a str {
        p.iter()
            .find(|(key, _)| key == k)
            .map_or("<missing>", |(_, v)| v.as_str())
    };
    COMPARABLE
        .iter()
        .filter_map(|&k| {
            let (x, y) = (get(a, k), get(b, k));
            (x != y || x == "<missing>").then_some((k, x, y))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    fn full(nproc: &str, rev: &str) -> Vec<(String, String)> {
        prov(&[
            ("nproc", nproc),
            ("pool_threads", "2"),
            ("backend", "simd"),
            ("simd_level", "avx2"),
            ("arch", "x86_64"),
            ("cpu", "cpu"),
            ("rustc", "rustc 1.95.0"),
            ("git_rev", rev),
        ])
    }

    #[test]
    fn same_host_different_revision_is_comparable() {
        assert!(mismatches(&full("2", "aaa"), &full("2", "bbb")).is_empty());
    }

    #[test]
    fn host_differences_are_flagged() {
        let (one, two) = (full("1", "aaa"), full("2", "aaa"));
        assert_eq!(mismatches(&one, &two), vec![("nproc", "1", "2")]);
        let partial = prov(&[("nproc", "2")]);
        assert_eq!(mismatches(&partial, &two).len(), COMPARABLE.len() - 1);
    }
}
