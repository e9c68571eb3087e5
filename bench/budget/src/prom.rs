//! A scraper for the Prometheus text exposition `GET /metrics` returns.
//!
//! Only what the ledger needs: sample lookup by full name (labels included,
//! exactly as printed) and histogram means from `_sum` / `_count`. A family
//! the server does not export reads as `None`, never as an error, so a
//! renamed or removed family costs one metric instead of the whole run.

use std::collections::HashMap;

#[derive(Debug, Default, Clone)]
pub struct Scrape {
    samples: HashMap<String, f64>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated field; label values
            // may themselves contain spaces, so split from the right.
            let Some((name, value)) = line.rsplit_once(char::is_whitespace) else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(name.trim().to_string(), v);
            }
        }
        Scrape { samples }
    }

    /// The sample printed as `name` (e.g. `http_requests_total{route="doc"}`).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).copied()
    }

    /// Mean of histogram `family` in seconds: `_sum / _count`, `None` when
    /// the family is absent or has observed nothing.
    pub fn mean_seconds(&self, family: &str) -> Option<f64> {
        let sum = self.get(&format!("{family}_sum"))?;
        let count = self.get(&format!("{family}_count"))?;
        (count > 0.0).then(|| sum / count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP ingest_succeeded_total Snapshots fully processed and stored.
# TYPE ingest_succeeded_total counter
ingest_succeeded_total 36000
ingest_mode_total{mode=\"buld\"} 36000
http_requests_total{route=\"doc\"} 12
ingest_process_seconds_bucket{le=\"0.001024\"} 30000
ingest_process_seconds_bucket{le=\"+Inf\"} 36000
ingest_process_seconds_sum 18.5
ingest_process_seconds_count 36000
idle_seconds_sum 0
idle_seconds_count 0
odd_label{note=\"a b\"} 3
ingest_docs_per_sec 1812.25
";

    #[test]
    fn samples_are_found_by_their_printed_name() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.get("ingest_succeeded_total"), Some(36000.0));
        assert_eq!(s.get("ingest_mode_total{mode=\"buld\"}"), Some(36000.0));
        assert_eq!(s.get("http_requests_total{route=\"doc\"}"), Some(12.0));
        assert_eq!(s.get("odd_label{note=\"a b\"}"), Some(3.0));
        assert_eq!(s.get("ingest_docs_per_sec"), Some(1812.25));
    }

    #[test]
    fn histogram_means_come_from_sum_and_count() {
        let s = Scrape::parse(TEXT);
        let mean = s.mean_seconds("ingest_process_seconds").unwrap();
        assert!((mean - 18.5 / 36000.0).abs() < 1e-15);
    }

    #[test]
    fn missing_or_empty_families_read_as_none() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.get("no_such_family_total"), None);
        assert_eq!(s.mean_seconds("no_such_seconds"), None);
        assert_eq!(s.mean_seconds("idle_seconds"), None);
        assert_eq!(Scrape::parse("").get("x"), None);
    }
}
