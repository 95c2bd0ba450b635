//! The metric catalog and the result line.
//!
//! Every workload prints every metric of its mode, so runs of different
//! workloads have one shape. A per-layer metric of a layer that a
//! workload does not cross reads 0 there (the layer did no work).

use std::collections::BTreeMap;

/// Printed by the untraced run (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("qps", "1/s"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("space_bits_per_row", "bits/row"),
    ("peak_rss_mb", "MiB"),
    ("sim_blocks_per_query", "blocks"),
];

/// Printed by the traced run (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server_us.p50", "us"),
    ("serve.server_us.p99", "us"),
    ("serve.outside_us.p50", "us"),
    ("serve.batch_mean", "requests"),
    ("serve.encode_ns_per_row", "ns/row"),
    ("serve.decode_ns_per_row", "ns/row"),
    ("serve.response_bytes_per_row", "bytes/row"),
    ("serve.shed", "count"),
    ("query.exec_us.p50", "us"),
    ("query.exec_us.p99", "us"),
    ("query.plan_us.p50", "us"),
    ("query.combine_us.p50", "us"),
    ("query.examined_per_row", "ratio"),
    ("query.plans.gallop", "count"),
    ("query.plans.probe", "count"),
    ("query.plans.scan", "count"),
    ("api.intersect_ns_per_elem", "ns/elem"),
    ("api.to_vec_ns_per_row", "ns/row"),
    ("core.cond_us.p50", "us"),
    ("core.cond_us.p99", "us"),
    ("core.bits_read_per_row", "bits/row"),
    ("core.blocks_over_bound", "ratio"),
    ("core.apply_us.p50", "us"),
    ("core.apply_us.p99", "us"),
    ("bits.decode_ns_per_elem", "ns/elem"),
    ("bits.kernel.swar", "share"),
    ("bits.kernel.simd", "share"),
    ("bits.kernel.scalar", "share"),
    ("bits.kernel.gallop", "share"),
    ("bits.kernel.block_skip", "share"),
    ("bits.kernel.block_and", "share"),
    ("io.pool_hit_rate", "share"),
    ("io.real_reads_per_query", "blocks"),
    ("io.evictions_per_query", "blocks"),
    ("io.fetch_us.p50", "us"),
    ("io.fetch_us.p99", "us"),
    ("io.pool_overhead", "ratio"),
    ("io.pool_grown", "count"),
    ("io.retries", "count"),
    ("store.save_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.file_bytes_per_row", "bytes/row"),
    ("wal.write_ops_per_s", "1/s"),
    ("wal.apply_us.p50", "us"),
    ("wal.apply_us.p99", "us"),
    ("wal.commit_us.p50", "us"),
    ("wal.commit_us.p99", "us"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.commit_batch_mean", "ops"),
    ("wal.checkpoint_ms.p50", "ms"),
    ("wal.checkpoint_ms.max", "ms"),
    ("wal.bytes_per_op", "bytes"),
    ("wal.replayed_ops", "count"),
    ("bench.gen_late_us.p50", "us"),
    ("bench.gen_late_us.p99", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Of those, shed or answered with a typed error.
    pub failed: u64,
    /// Answers that disagreed with their oracle, and acknowledged writes
    /// missing after recovery. Any of these fails the run.
    pub wrong: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable report (standard error).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a catalog metric.
    ///
    /// # Panics
    /// If `name` is not in the catalog (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalog"));
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.metrics.insert(name, value + 0.0);
    }

    /// Records `<prefix>.p50` and `<prefix>.p99` of nanosecond samples in
    /// microseconds. A p99 with fewer than ten samples beyond it reads 0,
    /// with a note.
    pub fn set_us(&mut self, prefix: &str, samples_ns: &[f64]) {
        self.set(
            &format!("{prefix}.p50"),
            crate::stats::median(samples_ns) / 1e3,
        );
        let p99 = crate::stats::tail_quantile(samples_ns, 0.99);
        if p99.is_none() {
            self.note(format!(
                "{prefix}.p99 refused: {} samples",
                samples_ns.len()
            ));
        }
        self.set(&format!("{prefix}.p99"), p99.unwrap_or(0.0) / 1e3);
    }

    /// Records `query_p50_us` and `query_p99_us` from latency samples in
    /// nanoseconds. Without ten samples beyond the p99 the untraced run
    /// fails; the traced run does not report it.
    pub fn set_query_latency(&mut self, samples_ns: &[f64], traced: bool) -> Result<(), String> {
        let p99 = match crate::stats::tail_quantile(samples_ns, 0.99) {
            Some(v) => v,
            None if traced => 0.0,
            None => {
                return Err(format!(
                    "{} latency samples are too few for a p99",
                    samples_ns.len()
                ))
            }
        };
        self.set("query_p50_us", crate::stats::median(samples_ns) / 1e3);
        self.set("query_p99_us", p99 / 1e3);
        Ok(())
    }

    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            eprintln!("WRONG: {what}");
        }
        self.wrong.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of the mode. An end-to-end metric the run did
    /// not produce is a harness error.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
            ));
        }
        Ok(format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }

    /// Every measured metric with its unit, plus the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.metrics.get(name) {
                out += &format!("  {name:<30} {v:>16.4} {unit}\n");
            }
        }
        out += &format!(
            "  {:<30} {:>16.6} fraction ({} of {} attempted)\n",
            "error_rate",
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            out += &format!("  {n}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches(r#""unit": "#).count();
        assert_eq!(listed, names.len(), "BENCHMARK.json lists other metrics");
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let line = r.json(false).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 1.5, "unit": "s"}"#));
        assert_eq!(
            r.json(true).unwrap().matches("value").count(),
            PER_LAYER.len()
        );
        r.wrong("row 7 missing".into());
        assert!(r.json(false).unwrap().starts_with(r#"{"correct": false"#));
        let mut partial = Report::default();
        partial.set("qps", 2.0);
        assert!(partial.json(false).is_err());
    }
}
