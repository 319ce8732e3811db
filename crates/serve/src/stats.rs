//! Request counters and latency rings for the daemon's `/stats`
//! endpoint.
//!
//! Everything here is lock-free atomics plus one [`rtt_obs::Ring`] for
//! request latencies (bounded by construction — per-request series must
//! never grow with traffic) and one short mutex for the last reload
//! error string. Counters are written from the acceptor and every
//! worker; the snapshot is taken on the `/stats` query path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rtt_obs::json::write_string;
use rtt_obs::Ring;

/// Shared counters for one daemon instance.
#[derive(Debug)]
pub struct Stats {
    accepted: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    queue_rejections: AtomicU64,
    deadline_drops: AtomicU64,
    io_errors: AtomicU64,
    worker_panics: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
    endpoints_predicted: AtomicU64,
    predict_cache_hits: AtomicU64,
    predict_cache_refreshes: AtomicU64,
    latencies_ms: Ring,
    arena_bytes: Vec<AtomicU64>,
    last_reload_error: Mutex<Option<String>>,
}

impl Stats {
    /// Creates counters for a daemon with `workers` worker threads,
    /// keeping the most recent `latency_window` request latencies.
    pub fn new(workers: usize, latency_window: usize) -> Self {
        Self {
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            deadline_drops: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            reloads_ok: AtomicU64::new(0),
            reloads_failed: AtomicU64::new(0),
            endpoints_predicted: AtomicU64::new(0),
            predict_cache_hits: AtomicU64::new(0),
            predict_cache_refreshes: AtomicU64::new(0),
            latencies_ms: Ring::new(latency_window.max(1)),
            arena_bytes: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            last_reload_error: Mutex::new(None),
        }
    }

    /// One accepted TCP connection.
    pub fn record_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One fully parsed request entering the handler.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A response by status class (anything < 400 counts as success).
    pub fn record_response(&self, status: u16) {
        let slot = match status {
            0..=399 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection refused at the acceptor because the queue was full.
    pub fn record_queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A request dropped because its deadline passed before (or while)
    /// a worker could answer it.
    pub fn record_deadline_drop(&self) {
        self.deadline_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// A socket read/write failure (includes injected disconnects).
    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker body panicked and was caught; the worker kept running.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Outcome of a hot-reload attempt; failures keep the error text for
    /// `/stats`, successes clear it.
    pub fn record_reload(&self, outcome: Result<(), String>) {
        let mut last = self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok(()) => {
                self.reloads_ok.fetch_add(1, Ordering::Relaxed);
                *last = None;
            }
            Err(why) => {
                self.reloads_failed.fetch_add(1, Ordering::Relaxed);
                *last = Some(why);
            }
        }
    }

    /// One answered `/predict`: its wall latency and endpoint count.
    pub fn record_predict(&self, latency_ms: f64, endpoints: usize) {
        self.latencies_ms.push(latency_ms);
        self.endpoints_predicted.fetch_add(endpoints as u64, Ordering::Relaxed);
    }

    /// A `/predict` served from a current activation cache: only the
    /// readout tail ran.
    pub fn record_cache_hit(&self) {
        self.predict_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A `/predict` that refreshed its design's activation cache first
    /// (cold after a load or reload, incremental after a transform).
    pub fn record_cache_refresh(&self) {
        self.predict_cache_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes worker `w`'s current `InferCtx` arena footprint.
    pub fn set_arena_bytes(&self, worker: usize, bytes: u64) {
        if let Some(slot) = self.arena_bytes.get(worker) {
            slot.store(bytes, Ordering::Relaxed);
        }
    }

    /// Consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            deadline_drops: self.deadline_drops.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            reloads_ok: self.reloads_ok.load(Ordering::Relaxed),
            reloads_failed: self.reloads_failed.load(Ordering::Relaxed),
            endpoints_predicted: self.endpoints_predicted.load(Ordering::Relaxed),
            predict_cache_hits: self.predict_cache_hits.load(Ordering::Relaxed),
            predict_cache_refreshes: self.predict_cache_refreshes.load(Ordering::Relaxed),
            latency_p50_ms: self.latencies_ms.quantile(0.5),
            latency_p99_ms: self.latencies_ms.quantile(0.99),
            latency_max_ms: self.latencies_ms.max(),
            arena_bytes: self.arena_bytes.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            last_reload_error: self
                .last_reload_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

/// Point-in-time counter values (see [`Stats::snapshot`]).
#[derive(Clone, Debug)]
#[allow(missing_docs)] // field names mirror the /stats JSON keys below
pub struct StatsSnapshot {
    pub accepted: u64,
    pub requests: u64,
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub queue_rejections: u64,
    pub deadline_drops: u64,
    pub io_errors: u64,
    pub worker_panics: u64,
    pub reloads_ok: u64,
    pub reloads_failed: u64,
    pub endpoints_predicted: u64,
    pub predict_cache_hits: u64,
    pub predict_cache_refreshes: u64,
    pub latency_p50_ms: Option<f64>,
    pub latency_p99_ms: Option<f64>,
    pub latency_max_ms: Option<f64>,
    pub arena_bytes: Vec<u64>,
    pub last_reload_error: Option<String>,
}

impl StatsSnapshot {
    /// Appends this snapshot's members (no surrounding braces) to a JSON
    /// object under construction, so the server can splice in its own
    /// fields (generation, queue depth, fault counts) alongside.
    pub fn write_json_members(&self, out: &mut String) {
        let uints: [(&str, u64); 14] = [
            ("accepted", self.accepted),
            ("requests", self.requests),
            ("responses_2xx", self.responses_2xx),
            ("responses_4xx", self.responses_4xx),
            ("responses_5xx", self.responses_5xx),
            ("queue_rejections", self.queue_rejections),
            ("deadline_drops", self.deadline_drops),
            ("io_errors", self.io_errors),
            ("worker_panics", self.worker_panics),
            ("reloads_ok", self.reloads_ok),
            ("reloads_failed", self.reloads_failed),
            ("endpoints_predicted", self.endpoints_predicted),
            ("predict_cache_hits", self.predict_cache_hits),
            ("predict_cache_refreshes", self.predict_cache_refreshes),
        ];
        for (key, value) in uints {
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value.to_string());
            out.push(',');
        }
        let floats = [
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p99_ms", self.latency_p99_ms),
            ("latency_max_ms", self.latency_max_ms),
        ];
        for (key, value) in floats {
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            match value {
                Some(v) => rtt_obs::json::write_f64(out, v),
                None => out.push_str("null"),
            }
            out.push(',');
        }
        out.push_str("\"arena_bytes\":[");
        for (i, b) in self.arena_bytes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("],\"last_reload_error\":");
        match &self.last_reload_error {
            Some(e) => write_string(out, e),
            None => out.push_str("null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_obs::json::Value;

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = Stats::new(2, 16);
        stats.record_accept();
        stats.record_request();
        stats.record_response(200);
        stats.record_response(404);
        stats.record_response(503);
        stats.record_predict(1.5, 32);
        stats.record_predict(2.5, 32);
        stats.record_cache_refresh();
        stats.record_cache_hit();
        stats.record_cache_hit();
        stats.set_arena_bytes(1, 4096);
        stats.record_reload(Err("checksum \"mismatch\"".to_owned()));

        let mut json = String::from("{");
        stats.snapshot().write_json_members(&mut json);
        json.push('}');
        let doc = Value::parse(&json).expect("valid json");
        assert_eq!(doc.get("accepted"), Some(&Value::Num("1".into())));
        assert_eq!(doc.get("responses_2xx"), Some(&Value::Num("1".into())));
        assert_eq!(doc.get("responses_4xx"), Some(&Value::Num("1".into())));
        assert_eq!(doc.get("responses_5xx"), Some(&Value::Num("1".into())));
        assert_eq!(doc.get("endpoints_predicted"), Some(&Value::Num("64".into())));
        assert_eq!(doc.get("reloads_failed"), Some(&Value::Num("1".into())));
        assert_eq!(doc.get("predict_cache_hits"), Some(&Value::Num("2".into())));
        assert_eq!(doc.get("predict_cache_refreshes"), Some(&Value::Num("1".into())));
        assert_eq!(
            doc.get("last_reload_error"),
            Some(&Value::Str("checksum \"mismatch\"".into())),
            "error text must survive JSON escaping"
        );
        assert_eq!(
            doc.get("arena_bytes"),
            Some(&Value::Arr(vec![Value::Num("0".into()), Value::Num("4096".into())]))
        );
        assert!(doc.get("latency_p50_ms").is_some());
    }

    #[test]
    fn reload_success_clears_the_error() {
        let stats = Stats::new(1, 4);
        stats.record_reload(Err("boom".to_owned()));
        assert_eq!(stats.snapshot().last_reload_error.as_deref(), Some("boom"));
        stats.record_reload(Ok(()));
        let snap = stats.snapshot();
        assert_eq!(snap.last_reload_error, None);
        assert_eq!(snap.reloads_ok, 1);
        assert_eq!(snap.reloads_failed, 1);
    }
}
