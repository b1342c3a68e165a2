//! The timed replay that gives the layers below the scheduler.
//!
//! The scheduler's spans stop at its own stages; everything beneath them
//! (pattern generation, kernel simulation, power evaluation, telemetry,
//! the core assembly step, feature extraction, hashing and JSON) is timed
//! here by calling each layer's public function on the workload's own
//! generated inputs, one span per call. Each operation replays one seed of
//! every member, which is what every request and sweep point of the
//! benchmark runs.

use std::time::Instant;

use wm_core::{
    first_seed_member_operands, member_ordinals, simulate_member_activity, PowerLab, RunRequest,
};
use wm_fleet::json::Json;
use wm_fleet::{canonical_key, Fleet};
use wm_kernels::ActivityRecord;
use wm_power::evaluate_group_refs;
use wm_predict::{features_from_member_chunks, FeatureAccumulator, PowerPredictor};
use wm_telemetry::{measure, MeasurementConfig};

use crate::trace::Span;

/// Replay operations get ids far above any request id.
const OP_BASE: u64 = 1 << 48;

/// Spans and counts of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    pub ops: u64,
    pub operand_bytes: u64,
    pub encoded_bytes: u64,
    pub sampled_macs: u64,
    pub feature_bytes: u64,
    pub telemetry_samples: u64,
    epoch: Option<Instant>,
}

impl Replay {
    fn now_ns(&mut self) -> u64 {
        self.epoch
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    /// Time `f` as one span of layer `name` under operation `op`.
    fn time<R>(&mut self, op: u64, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.spans.push(Span::new(op, name, start, end));
        out
    }

    /// Replay the compute path of `req` on the fleet's device `device`:
    /// operands, simulation, features, power, telemetry, the core
    /// assembly, predictor feedback and the cache key.
    pub fn request(
        &mut self,
        req: &RunRequest,
        fleet: &Fleet,
        device: usize,
        predictor: &mut PowerPredictor,
    ) {
        self.ops += 1;
        let op = OP_BASE + self.ops;
        let dev = &fleet.devices()[device];
        let mut activities: Vec<ActivityRecord> = Vec::new();
        let mut chunks: Vec<FeatureAccumulator> = Vec::new();
        for (member, ordinal) in member_ordinals(req) {
            let (a, b) = self.time(op, "patterns.generate", || {
                first_seed_member_operands(req, member, ordinal)
            });
            let values = (a.len() + b.len()) as u64;
            self.operand_bytes += values * std::mem::size_of::<f32>() as u64;
            self.encoded_bytes += values * req.dtype.bytes() as u64;
            let activity = self.time(op, "kernels.simulate", || {
                simulate_member_activity(req, member, &a, &b)
            });
            self.sampled_macs += activity.sampled_macs;
            let chunk = self.time(op, "predict.features", || {
                let mut acc = FeatureAccumulator::new(req.dtype);
                acc.add_matrix(&a);
                acc.add_matrix(&b);
                acc
            });
            self.feature_bytes += chunk.words() * std::mem::size_of::<f32>() as u64;
            activities.push(activity);
            chunks.push(chunk);
        }
        let features = self.time(op, "predict.features", || {
            let refs: Vec<&FeatureAccumulator> = chunks.iter().collect();
            features_from_member_chunks(req, &refs)
        });
        let refs: Vec<&ActivityRecord> = activities.iter().collect();
        let breakdown = self.time(op, "power.evaluate", || {
            evaluate_group_refs(&dev.gpu, &refs)
        });
        let iterations = ((1.6 / breakdown.t_iter_s).ceil() as u64).max(10);
        let cfg = MeasurementConfig::default();
        let (trace, measured) = self.time(op, "telemetry.measure", || {
            measure(
                &dev.gpu,
                &breakdown,
                iterations,
                &dev.vm,
                req.base_seed,
                &cfg,
            )
        });
        self.telemetry_samples += trace.samples.len() as u64;
        let per_member: Vec<&[ActivityRecord]> =
            activities.iter().map(std::slice::from_ref).collect();
        let lab = PowerLab::new(dev.gpu.clone()).with_vm(dev.vm.id);
        // The assembly step re-runs evaluate and measure inside; its own
        // share is the call minus the two calls timed just above.
        let start = self.now_ns();
        std::hint::black_box(lab.run_from_activities(req, &per_member));
        let end = self.now_ns();
        let inner: u64 = self.spans[self.spans.len() - 2..]
            .iter()
            .map(|s| s.end - s.start)
            .sum();
        self.spans.push(Span::new(
            op,
            "core.run_from_activities",
            start,
            end.saturating_sub(inner).max(start),
        ));
        self.time(op, "predict.observe", || {
            predictor.observe(dev.gpu.name, req.kernel, &features, measured.mean_power_w)
        });
        self.canonical_keys(op, req, fleet, 1);
    }

    /// Hash `req` against the first `devices` devices of the fleet, as the
    /// auto-placed hit path does for every device.
    fn canonical_keys(&mut self, op: u64, req: &RunRequest, fleet: &Fleet, devices: usize) {
        self.time(op, "fleet.hash.canonical_key", || {
            fleet
                .devices()
                .iter()
                .take(devices)
                .fold(0u64, |acc, d| acc ^ canonical_key(req, &d.gpu, d.vm.id))
        });
    }

    /// Replay the hit path of one served line: JSON parse of the request,
    /// the per-device cache keys of each run it carries, and JSON encode
    /// of each response line.
    pub fn served_line(
        &mut self,
        request_line: &str,
        runs: &[RunRequest],
        responses: &[String],
        fleet: &Fleet,
    ) {
        self.ops += 1;
        let op = OP_BASE + self.ops;
        let _ = self.time(op, "protocol.parse", || Json::parse(request_line));
        for req in runs {
            self.canonical_keys(op, req, fleet, fleet.len());
        }
        for line in responses {
            let Ok(value) = Json::parse(line) else {
                continue;
            };
            self.time(op, "protocol.encode", || value.to_string());
        }
    }
}
