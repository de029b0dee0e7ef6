//! Spans recorded from outside the program under test.
//!
//! Every lap of a workload is a sequence of *stage* spans (generate, netsim,
//! hosts, query, …) that together cover the lap; they are always recorded,
//! because the "stages sum to the lap" check needs them. Calls into a
//! layer's public functions inside a stage are *leaf* spans, timed only on a
//! traced run. A layer function is called up to millions of times per run,
//! so leaves are aggregated: one span per (parent stage, function) holding
//! the first start, the last end, the summed busy time and the call count.
//! Spans stay in memory and are written once, when the run ends.

use serde_json::{json, Value};
use std::collections::HashMap;
use std::time::Instant;

/// One recorded span. `run` is the lap number: 0 for the warm-up lap and the
/// probes, 1.. for measured laps.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the calls; equals `end_ns - start_ns` for a stage.
    pub busy_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// `--trace 1`: leaf calls are timed too.
    pub detail: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    leaves: HashMap<(Option<u32>, &'static str), usize>,
}

impl Tracer {
    pub fn new(detail: bool) -> Self {
        Self {
            epoch: Instant::now(),
            detail,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            leaves: HashMap::new(),
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts lap `run`; spans recorded from here on carry it.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
        self.leaves.clear();
    }

    /// Opens a stage span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            run: self.run,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open stage, which must be `id`; returns its
    /// duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "stage spans close innermost first"
        );
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.busy_ns
    }

    /// Runs `f` as a stage span; returns its result.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// The start time of a leaf call: `Some(now)` on a traced run, `None`
    /// (and no clock read) otherwise. Hand it to [`Self::leaf`] afterwards.
    #[inline]
    pub fn tick(&self) -> Option<u64> {
        self.detail.then(|| self.now_ns())
    }

    /// Ends a leaf call started at `t0`.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, t0: Option<u64>) {
        if let Some(start) = t0 {
            let end = self.now_ns();
            self.leaf_total(name, start, end, end - start, 1);
        }
    }

    /// Folds calls the caller timed itself into the (current stage, `name`)
    /// leaf: `calls` calls between `start_ns` and `end_ns`, `busy_ns` inside.
    pub fn leaf_total(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) {
        let parent = self.open.last().copied();
        if let Some(&i) = self.leaves.get(&(parent, name)) {
            let s = &mut self.spans[i];
            s.end_ns = end_ns;
            s.busy_ns += busy_ns;
            s.calls += calls;
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id: id as u32,
            parent,
            name,
            run: self.run,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
        self.leaves.insert((parent, name), id);
    }

    /// Summed busy time of every span called `name` in measured laps.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.measured(name).map(|s| s.busy_ns).sum()
    }

    /// Summed call count of every span called `name` in measured laps.
    pub fn calls(&self, name: &str) -> u64 {
        self.measured(name).map(|s| s.calls).sum()
    }

    fn measured<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.run > 0 && s.name == name)
    }

    /// Summed duration of the top-level stages of measured laps — what must
    /// equal the measured wall time.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.run > 0 && s.parent.is_none())
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Busy time of each top-level stage name over measured laps, in first
    /// appearance order.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.run > 0 && s.parent.is_none())
        {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += s.busy_ns,
                None => out.push((s.name, s.busy_ns)),
            }
        }
        out
    }

    /// The trace file's content: the stamp and every span.
    pub fn to_json(&self, stamp: &Value) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "name": s.name,
                    "run": s.run,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "busy_ns": s.busy_ns,
                    "calls": s.calls
                })
            })
            .collect();
        json!({ "env": stamp, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_aggregate_under_their_stage_and_untraced_runs_skip_them() {
        let mut t = Tracer::new(true);
        t.set_run(1);
        let stage = t.open("hosts");
        for _ in 0..3 {
            let t0 = t.tick();
            t.leaf("uplink.tick", t0);
        }
        t.close(stage);
        assert_eq!(t.calls("uplink.tick"), 3);
        assert_eq!(t.stage_totals().len(), 1);
        assert_eq!(t.top_level_ns(), t.busy_ns("hosts"));

        let mut quiet = Tracer::new(false);
        quiet.set_run(1);
        let t0 = quiet.tick();
        quiet.leaf("uplink.tick", t0);
        assert_eq!(quiet.calls("uplink.tick"), 0);
    }

    #[test]
    fn warm_up_lap_is_left_out_of_totals() {
        let mut t = Tracer::new(false);
        t.stage("netsim", |_| ());
        assert_eq!(t.top_level_ns(), 0);
        t.set_run(1);
        t.stage("netsim", |_| ());
        assert_eq!(t.calls("netsim"), 1);
    }
}
