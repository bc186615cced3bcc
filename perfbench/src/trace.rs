//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (signaling,
//! `Simulation::build`, `enable_ldp`, `Simulation::run`, ...). They stay in
//! memory and are written out once, at exit. A disabled recorder only
//! calls the wrapped closure, so the untraced runs pay nothing for it.

use serde::Value;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The pipeline execution this span belongs to.
    pub run: u32,
    /// Index in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What was called, as `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Starts a new pipeline execution; later spans carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.done.len();
        let start_ns = self.now_ns();
        self.done.push(Span {
            run: self.run,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.done[id].end_ns = self.now_ns();
        out
    }

    /// Total seconds spent in spans named `name` during `run`.
    pub fn seconds(&self, run: u32, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .done
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.done[id].duration_ns().saturating_sub(children)
    }

    /// Every span with its self time, plus per-run self time by layer
    /// (the name's prefix up to the first `.`), as JSON.
    pub fn to_json(&self) -> Value {
        let spans = self
            .done
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("run".into(), Value::U64(u64::from(s.run))),
                    ("id".into(), Value::U64(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("self_ns".into(), Value::U64(self.self_ns(s.id))),
                ])
            })
            .collect();
        let mut layers: Vec<(u32, &str, u64)> = Vec::new();
        for s in &self.done {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = self.self_ns(s.id);
            match layers
                .iter_mut()
                .find(|(r, l, _)| *r == s.run && *l == layer)
            {
                Some(entry) => entry.2 += own,
                None => layers.push((s.run, layer, own)),
            }
        }
        let layers = layers
            .into_iter()
            .map(|(run, layer, ns)| {
                Value::Map(vec![
                    ("run".into(), Value::U64(u64::from(run))),
                    ("layer".into(), Value::Str(layer.into())),
                    ("self_ns".into(), Value::U64(ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("spans".into(), Value::Seq(spans)),
            ("self_by_layer".into(), Value::Seq(layers)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        let run = s.next_run();
        s.span("setup", |s| {
            s.span("control.signal", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = &s.done[0];
        let inner = &s.done[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.run, run);
        assert!(outer.duration_ns() >= inner.duration_ns());
        assert_eq!(s.self_ns(0), outer.duration_ns() - inner.duration_ns());
        assert!(s.seconds(run, "control.signal") >= 0.002);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let v = s.span("net.run", |_| 7);
        assert_eq!(v, 7);
        assert!(s.done.is_empty());
    }
}
