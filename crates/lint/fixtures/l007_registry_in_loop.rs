// Fixture: L007 — registry get-or-create inside a loop body. Expected
// findings: L007 x4 (a `for` body, a `while let` body with the call
// split across lines, a block nested in a `loop`, a `_labeled` call on
// `self.registry`). A handle resolved before the loop, a lookup in a
// closure, a receiver not named `*registry`, the body of an
// `impl … for …`, and the test module below are clean.

struct Obs {
    registry: Registry,
}

impl Drop for Obs {
    fn drop(&mut self) {
        self.registry.counter("dropped_total").inc();
    }
}

fn record(registry: &Registry, patterns: &[String], stages: &mut Stages, cache: &Cache) {
    let polls = registry.counter("polls_total");
    for p in patterns {
        registry.counter_labeled("rows_total", &[("pattern", p)]).inc();
        polls.inc();
    }
    while let Some(ns) = stages.next() {
        registry
            .histogram("stage_ns")
            .record(ns);
    }
    let timers = STAGES.map(|s| registry.histogram_labeled("stage_ns", &[("stage", s)]));
    loop {
        if cache.full() {
            cache.gauge("depth").set(1);
            break;
        }
        {
            registry.gauge("depth").set(0);
        }
    }
}

impl Obs {
    fn refresh(&self, names: &[&str]) {
        for name in names {
            self.registry.gauge_labeled("live", &[("name", name)]).set(1);
        }
    }
}

#[cfg(test)]
mod tests {
    fn many(registry: &Registry) {
        for i in 0..10 {
            registry.counter(&format!("c{i}")).inc();
        }
    }
}
