// Fixture: L006 — Instant + Duration deadline arithmetic. Expected
// findings: L006 x3 (`Instant::now() + …`, `… + timeout` on a stored
// instant, `+= …_timeout`). `checked_add`, offsets that are not
// timeouts, and the test module below are clean.

fn deadlines(timeout: Duration, retry_timeout: Duration) {
    let a = Instant::now() + Duration::from_secs(1);
    let start = Instant::now();
    let mut b = start + timeout;
    b += retry_timeout;

    let c = Instant::now().checked_add(timeout);
    let cursor = Duration::ZERO + elapsed;
    let total = timeouts_total + 1;
}

#[cfg(test)]
mod tests {
    fn deadline(timeout: Duration) -> Instant {
        Instant::now() + timeout
    }
}
