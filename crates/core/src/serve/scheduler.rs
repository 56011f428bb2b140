//! Each campaign's view of the oracle it shares with other campaigns.
//!
//! Campaigns call a shared oracle concurrently; nothing here serializes
//! them. A shared [`PooledProcessOracle`](crate::PooledProcessOracle)
//! hands its workers to waiting callers first in, first out, so a tenant
//! streaming large sub-batches cannot starve another one (see
//! [`ScheduledOracle`]).

use crate::oracle::{Oracle, ThreadHealth};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A per-tenant view of a shared [`Oracle`].
///
/// The wrapper always advertises
/// [`native_batching`](Oracle::native_batching): the query engine then
/// hands it whole miss sets in bounded sub-batches from the session thread
/// rather than fanning single queries across engine workers, which keeps
/// results byte-identical to a local run (batch construction is
/// dispatch-independent; see the crate docs). Tenants call the shared
/// oracle at the same time; a shared pool's first-in, first-out worker
/// hand-off keeps them fair.
///
/// Health accounting is per tenant and per call, so one tenant's injected
/// faults never leak into another tenant's statistics:
/// [`failure_count`](Oracle::failure_count) counts the `None` answers this
/// wrapper's own calls returned, and the timeout, breaker-trip and
/// recovery counts are what the shared oracle counted on the calling
/// thread during those calls (the oracle counts each of them on the thread
/// that runs the call).
///
/// [`configure_timeout`](Oracle::configure_timeout) is deliberately a
/// no-op: the per-query deadline of a shared oracle belongs to the server
/// (set once at pool creation), not to whichever tenant configured it
/// last.
pub struct ScheduledOracle {
    inner: Arc<dyn Oracle>,
    failures: AtomicUsize,
    timeouts: AtomicUsize,
    trips: AtomicUsize,
    recoveries: AtomicUsize,
}

impl ScheduledOracle {
    /// Wraps the shared oracle `inner` for one tenant.
    pub fn new(inner: Arc<dyn Oracle>) -> Self {
        ScheduledOracle {
            inner,
            failures: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            trips: AtomicUsize::new(0),
            recoveries: AtomicUsize::new(0),
        }
    }

    /// Runs `call` on the shared oracle and charges this tenant with the
    /// `failures` its answers count plus the health events the call
    /// counted on this thread.
    fn attributed<T>(&self, call: impl FnOnce(&dyn Oracle) -> T, failures: fn(&T) -> usize) -> T {
        let before = ThreadHealth::current();
        let out = call(&*self.inner);
        let health = ThreadHealth::current().since(before);
        self.failures.fetch_add(failures(&out), Ordering::Relaxed);
        self.timeouts.fetch_add(health.timeouts, Ordering::Relaxed);
        self.trips.fetch_add(health.trips, Ordering::Relaxed);
        self.recoveries.fetch_add(health.recoveries, Ordering::Relaxed);
        out
    }
}

impl std::fmt::Debug for ScheduledOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledOracle")
            .field("failures", &self.failures.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Oracle for ScheduledOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        self.accepts_checked(input).unwrap_or(false)
    }

    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        self.attributed(|o| o.accepts_checked(input), |v| usize::from(v.is_none()))
    }

    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        self.attributed(
            |o| o.accepts_batch_checked(inputs),
            |vs| vs.iter().filter(|v| v.is_none()).count(),
        )
    }

    fn native_batching(&self) -> bool {
        true
    }

    fn failure_count(&self) -> usize {
        self.failures.load(Ordering::Relaxed)
    }

    fn configure_timeout(&self, _timeout: Option<Duration>) {
        // Deliberate no-op: see the type docs.
    }

    fn timed_out_count(&self) -> usize {
        self.timeouts.load(Ordering::Relaxed)
    }

    fn tripped_worker_count(&self) -> usize {
        self.trips.load(Ordering::Relaxed)
    }

    fn recovered_worker_count(&self) -> usize {
        self.recoveries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FnOracle;

    #[test]
    fn scheduled_oracle_attributes_failures_per_tenant() {
        struct FailingOracle {
            failures: AtomicUsize,
        }
        impl Oracle for FailingOracle {
            fn accepts(&self, _input: &[u8]) -> bool {
                self.failures.fetch_add(1, Ordering::Relaxed);
                false
            }
            fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
                self.accepts(input);
                None
            }
            fn failure_count(&self) -> usize {
                self.failures.load(Ordering::Relaxed)
            }
        }

        let shared: Arc<dyn Oracle> = Arc::new(FailingOracle { failures: AtomicUsize::new(0) });
        let a = ScheduledOracle::new(Arc::clone(&shared));
        let b = ScheduledOracle::new(Arc::clone(&shared));
        a.accepts_checked(b"x");
        a.accepts_checked(b"y");
        b.accepts_checked(b"z");
        assert_eq!(a.failure_count(), 2, "tenant a saw only its own failures");
        assert_eq!(b.failure_count(), 1, "tenant b saw only its own failures");
        assert_eq!(shared.failure_count(), 3);
    }

    #[test]
    fn scheduled_oracle_forwards_verdicts_and_batches() {
        let shared: Arc<dyn Oracle> =
            Arc::new(FnOracle::new(|input: &[u8]| input.starts_with(b"ok")));
        let o = ScheduledOracle::new(shared);
        assert!(o.accepts(b"ok then"));
        assert!(!o.accepts(b"nope"));
        assert_eq!(o.accepts_checked(b"ok"), Some(true));
        assert_eq!(
            o.accepts_batch_checked(&[b"ok".as_slice(), b"no".as_slice()]),
            vec![Some(true), Some(false)]
        );
        assert!(o.native_batching(), "wrapper always advertises native batching");
        assert_eq!(o.failure_count(), 0);
    }
}
