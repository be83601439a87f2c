//! Open-loop load generation into a live `SessionPool`.
//!
//! One generator (the calling thread) submits each arrival at its due
//! time whatever the pool is doing, so a stall delays every later
//! request instead of throttling the generator. Every request is timed
//! from its **due** time: latency counts the generator's own lateness,
//! the queue wait, and the service. The job closures stamp their own
//! start and finish, so no figure depends on the pool's registry.

use std::time::{Duration, Instant};

use schooner::{Rejected, SessionPool, SessionTicket};

/// What the generator offers: a due time (seconds after the phase
/// start), a tenant, and the job.
pub struct Offer<J> {
    /// Seconds after the phase start the request is due.
    pub due_s: f64,
    /// Tenant the request is sent for.
    pub tenant: String,
    /// The work itself.
    pub job: J,
}

/// The fate of one offered request.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// Seconds after the phase start it was due.
    pub due_s: f64,
    /// How late the generator submitted it, seconds.
    pub lag_s: f64,
    /// Admission refusal, if refused.
    pub rejected: Option<Rejected>,
    /// The job's return value, if it ran.
    pub value: Option<T>,
    /// Job start and finish, seconds after the phase start.
    pub ran: Option<(f64, f64)>,
}

impl<T> Outcome<T> {
    /// Due-to-finish latency; `None` for a refused or lost request,
    /// which counts as a miss.
    pub fn latency_s(&self) -> Option<f64> {
        self.ran.map(|(_, end)| end - self.due_s)
    }

    /// Queue wait: from submission to job start.
    pub fn wait_s(&self) -> Option<f64> {
        self.ran.map(|(start, _)| start - (self.due_s + self.lag_s))
    }

    /// Service time: job start to finish.
    pub fn service_s(&self) -> Option<f64> {
        self.ran.map(|(start, end)| end - start)
    }
}

/// The pool's report type for an open-loop job: its value plus the
/// job's own start and finish instants.
pub type Stamped<T> = (T, Instant, Instant);

/// Run one phase: submit every offer at its due time, then wait for all
/// admitted jobs. Returns the outcomes in offer order and the phase's
/// start instant.
pub fn drive<T, J>(
    pool: &SessionPool<Stamped<T>>,
    offers: Vec<Offer<J>>,
) -> (Vec<Outcome<T>>, Instant)
where
    T: Send + 'static,
    J: FnOnce() -> T + Send + 'static,
{
    let start = Instant::now();
    type Admission<T> = Result<SessionTicket<Stamped<T>>, Rejected>;
    let mut pending: Vec<(f64, f64, Admission<T>)> = Vec::with_capacity(offers.len());
    for offer in offers {
        let due = start + Duration::from_secs_f64(offer.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag_s = Instant::now().saturating_duration_since(due).as_secs_f64();
        let job = offer.job;
        let ticket = pool.submit(&offer.tenant, move || {
            let t0 = Instant::now();
            let value = job();
            (value, t0, Instant::now())
        });
        pending.push((offer.due_s, lag_s, ticket));
    }
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let outcomes = pending
        .into_iter()
        .map(|(due_s, lag_s, ticket)| match ticket {
            Err(r) => Outcome { due_s, lag_s, rejected: Some(r), value: None, ran: None },
            Ok(t) => match t.wait() {
                Ok((value, t0, t1)) => Outcome {
                    due_s,
                    lag_s,
                    rejected: None,
                    value: Some(value),
                    ran: Some((since(t0), since(t1))),
                },
                Err(_) => Outcome { due_s, lag_s, rejected: None, value: None, ran: None },
            },
        })
        .collect();
    (outcomes, start)
}
