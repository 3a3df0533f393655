//! Cooperative resource limits for the curve algebra's hot loops.
//!
//! The min-plus operations are exact but not cheap: segment counts can
//! grow multiplicatively under repeated convolution, and adversarial
//! topologies (Bouillard's accuracy-vs-tractability trade-off) can push a
//! single analysis past any reasonable time or memory budget. This module
//! lets a *runner* impose a budget on every curve operation executed by
//! the current thread without threading a parameter through each of the
//! dozens of call sites:
//!
//! * a wall-clock **deadline**,
//! * a **segment cap** (proxy for memory: the widest operand/result a
//!   single min-plus operation may touch),
//! * an **operation cap** (total `conv`/`deconv`/`hdev` calls),
//! * a shared **cancellation token** ([`CancelToken`]) that another
//!   thread may trip at any time.
//!
//! [`install`] puts a [`Limits`] into thread-local storage and returns an
//! RAII [`LimitsGuard`] that restores the previous state on drop (guards
//! nest). The instrumented operations call [`checkpoint`] at entry; when a
//! limit is breached the checkpoint **panics with a [`BudgetBreach`]
//! payload** (via `panic_any`). This is deliberate: the algebra's
//! signatures stay infallible for the nominal path, and a guarded runner
//! (see `dnc-core`'s `resilient` module) wraps each analysis in
//! `catch_unwind`, downcasts the payload, and degrades gracefully. With no
//! limits installed — the default — [`checkpoint`] is two thread-local
//! loads and a branch.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared, clonable cancellation flag. Cloning shares the flag: any
/// clone may [`CancelToken::cancel`], every clone observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token; every holder sees the request at its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether a cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A budget on curve operations run by the current thread.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Largest segment count a single operation may touch (sum of the
    /// operand breakpoint counts reported at the checkpoint).
    pub segment_cap: Option<usize>,
    /// Total number of checkpointed operations allowed.
    pub op_cap: Option<u64>,
    /// Cooperative cancellation.
    pub cancel: Option<CancelToken>,
}

impl Limits {
    /// No limits at all (checkpoints always pass).
    pub fn unlimited() -> Limits {
        Limits::default()
    }
}

/// Which limit a checkpoint found breached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The wall-clock deadline passed.
    Deadline,
    /// An operation touched more than `cap` segments.
    SegmentCap {
        /// The configured cap.
        cap: usize,
        /// The observed segment count.
        observed: usize,
    },
    /// The total operation budget ran out.
    OpCap {
        /// The configured cap.
        cap: u64,
    },
    /// The [`CancelToken`] was tripped.
    Cancelled,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetBreach::Deadline => write!(f, "wall-clock deadline exceeded"),
            BudgetBreach::SegmentCap { cap, observed } => {
                write!(f, "segment cap exceeded: {observed} > {cap}")
            }
            BudgetBreach::OpCap { cap } => write!(f, "operation cap exceeded ({cap} ops)"),
            BudgetBreach::Cancelled => write!(f, "cancelled"),
        }
    }
}

struct Active {
    limits: Limits,
    ops: u64,
}

thread_local! {
    static ACTIVE: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle for an installed [`Limits`]; uninstalls on drop. Guards
/// nest (inner limits shadow outer ones until dropped).
#[must_use = "dropping the guard immediately uninstalls the limits"]
pub struct LimitsGuard {
    _private: (),
}

/// Install `limits` for the current thread until the returned guard is
/// dropped.
pub fn install(limits: Limits) -> LimitsGuard {
    ACTIVE.with(|a| a.borrow_mut().push(Active { limits, ops: 0 }));
    LimitsGuard { _private: () }
}

impl Drop for LimitsGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// Whether any limits are installed on this thread.
pub fn active() -> bool {
    ACTIVE.with(|a| !a.borrow().is_empty())
}

/// Budget checkpoint, called by the instrumented operations with the
/// segment count they are about to touch. No-op when no limits are
/// installed.
///
/// # Panics
/// Panics with a [`BudgetBreach`] payload (`panic_any`) when a limit is
/// breached — callers that install limits must run the analysis under
/// `catch_unwind` and downcast (see [`breach_of`]).
pub fn checkpoint(segments: usize) {
    let breach = ACTIVE.with(|a| {
        let mut stack = a.borrow_mut();
        let top = stack.last_mut()?;
        if let Some(tok) = &top.limits.cancel {
            if tok.is_cancelled() {
                return Some(BudgetBreach::Cancelled);
            }
        }
        if let Some(cap) = top.limits.segment_cap {
            if segments > cap {
                return Some(BudgetBreach::SegmentCap {
                    cap,
                    observed: segments,
                });
            }
        }
        if let Some(cap) = top.limits.op_cap {
            top.ops += 1;
            if top.ops > cap {
                return Some(BudgetBreach::OpCap { cap });
            }
        }
        if let Some(deadline) = top.limits.deadline {
            // audit: allow(det-wall-clock, checkpoint's sanctioned deadline probe; a breach aborts the attempt rather than skewing any bound)
            if Instant::now() >= deadline {
                return Some(BudgetBreach::Deadline);
            }
        }
        None
    });
    if let Some(b) = breach {
        // Documented panic_any payload; always caught by the guarded
        // runner's catch_unwind.
        std::panic::panic_any(b);
    }
}

/// Downcast a `catch_unwind` payload back to the [`BudgetBreach`] raised
/// by [`checkpoint`], if that is what unwound.
pub fn breach_of(payload: &(dyn std::any::Any + Send)) -> Option<&BudgetBreach> {
    payload.downcast_ref::<BudgetBreach>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minplus::conv;
    use crate::Curve;
    use dnc_num::{int, rat};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn no_limits_no_effect() {
        assert!(!active());
        checkpoint(usize::MAX); // must not panic
    }

    #[test]
    fn op_cap_trips_after_budget() {
        let g = install(Limits {
            op_cap: Some(2),
            ..Limits::default()
        });
        checkpoint(1);
        checkpoint(1);
        let r = catch_unwind(AssertUnwindSafe(|| checkpoint(1)));
        let err = r.expect_err("third op must breach");
        assert_eq!(
            breach_of(err.as_ref()),
            Some(&BudgetBreach::OpCap { cap: 2 })
        );
        drop(g);
        checkpoint(1); // uninstalled again
    }

    #[test]
    fn segment_cap_trips_on_wide_operands() {
        let _g = install(Limits {
            segment_cap: Some(4),
            ..Limits::default()
        });
        checkpoint(4);
        let r = catch_unwind(AssertUnwindSafe(|| checkpoint(5)));
        assert!(matches!(
            breach_of(r.expect_err("must breach").as_ref()),
            Some(BudgetBreach::SegmentCap {
                cap: 4,
                observed: 5
            })
        ));
    }

    #[test]
    fn cancel_token_trips_checkpoints() {
        let tok = CancelToken::new();
        let _g = install(Limits {
            cancel: Some(tok.clone()),
            ..Limits::default()
        });
        checkpoint(1);
        tok.cancel();
        let r = catch_unwind(AssertUnwindSafe(|| checkpoint(1)));
        assert_eq!(
            breach_of(r.expect_err("must breach").as_ref()),
            Some(&BudgetBreach::Cancelled)
        );
    }

    #[test]
    fn expired_deadline_trips() {
        let _g = install(Limits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Limits::default()
        });
        let r = catch_unwind(AssertUnwindSafe(|| checkpoint(1)));
        assert_eq!(
            breach_of(r.expect_err("must breach").as_ref()),
            Some(&BudgetBreach::Deadline)
        );
    }

    #[test]
    fn conv_respects_op_cap() {
        let f = Curve::token_bucket(int(2), rat(1, 4));
        let g = Curve::rate_latency(int(1), int(3));
        let _lim = install(Limits {
            op_cap: Some(1),
            ..Limits::default()
        });
        let _first = conv(&f, &g); // within budget
        let r = catch_unwind(AssertUnwindSafe(|| conv(&f, &g)));
        assert!(breach_of(r.expect_err("second conv must breach").as_ref()).is_some());
    }

    #[test]
    fn guards_nest_and_restore() {
        let _outer = install(Limits {
            op_cap: Some(1000),
            ..Limits::default()
        });
        {
            let _inner = install(Limits {
                op_cap: Some(1),
                ..Limits::default()
            });
            checkpoint(1);
            let r = catch_unwind(AssertUnwindSafe(|| checkpoint(1)));
            assert!(r.is_err());
        }
        // Back on the outer budget: plenty left.
        for _ in 0..100 {
            checkpoint(1);
        }
    }
}
