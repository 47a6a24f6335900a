//! Virtual threads: `spawn`/`join` that the scheduler can interleave.
//!
//! Inside a checker run, spawned closures run on real OS threads but start
//! parked on a `Start` op, so no user code (including lock/atomic object
//! allocation) executes before the scheduler orders it. Outside a run,
//! `spawn` is `std::thread::spawn` verbatim.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::rt::{self, Ctx, Execution, Op, OpKind};

pub use crate::sync::yield_now;

enum Imp<T> {
    Std(std::thread::JoinHandle<T>),
    Virtual {
        exec: Arc<Execution>,
        tid: usize,
        obj: u32,
        _result: PhantomData<fn() -> T>,
    },
}

/// Owned permission to join on a thread, mirroring `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    imp: Imp<T>,
}

impl<T: 'static> JoinHandle<T> {
    /// Waits for the thread to finish, returning its closure's value, or
    /// `Err` with the panic payload if it panicked. Under the checker the
    /// join is itself a scheduler decision point, only enabled once the
    /// target thread has exited; during iteration teardown it returns `Err`
    /// immediately instead of blocking (so destructors that join a model
    /// thread always terminate).
    pub fn join(self) -> std::thread::Result<T> {
        match self.imp {
            Imp::Std(handle) => handle.join(),
            Imp::Virtual { exec, tid, obj, .. } => {
                let ctx = match rt::current() {
                    Some(ctx) => ctx,
                    None => panic!("interleave: join on a model thread from outside the model"),
                };
                if !ctx.exec.perform(ctx.tid, Op::new(OpKind::Join, obj)) {
                    return Err(teardown_payload());
                }
                match exec.take_result(tid) {
                    Some(boxed) => match boxed.downcast::<T>() {
                        Ok(value) => Ok(*value),
                        Err(_) => panic!("interleave: join result type mismatch"),
                    },
                    // The target finished by panicking (which already failed
                    // the iteration) or was torn down before producing one.
                    None => Err(teardown_payload()),
                }
            }
        }
    }
}

fn teardown_payload() -> Box<dyn Any + Send> {
    Box::new("interleave: iteration ended before join".to_string())
}

/// Spawns a thread. Inside a checker run the thread becomes part of the
/// schedule exploration; otherwise this is `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = match rt::current() {
        None => {
            return JoinHandle {
                // lint: allow(server-boundary): the checker's virtual threads run on real OS
                // threads serialized one-at-a-time by the interleave scheduler
                imp: Imp::Std(std::thread::spawn(f)),
            };
        }
        Some(ctx) => ctx,
    };
    let (tid, obj) = ctx.exec.register_thread();
    let exec = Arc::clone(&ctx.exec);
    let builder = std::thread::Builder::new().name(format!("interleave-t{tid}"));
    // lint: allow(server-boundary): model threads must be real OS threads (they park in
    // scheduler condvars); the checker joins every handle at iteration end
    let spawned = builder.spawn(move || {
        rt::set_ctx(Some(Ctx {
            exec: Arc::clone(&exec),
            tid,
        }));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.wait_started(tid);
            f()
        }));
        let boxed = outcome.map(|value| Box::new(value) as Box<dyn Any + Send>);
        exec.finish_thread(tid, boxed);
        rt::set_ctx(None);
    });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(err) => panic!("interleave: OS thread spawn failed: {err}"),
    };
    ctx.exec.add_os_handle(handle);
    JoinHandle {
        imp: Imp::Virtual {
            exec: ctx.exec,
            tid,
            obj,
            _result: PhantomData,
        },
    }
}
