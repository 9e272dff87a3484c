// Clang thread-safety annotation macros (docs/STATIC_ANALYSIS.md).
//
// The simulator's core discipline is that *simulated* concurrency never maps
// onto host concurrency: exactly one SThread runs at a time, so application
// and `arch` code need no locks at all (DESIGN.md section 5.1).  Host-level
// threads exist only at the edges -- the fiber stack pool, the rt::Watchdog
// poll thread, and ckpt::Disk's cross-process writer LOCK.  Those edges are
// exactly where a data race would be a *host* bug rather than a simulation
// bug, so they carry clang `-Wthread-safety` capability annotations and the
// SPP_WERROR clang CI leg machine-checks the locking protocol at build time.
//
// Under any compiler without the capability attribute (GCC included) every
// macro expands to nothing; the annotations are zero-cost documentation
// there.  The canonical reference for the attribute semantics is
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html -- these macros are
// the standard spelling that document uses, prefixed SPP_.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SPP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SPP_THREAD_ANNOTATION
#define SPP_THREAD_ANNOTATION(x)  // not clang: annotations compile away.
#endif

/// Marks a class as a capability (a lock, or any token of exclusive right,
/// e.g. ckpt::Disk's on-disk writer LOCK).  `x` names it in diagnostics.
#define SPP_CAPABILITY(x) SPP_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (rt::HostLock).
#define SPP_SCOPED_CAPABILITY SPP_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SPP_GUARDED_BY(x) SPP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define SPP_PT_GUARDED_BY(x) SPP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held by the caller.
#define SPP_REQUIRES(...) \
  SPP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return, not on entry).
#define SPP_ACQUIRE(...) \
  SPP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry, not on return).
#define SPP_RELEASE(...) \
  SPP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; holds the capability iff it returned
/// `success` (first argument).
#define SPP_TRY_ACQUIRE(...) \
  SPP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT already hold the listed capabilities (deadlock guard for
/// non-reentrant locks).
#define SPP_EXCLUDES(...) SPP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held; after a call the analysis
/// treats it as held (the bridge between a runtime check at a public API
/// boundary and static checking of the private helpers behind it --
/// ckpt::Disk::assert_writer uses this).
#define SPP_ASSERT_CAPABILITY(x) \
  SPP_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the capability protecting its result.
#define SPP_RETURN_CAPABILITY(x) SPP_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: skip analysis of one function.  Every use must carry a
/// comment explaining why the protocol cannot be expressed statically
/// (conditional acquisition, process-exit paths, ...).
#define SPP_NO_THREAD_SAFETY_ANALYSIS \
  SPP_THREAD_ANNOTATION(no_thread_safety_analysis)
